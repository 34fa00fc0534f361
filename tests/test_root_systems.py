import math
import random
import time
from itertools import count

import pytest

from commgrowth.errors import DomainError, ResourceLimitError
from commgrowth.root_systems import MAX_RANK, root_system, supported_labels

# closed-form positive-root counts, independent of the closure code
CLASSICAL_N = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
}
EXCEPTIONAL_N = {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}

# Weyl group orders, independent of the degrees and of the closure
CLASSICAL_W = {
    "A": lambda l: math.factorial(l + 1),
    "B": lambda l: 2 ** l * math.factorial(l),
    "C": lambda l: 2 ** l * math.factorial(l),
    "D": lambda l: 2 ** (l - 1) * math.factorial(l),
}
EXCEPTIONAL_W = {"G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}

# a rank past CPython's 4300-digit limit on int(str)
LONG_RANK = "9" * 5000


def euclidean_simple_roots(family, l):
    """Bourbaki's simple roots of B_l, C_l and D_l in R^l: e_i - e_(i+1),
    then e_l (B, short), 2e_l (C, long) or e_(l-1) + e_l (D)."""
    def e(i):
        return [int(i == t) for t in range(l)]
    chain = [[a - b for a, b in zip(e(i), e(i + 1))] for i in range(l - 1)]
    last = {"B": e(l - 1), "C": [2 * v for v in e(l - 1)],
            "D": [a + b for a, b in zip(e(l - 2), e(l - 1))]}[family]
    return chain + [last]


class TestBuild:
    def test_a1(self):
        rs = root_system("A1")
        assert rs.rank == 1
        assert rs.num_positive_roots == 1
        assert rs.degrees == (2,)
        assert rs.dimension == 3

    def test_g2(self):
        rs = root_system("G2")
        assert rs.num_positive_roots == 6
        assert rs.degrees == (2, 6)
        assert rs.dimension == 14

    @pytest.mark.parametrize("label, degrees", [
        ("F4", (2, 6, 8, 12)),
        ("E6", (2, 5, 6, 8, 9, 12)),
        ("E7", (2, 6, 8, 10, 12, 14, 18)),
        ("E8", (2, 8, 12, 14, 18, 20, 24, 30)),
    ])
    def test_exceptional_degrees(self, label, degrees):
        assert root_system(label).degrees == degrees

    def test_a2_roots(self):
        rs = root_system("A2")
        assert rs.num_positive_roots == 3
        assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}

    def test_c2_and_e8_dimensions(self):
        assert root_system("C2").dimension == 10
        assert root_system("E8").dimension == 248

    def test_lowercase_accepted(self):
        assert root_system("f4") == root_system("F4")

    @pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D3", "E5", "E9",
                                     "F3", "G3", "H4", "A", "7", "", "AA2", 3, None])
    def test_malformed_labels(self, bad):
        with pytest.raises(DomainError):
            root_system(bad)

    @pytest.mark.parametrize("bad", [["A3"], {}])
    def test_unhashable_labels(self, bad):
        with pytest.raises(DomainError, match="type label must be a string"):
            root_system(bad)

    def test_one_object_per_type(self):
        assert root_system("a3") is root_system("A03") is root_system("A3")

    def test_rank_guard_boundary(self):
        assert MAX_RANK == 48
        assert root_system("A48").num_positive_roots == CLASSICAL_N["A"](48)
        for label in ("A49", "B49", "D100000"):
            with pytest.raises(ResourceLimitError):
                root_system(label)

    @pytest.mark.parametrize("family", "ABCD")
    def test_long_classical_rank_hits_the_guard(self, family):
        with pytest.raises(ResourceLimitError, match="exceeds guard 48") as exc:
            root_system(family + LONG_RANK)
        assert "5000 digits" in str(exc.value) and len(str(exc.value)) < 200

    @pytest.mark.parametrize("family", "EFG")
    def test_long_exceptional_rank_is_out_of_range(self, family):
        with pytest.raises(DomainError, match=f"type {family} requires rank <=") as exc:
            root_system(family + LONG_RANK)
        assert len(str(exc.value)) < 200

    def test_long_malformed_label_is_shortened(self):
        # up to 18 characters the label is echoed whole, past that only
        # its first 8 characters and its length
        with pytest.raises(DomainError) as exc:
            root_system("H" + "9" * 17)
        assert str(exc.value) == "malformed type label 'H99999999999999999'"
        with pytest.raises(DomainError) as exc:
            root_system("H" + LONG_RANK)
        assert str(exc.value) == "malformed type label 'H9999999'... (5001 characters)"

    def test_long_leading_zeros_accepted(self):
        assert root_system("A" + "0" * 5000 + "3") == root_system("A3")

    def test_supported_labels_order_and_counts(self):
        assert supported_labels(4) == ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                       "C2", "C3", "C4", "D4", "F4", "G2"]
        assert len(supported_labels()) == 32
        assert len(supported_labels(16)) == 64
        assert supported_labels(16)[-5:] == ["E6", "E7", "E8", "F4", "G2"]
        # past MAX_RANK root_system refuses every label, so none is listed
        started = time.monotonic()
        assert supported_labels(49) == supported_labels(10 ** 18) == supported_labels(48)
        assert time.monotonic() - started < 0.1


class TestStructuralInvariants:
    @pytest.mark.parametrize("label", supported_labels(16))
    def test_degree_identity_and_dimension(self, label):
        rs = root_system(label)
        n = rs.num_positive_roots
        assert n == sum(d - 1 for d in rs.degrees)
        assert rs.dimension == 2 * n + rs.rank

    @pytest.mark.parametrize("label", supported_labels(16) + ["A48"])
    def test_degrees_against_weyl_group_order(self, label):
        # the degrees are read off the root heights; check them against
        # facts that do not come from the heights: their number, their
        # product |W|, and their pairing d_i + d_(l+1-i) = h + 2 for the
        # Coxeter number h
        rs = root_system(label)
        degrees = rs.degrees
        assert len(degrees) == rs.rank
        order = EXCEPTIONAL_W.get(label) or CLASSICAL_W[label[0]](rs.rank)
        assert math.prod(degrees) == order
        assert sum(d - 1 for d in degrees) == rs.num_positive_roots
        h = 1 + sum(rs.highest_root)
        assert all(a + b == h + 2 for a, b in zip(degrees, reversed(degrees)))

    @pytest.mark.parametrize("label", supported_labels(16))
    def test_closure_count_against_closed_form(self, label):
        rs = root_system(label)
        family = label[0]
        if label in EXCEPTIONAL_N:
            assert rs.num_positive_roots == EXCEPTIONAL_N[label]
        else:
            assert rs.num_positive_roots == CLASSICAL_N[family](rs.rank)

    @pytest.mark.parametrize("label", supported_labels())
    def test_simple_roots_are_unit_vectors(self, label):
        rs = root_system(label)
        units = {tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)}
        assert units <= set(rs.positive_roots)

    @pytest.mark.parametrize("label", supported_labels(16))
    def test_cartan_shape(self, label):
        rs = root_system(label)
        for i, row in enumerate(rs.cartan):
            assert row[i] == 2
            assert all(v <= 0 for j, v in enumerate(row) if j != i)

    @pytest.mark.parametrize("label", [lab for lab in supported_labels(16) if lab[0] in "BCD"])
    def test_cartan_against_euclidean_roots(self, label):
        # cartan[i][j] = 2(a_i, a_j)/(a_j, a_j); B_l and C_l differ only here
        roots = euclidean_simple_roots(label[0], int(label[1:]))

        def dot(x, y):
            return sum(a * b for a, b in zip(x, y))
        want = tuple(tuple(2 * dot(a, b) // dot(b, b) for b in roots) for a in roots)
        assert root_system(label).cartan == want

    @pytest.mark.parametrize("label", supported_labels())
    def test_root_string_closure_property(self, label):
        # alpha + alpha_i is listed exactly when the string count admits it;
        # p is found by walking down, apart from the closure's recurrence
        rs = root_system(label)
        roots = set(rs.positive_roots)
        for alpha in roots:
            for i in range(rs.rank):
                pair = sum(a * rs.cartan[j][i] for j, a in enumerate(alpha))
                p = 0
                down = list(alpha)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                up = list(alpha)
                up[i] += 1
                assert (tuple(up) in roots) == (p - pair >= 1)

    @pytest.mark.parametrize("label", supported_labels())
    def test_roots_sorted_by_height(self, label):
        rs = root_system(label)
        heights = [sum(r) for r in rs.positive_roots]
        assert heights == sorted(heights)


class TestPairing:
    def test_zero_coweight(self):
        rs = root_system("C2")
        assert all(rs.pairing((0, 0), r) == 0 for r in rs.positive_roots)

    def test_a1_duality(self):
        rs = root_system("A1")
        for a in range(-5, 6):
            assert rs.pairing((a,), (1,)) == a

    def test_a2_sum_root(self):
        rs = root_system("A2")
        assert rs.pairing((1, 1), (1, 1)) == 2

    def test_bilinearity(self):
        rs = root_system("B3")
        rng = random.Random(6)
        for _ in range(100):
            x = tuple(rng.randint(-4, 4) for _ in range(3))
            y = tuple(rng.randint(-4, 4) for _ in range(3))
            c = rng.randint(-3, 3)
            root = rng.choice(rs.positive_roots)
            lhs = rs.pairing(tuple(a + c * b for a, b in zip(x, y)), root)
            assert lhs == rs.pairing(x, root) + c * rs.pairing(y, root)

    @pytest.mark.parametrize("label", supported_labels())
    def test_highest_root_duality(self, label):
        # pairing the highest root's own coefficients against each simple
        # root must read those coefficients back
        rs = root_system(label)
        theta = rs.highest_root
        for i in range(rs.rank):
            simple = tuple(int(i == j) for j in range(rs.rank))
            assert rs.pairing(theta, simple) == theta[i]

    def test_length_mismatch(self):
        rs = root_system("A2")
        with pytest.raises(DomainError):
            rs.pairing((1,), (1, 0))
        with pytest.raises(DomainError):
            rs.pairing((1, 0), (1,))

    @pytest.mark.parametrize("coeffs, root, message", [
        (5, (1,), "coeffs must be iterable, got 5"),
        ((1,), None, "root must be iterable, got None"),
        (iter([1, 2]), (1,), "expected length-1 vectors, got 2 and 1"),
        ((1,), iter([]), "expected length-1 vectors, got 1 and 0"),
        (count(), (1,), "expected length-1 vectors, got 2 and 1"),
        ((1, 2, 3, 4), (1,), "expected length-1 vectors, got 2 and 1"),
    ], ids=["coeffs", "root", "long-iterator", "empty-iterator", "endless-iterator",
            "long-tuple"])
    def test_malformed_vectors_refused(self, coeffs, root, message):
        # a vector that is no iterable is refused as one of the wrong length
        # is, and any iterable of the wrong length keeps the length message;
        # at most rank + 1 items are read, so a longer vector, an endless
        # one too, shows as rank + 1 long
        with pytest.raises(DomainError) as caught:
            root_system("A1").pairing(coeffs, root)
        assert str(caught.value) == message


def test_b2_c2_isomorphic_data():
    b2, c2 = root_system("B2"), root_system("C2")
    assert b2.num_positive_roots == c2.num_positive_roots
    assert b2.degrees == c2.degrees
    assert b2.dimension == c2.dimension
