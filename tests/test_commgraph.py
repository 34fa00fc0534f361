import functools
import hashlib
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from ball_oracles import (ball_sizes, candidate_count, hnf_matrices, overlattices,
                          sublattice_counts, undeduplicated_ball)
from conftest import empty_ball_cache, lattice_contains_oracle, square_stack, upper_row_span_mask

from commgrowth import commgraph as cg
from commgrowth.arith import divisors, growth_series_rank1
from commgrowth.cli import main
from commgrowth.commgraph import (RationalCyclic, RationalLattice, chain_length,
                                  check_transfer_inequality, comm_index, distance,
                                  enumerate_ball, geodesic, index_in, intersect,
                                  run_metric_checks)
from commgrowth.errors import DomainError, ResourceLimitError
from commgrowth.reporting import compare

Z = RationalCyclic(1, 1)
Z2 = RationalLattice.standard(2)
# entries and denominator past 2^63, so the ball around it is exact only
# in Python ints
BIG2 = RationalLattice.from_rows([[10 ** 30 + 7, 3 * 10 ** 29], [0, 10 ** 31 + 9]],
                                 denom=10 ** 20 + 1)


def cyclic(a, b=1):
    return RationalCyclic(a, b)


def sigma(k):
    return sum(divisors(k))


def reduced_3d(P):
    """An (N, dim, dim) stack of upper triangular matrices with positive
    diagonals, brought in place to HNF as _reduced first did."""
    for c in range(1, P.shape[1]):
        for r in range(c):
            P[:, r] -= (P[:, r, c] // P[:, c, c])[:, None] * P[:, c]
    return P


def frames_3d(H, det):
    """The frames as _frames first built them from an (N, dim, dim) stack:
    adj(H) row by row from H*adj(H) = det*I, then anti-transposed and
    reduced."""
    dim, adj = H.shape[1], np.zeros_like(H)
    for r in range(dim - 1, -1, -1):
        rest = np.einsum("kc,kcx->kx", H[:, r, r + 1:], adj[:, r + 1:])
        adj[:, r] = (det[:, None] * (np.arange(dim) == r) - rest) // H[:, r, r, None]
    return reduced_3d(adj[:, ::-1, ::-1].transpose(0, 2, 1).copy())


def lexsort_ball_keys(dim, radii):
    """The key rows of the ball of radius n around Z^dim, for each n in radii,
    as _ball_keys first gave them: (q, P row by row), from the brute HNF list
    as an (N, dim, dim) stack by determinant, and its frames, multiplied by a
    batched @.  The candidates of the largest radius are made canonical by a
    gcd along each key row and sorted by np.lexsort over every key column
    (the cyclic rows (b, a) as (a, b)); those of radius n are the ones of
    index product i*j <= n, deduplicated row by row."""
    top = max(radii)
    R = np.array([H for H, _ in hnf_matrices(dim or 1, top)], np.int64)
    det = np.array([m for _, m in hnf_matrices(dim or 1, top)], np.int64)
    F = frames_3d(R, det)
    counts = np.searchsorted(det, top // det, side="right")
    rel_of = np.repeat(np.arange(len(R)), counts)
    frame_of = np.arange(len(rel_of)) - np.repeat(np.cumsum(counts) - counts, counts)
    q, flat = det[frame_of], reduced_3d(F[frame_of] @ R[rel_of]).reshape(len(rel_of), -1)
    g = np.gcd(np.gcd.reduce(flat, axis=1), q)
    keys = np.column_stack([q // g, flat // g[:, None]])
    order = np.lexsort(keys.T[::-1] if dim else keys.T)
    keys, product = keys[order], (det[rel_of] * q)[order]
    for n in radii:
        within = keys[product <= n]
        yield n, within[np.r_[True, (within[1:] != within[:-1]).any(axis=1)]]


def reduced_in_ints(P, dim):
    """P, upper triangle columns of Python ints, reduced in place as
    _triangular_canonical does; returns the largest size of any product or
    entry formed on the way."""
    top = 0
    for r, c in itertools.combinations(range(dim), 2):
        k = P[r, c] // P[c, c]
        for t in range(c, dim):
            step = k * P[c, t]
            P[r, t] = P[r, t] - step
            top = max(top, abs(step).max(), abs(P[r, t]).max())
    return top


class TestCanonicalForms:
    def test_cyclic_reduces_generator(self):
        assert cyclic(6, 4) == cyclic(3, 2)

    def test_cyclic_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            RationalCyclic(0, 1)
        with pytest.raises(DomainError):
            RationalCyclic(1, -2)

    def test_lattice_canonicalizes_any_generators(self):
        messy = RationalLattice.from_rows([[2, 7], [4, 2]])
        again = RationalLattice.from_rows([[4, 2], [2, 7]])
        assert messy == again
        h = messy.basis
        assert h[1][0] == 0 and h[0][0] > 0 and h[1][1] > 0
        assert 0 <= h[0][1] < h[1][1]

    def test_lattice_strips_common_content(self):
        assert RationalLattice.from_rows([[2, 0], [0, 2]], denom=2) == Z2
        assert RationalLattice.from_rows([[2, 0], [0, 2]], denom=4) == \
            RationalLattice.from_rows([[1, 0], [0, 1]], denom=2)

    def test_lattice_rejects_rank_deficient(self):
        with pytest.raises(DomainError):
            RationalLattice.from_rows([[1, 2], [2, 4]])

    @pytest.mark.parametrize("call, message", [
        (lambda: RationalLattice(2, 1, 5), "basis must be iterable, got 5"),
        (lambda: RationalLattice(2, 1, [[1, 0], 5]), "basis row must be iterable, got 5"),
        (lambda: RationalLattice.from_rows(5), "basis must be iterable, got 5"),
        (lambda: RationalLattice.from_rows([5]), "basis row must be iterable, got 5"),
    ], ids=["basis", "row", "from_rows-basis", "from_rows-row"])
    def test_lattice_rejects_malformed_rows(self, call, message):
        # the constructor and from_rows share one check on the rows, so a
        # non-iterable basis or row is refused, not left to a bare TypeError
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize("call, message", [
        (lambda: RationalLattice(2, 1, itertools.count()), "basis"),
        (lambda: RationalLattice(2, 1, [itertools.count(), [0, 1]]), "basis row"),
        (lambda: RationalLattice.from_rows(itertools.count()), "basis"),
        (lambda: RationalLattice.from_rows([itertools.repeat(1)]), "basis row"),
        (lambda: chain_length(itertools.count()), "chain"),
        (lambda: chain_length(itertools.repeat(Z)), "chain"),
    ], ids=["basis", "row", "from_rows-basis", "from_rows-row", "chain", "chain-of-Z"])
    def test_endless_iterables_refused(self, call, message):
        # a basis, a row or a chain is read to at most one item past
        # MAX_LATTICE_ENTRIES, so an endless one is refused, not read forever
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as caught:
            call()
        assert time.perf_counter() - start < 1
        assert str(caught.value) == f"{message} of more than 1000000 items exceeds guard 1000000"

    def test_lattice_hashable_for_dedup(self):
        assert len({Z2, RationalLattice.standard(2)}) == 1


class TestIntersectIndex:
    def test_intersect_idempotent(self):
        assert intersect(Z2, Z2) == Z2

    def test_intersect_dim1_examples(self):
        assert intersect(cyclic(2), cyclic(3)) == cyclic(6)
        assert intersect(RationalCyclic(1, 2), cyclic(3)) == cyclic(3)

    def test_intersect_lattice_vs_cyclic_agree(self):
        # dim-1 lattices must reproduce the cyclic arithmetic, and each
        # family's intersection stays in its family
        rng = random.Random(5)
        for _ in range(200):
            a, b = rng.randint(1, 30), rng.randint(1, 30)
            c, d = rng.randint(1, 30), rng.randint(1, 30)
            A = RationalLattice.from_rows([[a]], denom=b)
            B = RationalLattice.from_rows([[c]], denom=d)
            got = A.intersection(B)
            want = RationalCyclic(a, b).intersection(RationalCyclic(c, d))
            assert type(got) is RationalLattice and type(want) is RationalCyclic
            assert got == RationalLattice.from_rows([[want.a]], denom=want.b)
            assert comm_index(A, B) == comm_index(RationalCyclic(a, b), RationalCyclic(c, d))

    def test_intersect_contains_common_elements(self):
        rng = random.Random(13)
        for _ in range(100):
            A = cg._random_lattice(rng)
            B = cg._random_lattice(rng)
            inter = A.intersection(B)
            assert A.contains(inter) and B.contains(inter)

    def test_index_examples(self):
        assert index_in(RationalLattice.scaled(2, 2), Z2) == 4
        assert index_in(Z2, Z2) == 1
        assert index_in(cyclic(6), RationalCyclic(3, 2)) == 4

    def test_index_rejects_non_sublattice(self):
        with pytest.raises(DomainError):
            index_in(Z2, RationalLattice.scaled(2, 2))
        with pytest.raises(DomainError):
            index_in(cyclic(3), cyclic(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            intersect(Z2, RationalLattice.standard(3))

    @pytest.mark.parametrize("call", [
        lambda A, B: comm_index(A, B),
        lambda A, B: comm_index(A, Z2),
        lambda A, B: intersect(A, B),
        lambda A, B: index_in(B, A),
        lambda A, B: geodesic(A, B),
        lambda A, B: chain_length([B, A]),
        lambda A, B: check_transfer_inequality(A, B, 2),
    ], ids=["comm_index", "comm_index-dim2", "intersect", "index_in", "geodesic", "chain_length",
            "transfer"])
    def test_mixed_families_rejected(self, call):
        # (a/b)Z is the dim-1 lattice (1/b)*rowspan((a)) but a family of its own:
        # it is refused beside a lattice at equal dimension too, and never equal to one
        with pytest.raises(DomainError) as caught:
            call(RationalCyclic(1, 1), RationalLattice.standard(1))
        assert str(caught.value) == "mixed families: RationalCyclic vs RationalLattice"
        assert RationalCyclic(3, 2) != RationalLattice.from_rows([[3]], denom=2)

    @pytest.mark.parametrize("call, shown", [
        (lambda: comm_index(3, Z), "int"),
        (lambda: intersect(3, Z), "int"),
        (lambda: index_in(Z, 3), "int"),
        (lambda: distance(None, Z), "NoneType"),
        (lambda: chain_length([Z, 3]), "int"),
        (lambda: check_transfer_inequality(3, Z, 2), "int"),
        (lambda: enumerate_ball(3, 2), "int"),
    ], ids=["comm_index", "intersect", "index_in", "distance", "chain_length", "transfer",
            "enumerate_ball"])
    def test_unsupported_family_refused(self, call, shown):
        # a value of neither family is refused by one check, not left to
        # fail as an AttributeError on the method it lacks
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == f"unsupported family {shown}"


def random_lattice_pair(rng, dim, entry=6, denom=8):
    """Two full-rank lattices in Q^dim, entries in [-entry, entry],
    denominators 1..denom."""
    def one():
        while True:
            rows = [[rng.randint(-entry, entry) for _ in range(dim)] for _ in range(dim)]
            try:
                return RationalLattice(dim, rng.randint(1, denom), tuple(map(tuple, rows)))
            except DomainError:
                continue
    return one(), one()


def integer_basis(L, q):
    """The rows of L's basis written over the denominator q."""
    return [[v * (q // L.denom) for v in row] for row in L.basis]


def diagonal_product(H):
    return math.prod(H[i][i] for i in range(len(H)))


class TestIntersectContainsOracles:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_contains_matches_back_substitution(self, dim):
        rng = random.Random(100 + dim)
        seen = set()
        for _ in range(300):
            A, B = random_lattice_pair(rng, dim)
            inter = A.intersection(B)
            for sup, sub in ((A, B), (B, A), (A, inter), (inter, A), (B, inter)):
                want = lattice_contains_oracle(sup, sub)
                assert sup.contains(sub) == want, (sup, sub)
                seen.add(want)
        assert seen == {True, False}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_intersection_index_matches_point_count(self, dim):
        # with A', B' = q*A, q*B integer, N*Z^dim lies in A' & B' for
        # N = det A' * det B', so the points of A' & B' in the period box
        # [0, N)^dim number N**dim / [Z^dim : A' & B']
        rng = random.Random(200 + dim)
        checked = 0
        while checked < 100:
            A, B = random_lattice_pair(rng, dim, entry=3, denom=4)
            q = math.lcm(A.denom, B.denom)
            Aq, Bq = integer_basis(A, q), integer_basis(B, q)
            n = diagonal_product(Aq) * diagonal_product(Bq)
            if n ** dim > 10 ** 5:
                continue
            box = np.indices((n,) * dim).reshape(dim, -1).T
            points = int(np.count_nonzero(upper_row_span_mask(Aq, box)
                                          & upper_row_span_mask(Bq, box)))
            inter = A.intersection(B)
            index = diagonal_product(inter.basis) * (q // inter.denom) ** dim
            assert index * points == n ** dim, (A, B)
            ci = comm_index(A, B)
            assert ci.left_index * diagonal_product(Aq) * points == n ** dim, (A, B)
            assert ci.right_index * diagonal_product(Bq) * points == n ** dim, (A, B)
            checked += 1


class TestSharedProtocol:
    # contains and index_of are one protocol over both families, read off
    # the commensurability index
    @pytest.mark.parametrize("dim", [0, 2, 3])
    def test_contains_and_index_of_follow_comm_index(self, dim):
        rng = random.Random(300 + dim)
        seen = set()
        for _ in range(200):
            if dim:
                A, B = random_lattice_pair(rng, dim, entry=4, denom=6)
            else:
                A, B = (RationalCyclic(rng.randint(1, 40), rng.randint(1, 40)) for _ in "AB")
            inter = A.intersection(B)
            for sup, sub in ((A, B), (B, A), (A, inter), (inter, B)):
                ci = comm_index(sup, sub)
                contained = sup.contains(sub)
                assert contained == (ci.right_index == 1), (sup, sub)
                if contained:
                    assert sup.index_of(sub) == ci.left_index, (sup, sub)
                else:
                    with pytest.raises(DomainError, match="is not a subgroup of"):
                        sup.index_of(sub)
                seen.add(contained)
        assert seen == {True, False}


def test_two_row_hnf_matches_the_generic_loop():
    # the one-gcd-step branch for a 2x2 input against the row loop, which an
    # appended zero row reaches; singular inputs fall through to the loop
    full = 0
    for a, b, c, d in itertools.product(range(-6, 7), repeat=4):
        got = cg._row_hnf([[a, b], [c, d]], 2)
        assert got == cg._row_hnf([[a, b], [c, d], [0, 0]], 2), (a, b, c, d)
        full += len(got) == 2
    assert full == 13 ** 4 - 1313  # the singular ones reduce to fewer rows


class TestCommIndex:
    def test_examples(self):
        ci = comm_index(Z, RationalCyclic(3, 2))
        assert (ci.left_index, ci.right_index, ci.value) == (3, 2, 6)
        assert comm_index(Z2, Z2).value == 1
        assert comm_index(cyclic(2), cyclic(3)).value == 6

    def test_against_z_formula(self):
        # against Z the index of (a/b)Z is exactly a*b
        rng = random.Random(2)
        for _ in range(300):
            h = cg._random_cyclic(rng)
            assert comm_index(Z, h).value == h.a * h.b

    def test_value_product_invariant(self):
        rng = random.Random(23)
        for _ in range(100):
            A, B = cg._random_lattice(rng), cg._random_lattice(rng)
            ci = comm_index(A, B)
            assert ci.value == ci.left_index * ci.right_index

    @staticmethod
    def stacked_pivots(A, B):
        # [A : A & B] = det B' / det(A' + B') over the common denominator, with
        # det(A' + B') the product of the pivots of one row reduction of the stack
        q = math.lcm(A.denom, B.denom)
        Aq, Bq = integer_basis(A, q), integer_basis(B, q)
        total = diagonal_product(cg._row_hnf([*Aq, *Bq], A.dim))
        return diagonal_product(Bq) // total, diagonal_product(Aq) // total

    @pytest.mark.parametrize("denoms", [(1, 1), (2, 3), (4, 6), (2, 4), (3, 1)],
                             ids=["1-1", "2-3", "4-6", "2-4", "3-1"])
    def test_plane_indices_match_stacked_pivots(self, denoms):
        # every ordered pair of 2x2 HNFs of determinant <= 8; the closed-form
        # plane intersection against the stacked 4x4 reduction too; in 2-4
        # and 3-1 only one side is rescaled to the common denominator
        hnfs = [((a, v), (0, k // a)) for k in range(1, 9) for a in divisors(k)
                for v in range(k // a)]
        assert len(hnfs) == sum(sigma(k) for k in range(1, 9))
        for H, K in itertools.product(hnfs, repeat=2):
            A, B = RationalLattice(2, denoms[0], H), RationalLattice(2, denoms[1], K)
            ci = comm_index(A, B)
            assert (ci.left_index, ci.right_index) == self.stacked_pivots(A, B), (A, B)
            q = math.lcm(A.denom, B.denom)
            stacked = cg._intersect_integer(integer_basis(A, q), integer_basis(B, q))
            assert A.intersection(B) == RationalLattice._from_hnf(2, q, stacked), (A, B)

    def test_plane_indices_exact_past_int64(self):
        rng = random.Random(30)
        for _ in range(200):
            A, B = random_lattice_pair(rng, 2, entry=2 ** 70, denom=12)
            ci = comm_index(A, B)
            assert (ci.left_index, ci.right_index) == self.stacked_pivots(A, B), (A, B)
            assert max(abs(v) for row in A.basis + B.basis for v in row) > 2 ** 63


class TestMetric:
    def test_distance_zero_iff_equal(self):
        assert distance(Z, Z) == 0.0
        assert distance(cyclic(2), cyclic(2)) == 0.0
        assert distance(cyclic(2), cyclic(3)) == pytest.approx(math.log(6))

    def test_triangle_equality_through_z(self):
        lhs = distance(cyclic(2), cyclic(3))
        rhs = distance(cyclic(2), Z) + distance(Z, cyclic(3))
        assert lhs == pytest.approx(rhs)

    def test_full_suite_seeded(self):
        reports = run_metric_checks(samples=200, seed=42)
        assert len(reports) == 10
        assert all(r.holds for r in reports)

    def test_suite_is_deterministic(self):
        a = run_metric_checks(samples=50, seed=9)
        b = run_metric_checks(samples=50, seed=9)
        assert a == b

    def test_samples_guard(self, monkeypatch):
        # 10^5 itself takes about a minute, so the boundary is pinned on a
        # lowered guard, which is read when the suite is asked for
        with pytest.raises(ResourceLimitError) as caught:
            run_metric_checks(samples=10 ** 5 + 1)
        assert str(caught.value) == "sample count 100001 exceeds guard 100000"
        with pytest.raises(ResourceLimitError) as caught:
            run_metric_checks(samples=10 ** 4000)
        assert str(caught.value) == "sample count about 10^4000 exceeds guard 100000"
        monkeypatch.setattr(cg, "MAX_SAMPLES", 3)
        assert all(r.holds for r in run_metric_checks(samples=3))
        with pytest.raises(ResourceLimitError):
            run_metric_checks(samples=4)


class TestGeodesic:
    def test_generic_path_through_intersection(self):
        path = geodesic(cyclic(2), cyclic(3))
        assert path.vertices == (cyclic(2), cyclic(6), cyclic(3))
        assert path.length == 6

    def test_descending_only(self):
        path = geodesic(Z, cyclic(4))
        assert path.vertices == (Z, cyclic(4))
        assert path.length == 4

    def test_point_path(self):
        path = geodesic(Z, Z)
        assert path.vertices == (Z,)
        assert path.length == 1

    def test_length_equals_comm_index(self):
        # the edges through A & B are indexed independently of the
        # intersection, so a wrong intersection changes the product
        rng = random.Random(77)
        for _ in range(200):
            A, B = cg._random_lattice(rng), cg._random_lattice(rng)
            path = geodesic(A, B)
            edges = zip(path.vertices, path.vertices[1:])
            assert path.length == math.prod(comm_index(u, v).value for u, v in edges)


class TestChains:
    def test_examples(self):
        assert chain_length([cyclic(4), cyclic(2), Z]) == 4
        assert chain_length([Z]) == 1
        assert chain_length([cyclic(12), cyclic(6), cyclic(3)]) == 4

    def test_rejects_non_nested(self):
        with pytest.raises(DomainError):
            chain_length([cyclic(2), cyclic(3)])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            chain_length([])

    @pytest.mark.parametrize("chain", [5, None])
    def test_rejects_non_iterable(self, chain):
        with pytest.raises(DomainError) as caught:
            chain_length(chain)
        assert str(caught.value) == f"chain must be iterable, got {chain}"

    def test_random_chains_hit_endpoint_index(self):
        rng = random.Random(4)
        for _ in range(200):
            chain = cg._random_chain(rng, cg._random_lattice)
            assert chain_length(chain) == comm_index(chain[0], chain[-1]).value


class TestSamplers:
    # sha256 of the first 50 cyclic, lattice and chain samples, one line
    # each, then the next rng.random(): what run_metric_checks draws
    @pytest.mark.parametrize("seed, digests, after", [
        (0, ("ddd65055fbeb9ace", "d5feda1d1e214260", "a8bb30b0582bf448"), 0.09873043616313526),
        (1, ("71f59fd567f26772", "e175e81787c64e28", "95d4f3eee1fe6bca"), 0.3171107762636095),
        (2, ("7e9130ac1c0a291b", "6bd747dab44dc17c", "dc6d4169cf7eba3d"), 0.8377837511392343),
    ])
    def test_draws_pinned(self, seed, digests, after):
        rng = random.Random(seed)
        got = []
        for draw in (cg._random_cyclic, cg._random_lattice,
                     lambda r: cg._random_chain(r, cg._random_lattice)):
            text = "\n".join(str(draw(rng)) for _ in range(50))
            got.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        assert (tuple(got), rng.random()) == (digests, after)

    # the same shape for the cyclic chains, which the suite draws too
    @pytest.mark.parametrize("seed, digest, after", [
        (0, "e3b85705213cdaef", 0.19045993029254593),
        (1, "a114a7012106b8cc", 0.11468936216224745),
        (2, "244ae26a09d185de", 0.2843593509803859),
    ])
    def test_cyclic_chain_draws_pinned(self, seed, digest, after):
        rng = random.Random(seed)
        text = "\n".join(str(cg._random_chain(rng, cg._random_cyclic)) for _ in range(50))
        assert (hashlib.sha256(text.encode()).hexdigest()[:16], rng.random()) == (digest, after)

    @pytest.mark.parametrize("seed, after", [
        (0, 0.8768405645756486), (1, 0.006401242239479132), (2, 0.251312857159803),
    ])
    def test_suite_draws_pinned(self, monkeypatch, seed, after):
        # the suite's one generator, caught as it is made: its next random()
        # moves if any draw of the suite is skipped, added or reordered
        made = []

        class Recording(random.Random):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(random, "Random", Recording)
        run_metric_checks(20, seed)
        assert len(made) == 1 and made[0].random() == after

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_unchecked_lattices_are_canonical(self, dim):
        # the samplers and intersection hand a known HNF to _from_hnf, which
        # skips the constructor's checks: each value must be the one the
        # public constructor builds from the same fields, and, since both
        # share the content strip, have no common content left; chains are
        # drawn at dim 2 only, the one lattice dimension the suite chains
        rng = random.Random(40 + dim)
        sample = functools.partial(cg._random_lattice, dim=dim)
        built = []
        for _ in range(150):
            A, B = sample(rng), sample(rng)
            built += [A, B, A.intersection(B)]
            if dim == 2:
                built += cg._random_chain(rng, sample)
        for L in built:
            again = RationalLattice(L.dim, L.denom, L.basis)
            assert (L.dim, L.denom, L.basis) == (again.dim, again.denom, again.basis)
            assert L == again and hash(L) == hash(again)
            flat = [v for row in L.basis for v in row]
            assert all(type(v) is int for v in flat) and math.gcd(L.denom, *flat) == 1


# The samplers as they drew before _below and the plane closed forms: Random's own
# choice and randrange, the generic _row_hnf entry point and _from_hnf's row lists.
OLD_ENTRIES = tuple(range(-4, 5))
OLD_CHAIN_STEPS = {k: [((a, v), (0, k // a)) for a in range(1, k + 1) if k % a == 0
                       for v in range(k // a)] for k in range(1, 5)}


def old_random_cyclic(rng):
    return RationalCyclic._reduced(rng.randrange(60) + 1, rng.randrange(60) + 1)


def old_random_lattice(rng, dim=2):
    while True:
        hnf = cg._row_hnf(list(zip(*[map(rng.choice, [OLD_ENTRIES] * (dim * dim))] * dim)), dim)
        if len(hnf) == dim:
            return RationalLattice._from_hnf(dim, rng.randrange(6) + 1, hnf)


def old_random_chain(rng, sample):
    desc = [sample(rng)]
    for _ in range(rng.randrange(4) + 1):
        last = desc[-1]
        if isinstance(last, RationalCyclic):
            desc.append(RationalCyclic._reduced(last.a * (rng.randrange(4) + 1), last.b))
        else:
            (a, v), (_, d) = rng.choice(OLD_CHAIN_STEPS[rng.randrange(4) + 1])
            (p, u), (_, r) = last.basis
            step = [[a * p, (a * u + v * r) % (d * r)], [0, d * r]]
            desc.append(RationalLattice._from_hnf(2, last.denom, step))
    return list(reversed(desc))


class TestSamplersAgainstOldDraws:
    @pytest.mark.parametrize("seed", range(5))
    def test_below_is_randbelow(self, seed):
        mine, theirs = random.Random(seed), random.Random(seed)
        for k in range(1, 71):
            assert [cg._below(mine.getrandbits, k) for _ in range(20)] == \
                [theirs._randbelow(k) for _ in range(20)], k
        assert mine.getstate() == theirs.getstate()

    @pytest.mark.parametrize("new, old", [
        (cg._random_cyclic, old_random_cyclic),
        (cg._random_lattice, old_random_lattice),
        (functools.partial(cg._random_lattice, dim=1),
         functools.partial(old_random_lattice, dim=1)),
        (functools.partial(cg._random_lattice, dim=3),
         functools.partial(old_random_lattice, dim=3)),
        (lambda r: cg._random_chain(r, cg._random_cyclic),
         lambda r: old_random_chain(r, old_random_cyclic)),
        (lambda r: cg._random_chain(r, cg._random_lattice),
         lambda r: old_random_chain(r, old_random_lattice)),
    ], ids=["cyclic", "dim2", "dim1", "dim3", "cyclic-chain", "lattice-chain"])
    @pytest.mark.parametrize("seed", range(5))
    def test_equal_values_and_stream(self, new, old, seed):
        # equal values of one type, with equal fields, and the generator left
        # in the same state: its next random() is the same
        def fields(x):  # a chain is a list of values
            return [fields(v) for v in x] if isinstance(x, list) else (type(x), vars(x))

        mine, theirs = random.Random(seed), random.Random(seed)
        got, want = [new(mine) for _ in range(2000)], [old(theirs) for _ in range(2000)]
        assert fields(got) == fields(want)
        assert mine.random() == theirs.random()

    def test_plane_is_from_hnf(self):
        # random plane HNFs ((a, b), (0, c)) over random denominators, each
        # scaled by a random content, so the strip runs on about half of them
        rng, stripped = random.Random(7), 0
        for _ in range(5000):
            a, c, t = rng.randint(1, 40), rng.randint(1, 40), rng.choice([1, 1, 2, 3, 6, 35])
            b, denom = rng.randrange(c), rng.randint(1, 40)
            got = RationalLattice._plane(denom * t, a * t, b * t, c * t)
            want = RationalLattice._from_hnf(2, denom * t, [[a * t, b * t], [0, c * t]])
            assert (type(got), vars(got), hash(got)) == (type(want), vars(want), hash(want))
            stripped += math.gcd(denom * t, a * t, b * t, c * t) > 1
        assert 2000 < stripped < 4000


class TestBallEnumeration:
    def test_cyclic_ball_examples(self):
        ball = enumerate_ball(Z, 6)
        assert len(ball) == 13
        assert sum(1 for s in ball if comm_index(Z, s).value == 6) == 4

    def test_lattice_ball_examples(self):
        assert enumerate_ball(Z2, 1) == [Z2]
        ball = enumerate_ball(Z2, 2)
        assert len(ball) == 7
        subs = [s for s in ball if Z2.contains(s) and s != Z2]
        sups = [s for s in ball if s.contains(Z2) and s != Z2]
        assert len(subs) == 3 and len(sups) == 3
        assert all(Z2.index_of(s) == 2 for s in subs)
        assert all(s.index_of(Z2) == 2 for s in sups)

    def test_ball_matches_series(self):
        series = growth_series_rank1(60)
        for n in range(1, 61):
            assert len(enumerate_ball(Z, n)) == series.C[n - 1]

    def test_dim1_lattice_ball_matches_cyclic(self):
        # the same members around Z and around (3/2)Z, in either family
        for a, b in ((1, 1), (3, 2)):
            one = RationalLattice.from_rows([[a]], denom=b)
            for n in range(1, 40):
                lattices, cyclics = enumerate_ball(one, n), enumerate_ball(RationalCyclic(a, b), n)
                assert {type(s) for s in lattices} == {RationalLattice}
                assert {type(s) for s in cyclics} == {RationalCyclic}
                assert len(lattices) == len(cyclics)
                assert {(s.denom, s.basis) for s in lattices} == \
                    {(s.denom, s.basis) for s in cyclics}

    def test_ball_transport_to_other_basepoint(self):
        # scaling is an automorphism, so the index census around any
        # cyclic basepoint matches the census around Z
        gamma = RationalCyclic(3, 2)
        for n in (4, 6, 10):
            ball = enumerate_ball(gamma, n)
            assert len(ball) == len(enumerate_ball(Z, n))
            values = sorted(comm_index(gamma, s).value for s in ball)
            assert values == sorted(comm_index(Z, s).value
                                    for s in enumerate_ball(Z, n))
            assert all(v <= n for v in values)

    def test_sublattice_count_oracle(self):
        # index-k sublattices of Z^2 are counted by sigma(k): in the ball of
        # radius 30 around Z^2 they are the members inside Z^2 of index k
        counts = [0] * 31
        for L in enumerate_ball(Z2, 30):
            if Z2.contains(L):
                counts[Z2.index_of(L)] += 1
        assert counts[1:] == [sigma(k) for k in range(1, 31)]
        assert cg._sublattice_counts(2, 30)[1:].tolist() == counts[1:]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_hnf_stack_oracle(self, dim):
        # the stack, read as (N, dim, dim) matrices, is the brute HNF list as a
        # set, with no row repeated and det the pivot product; its count a(m)
        # of each determinant m is the zeta recurrence's, and at dim 2 it is
        # sigma(m); _sublattice_counts, which _ball_keys guards before it
        # builds the stack, must give that a(m); and the candidate totals
        # sum a(i)*A(m // i) over i <= m must equal the oracle's count
        n = {1: 1000, 2: 64, 3: 41}[dim]
        columns, det = cg._hnf_stack(dim, n)
        assert set(columns) == set(itertools.combinations_with_replacement(range(dim), 2))
        assert all(col.dtype == det.dtype == np.int64 and col.shape == det.shape
                   for col in columns.values())
        stack = zip(det.tolist(), square_stack(columns, dim).tolist())
        assert sorted((m, tuple(map(tuple, H))) for m, H in stack) == \
            sorted((m, H) for H, m in hnf_matrices(dim, n))
        a = np.bincount(det, minlength=n + 1)
        A = np.cumsum(a)
        assert a.tolist() == list(sublattice_counts(dim, n))
        assert cg._sublattice_counts(dim, n).tolist() == a.tolist()
        for m in range(1, n + 1):
            assert candidate_count(dim, m) == sum(a[i] * A[m // i] for i in range(1, m + 1))
        if dim == 2:
            assert a[1:].tolist() == [sigma(m) for m in range(1, n + 1)]

    # Macdonald counts of the ball around Z^d, the same around every
    # basepoint by transport; the two non-standard lattices are
    # _random_lattice(Random(0), d) for d = 2, 3
    @pytest.mark.parametrize("gamma, n, size", [
        (Z, 1000, 4987),
        (Z2, 31, 3541),
        (RationalLattice.standard(3), 8, 1395),
        (RationalLattice.from_rows([[2, 2], [0, 4]], denom=5), 31, 3541),
        (RationalLattice.from_rows([[2, 0, 3], [0, 2, 10], [0, 0, 17]], denom=3), 5, 215),
        (BIG2, 31, 3541),
    ], ids=["Z-1000", "Z2-31", "Z3-8", "gamma2-31", "gamma3-5", "big2-31"])
    def test_ball_size_pinned(self, gamma, n, size):
        assert len(enumerate_ball(gamma, n)) == size == ball_sizes(gamma.dim)[n]

    def test_ball_duplicate_free_and_value_closed(self):
        for n in (3, 4, 6, 31):
            ball = enumerate_ball(Z2, n)
            assert len(set(ball)) == len(ball)
            assert all(comm_index(Z2, L).value <= n for L in ball)

    def test_ball_complete_against_undeduplicated_search(self):
        # independent route: collect every (sublattice, overlattice)
        # candidate of radius 2n around the basepoint itself, without
        # transport from Z^d, keep those whose comm_index value is at
        # most n, and deduplicate as a set
        gamma2, gamma3 = (cg._random_lattice(random.Random(0), dim) for dim in (2, 3))
        assert all(g.denom > 1 and g.basis[0][-1] != 0 for g in (gamma2, gamma3))
        for gamma, n in ((Z2, 6), (gamma2, 6), (gamma3, 4), (BIG2, 4)):
            assert undeduplicated_ball(gamma, n) == set(enumerate_ball(gamma, n)), gamma

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_overlattice_frames_against_brute_filter(self, dim):
        # the members of the ball that hold Z^dim with index j are the
        # lattices (1/j)*K, K of determinant j**(dim-1) holding each j*e_t
        Zd = RationalLattice.standard(dim)
        over = {}
        for L in enumerate_ball(Zd, 8):
            if L.contains(Zd):
                over.setdefault(L.index_of(Zd), set()).add(L)
        assert sorted(over) == list(range(1, 9))
        for j in range(1, 9):
            assert over[j] == overlattices(dim, j), (dim, j)
            assert len(over[j]) == sublattice_counts(dim)[j]

    def test_ball_sorted_deterministic(self):
        ball = enumerate_ball(Z2, 4)
        assert ball == sorted(ball, key=lambda s: s.sort_key())
        assert ball == enumerate_ball(Z2, 4)

    # around Z^d the keys come sorted, and the image of the ball under x -> x*gamma is
    # sorted afresh: a cyclic basepoint by (a, b), a lattice by (denom, basis)
    @pytest.mark.parametrize("gamma, n", [
        (Z, 1000), (cyclic(3, 2), 1000), (cyclic(1, 12), 300), (Z2, 31),
        (RationalLattice.from_rows([[2, 2], [0, 4]], denom=5), 31), (BIG2, 12),
        (RationalLattice.from_rows([[2, 0, 3], [0, 2, 10], [0, 0, 17]], denom=3), 5),
    ], ids=["Z", "3/2", "1/12", "Z2", "gamma2", "big2", "gamma3"])
    def test_ball_sorted_around_every_basepoint(self, gamma, n):
        ball = enumerate_ball(gamma, n)
        keys = [s.sort_key() for s in ball]
        assert keys == sorted(set(keys))

    def test_lattice_entry_guard(self):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="guard is 1000000"):
            RationalLattice.standard(10 ** 18)
        assert time.perf_counter() - start < 0.1
        with pytest.raises(ResourceLimitError) as caught:
            RationalLattice.standard(1001)
        assert str(caught.value) == "dimension 1001 needs 1002001 basis entries, guard is 1000000"
        side = math.isqrt(cg.MAX_LATTICE_ENTRIES)
        assert RationalLattice.standard(side).basis[-1] == (0,) * (side - 1) + (1,)
        with pytest.raises(ResourceLimitError):
            RationalLattice.scaled(side + 1, 2)

    def test_resource_guards(self, monkeypatch):
        with pytest.raises(ResourceLimitError):
            enumerate_ball(RationalLattice.standard(4), 2)
        with pytest.raises(ResourceLimitError):
            enumerate_ball(Z, 10 ** 6)
        with pytest.raises(DomainError):
            enumerate_ball(Z, 0)
        # past CPython's 4300-digit int->str limit the message shows the size
        with pytest.raises(ResourceLimitError) as caught:
            enumerate_ball(Z, 10 ** 5000)
        assert str(caught.value) == "ball bound about 10^5000 exceeds guard 1000"
        with pytest.raises(DomainError) as caught:
            enumerate_ball(Z, -10 ** 5000)
        assert str(caught.value) == "ball radius must be >= 1, got about -10^5000"
        # the guard is a module constant read when the ball is asked for
        monkeypatch.setattr(cg, "MAX_BALL_RADIUS", 3)
        assert len(enumerate_ball(Z, 3)) == 5
        with pytest.raises(ResourceLimitError) as caught:
            enumerate_ball(Z, 4)
        assert str(caught.value) == "ball bound 4 exceeds guard 3"
        with pytest.raises(TypeError):
            enumerate_ball(Z, 3, max_bound=3)

    @pytest.mark.parametrize("n", [2.5, "3"])
    def test_radius_must_be_an_int(self, n):
        with pytest.raises(DomainError) as caught:
            enumerate_ball(Z, n)
        assert str(caught.value) == f"ball radius must be an integer, got {n!r}"

    def test_numpy_integer_radius_is_an_int(self):
        # any operator.index value is a radius, converted to int before the
        # guards do arithmetic on it; a float is refused, also by the CLI
        assert enumerate_ball(BIG2, np.int64(5)) == enumerate_ball(BIG2, 5)
        assert enumerate_ball(Z, np.uint8(200)) == enumerate_ball(Z, 200)
        with pytest.raises(ResourceLimitError) as caught:
            enumerate_ball(Z2, np.int64(214))
        assert str(caught.value) == "301163 ball candidates exceed guard 300000"
        with pytest.raises(DomainError) as caught:
            enumerate_ball(Z2, np.float64(2.5))
        assert str(caught.value) == "ball radius must be an integer, got 2.5"
        with pytest.raises(SystemExit) as caught:
            main(["ball", "--family", "lattice", "--dim", "2", "--n", "2.5"])
        assert caught.value.code == 2

    def test_candidate_guard(self, monkeypatch):
        # the guard is a module constant read when the ball is asked for
        monkeypatch.setattr(cg, "MAX_BALL_CANDIDATES", 3947)
        assert len(enumerate_ball(Z2, 31)) == 3541
        with pytest.raises(ResourceLimitError) as caught:
            enumerate_ball(BIG2, 32)
        assert str(caught.value) == "4469 ball candidates exceed guard 3947"
        # the guarded value is the oracle's count of the candidates (relation,
        # frame): _ball_census counts it and admits it at that budget, where a
        # small ball is built with its zeta size, and one below it the kernel
        # refuses, with the count in its message
        for dim, ns in ((1, [*range(2, 41), 1000]), (2, [*range(2, 41), 213, 603]),
                        (3, [*range(2, 13), 41, 76])):
            for n in ns:
                count = candidate_count(dim, n)
                monkeypatch.setattr(cg, "MAX_BALL_CANDIDATES", count)
                assert cg._ball_census(n, dim)[3](n) == count
                if n <= 40:
                    assert len(cg._ball_keys(n, dim)) == ball_sizes(dim)[n]
                monkeypatch.setattr(cg, "MAX_BALL_CANDIDATES", count - 1)
                with pytest.raises(ResourceLimitError) as caught:
                    cg._ball_keys(n, dim)
                assert str(caught.value) == f"{count} ball candidates exceed guard {count - 1}"

    # the edges of the one candidate guard, by the oracle's count: it admits
    # 213 and 41, the largest radii whose count is within the guard, and
    # refuses the next radius by the exact count. At the largest radius, 1000,
    # the dim-1 ball is admitted, and (3, 1000) has the most candidates of any
    # dimension and radius that _check_ball lets through, past 2^32, so its
    # count shows no wrap. An admitted ball is built, with its zeta size
    @pytest.mark.parametrize("dim, n, message", [
        (1, 1000, None),
        (2, 213, None), (2, 214, "301163 ball candidates exceed guard 300000"),
        (2, 603, "2926935 ball candidates exceed guard 300000"),
        (2, 604, "2933927 ball candidates exceed guard 300000"),
        (2, 1000, "8704350 ball candidates exceed guard 300000"),
        (3, 41, None), (3, 42, "327610 ball candidates exceed guard 300000"),
        (3, 76, "2177392 ball candidates exceed guard 300000"),
        (3, 77, "2207716 ball candidates exceed guard 300000"),
        (3, 1000, "8172554483 ball candidates exceed guard 300000"),
    ], ids=["1-1000", "2-213", "2-214", "2-603", "2-604", "2-1000", "3-41", "3-42", "3-76",
            "3-77", "3-1000"])
    def test_candidate_guard_edges(self, dim, n, message):
        count = candidate_count(dim, n)
        if message is None:
            assert cg._ball_census(n, dim)[3](n) == count <= cg.MAX_BALL_CANDIDATES
            assert n == cg.MAX_BALL_RADIUS or candidate_count(dim, n + 1) > cg.MAX_BALL_CANDIDATES
            assert len(cg._ball_keys(n, dim)) == ball_sizes(dim)[n]
            return
        assert message == f"{count} ball candidates exceed guard {cg.MAX_BALL_CANDIDATES}"
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError) as caught:
                cg._ball_keys(n, dim)
            seconds.append(time.perf_counter() - start)
            assert str(caught.value) == message
        assert min(seconds) < 0.1

    # the exact count is refused before anything is built, so nothing is
    # sorted either: the refusal peaks at the count's arrays alone, below
    # 512 KiB, where the sublattices alone, at one int64 per entry and
    # determinant, would take 1.2-26 MB at these radii
    @pytest.mark.parametrize("dim, n", [(2, 214), (2, 603), (2, 1000), (3, 42), (3, 76)],
                             ids=["2-214", "2-603", "2-1000", "3-42", "3-76"])
    def test_candidate_refusal_sorts_nothing(self, dim, n):
        stack = 8 * (1 + dim * (dim + 1) // 2) * sum(sublattice_counts(dim)[:n + 1])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="ball candidates exceed"):
                cg._ball_keys(n, dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024 < stack // 2

    # the largest admitted ball of each dimension, and every radius to 40; the
    # cyclic oracle's rows (b, a) of the members (a/b)Z, sorted by (a, b), are
    # the dim-1 keys reversed: (a/b)Z and (b/a)Z lie at one index a*b from Z
    @pytest.mark.parametrize("dim, edge", [(None, 1000), (1, 1000), (2, 213), (3, 41)],
                             ids=["cyclic", "dim1", "dim2", "dim3"])
    def test_keys_against_lexsort(self, dim, edge):
        d = dim or 1  # the oracle's columns of q and of the upper triangle
        upper = [0] + [1 + r * d + c for r in range(d) for c in range(r, d)]
        for n, want in lexsort_ball_keys(dim, [*range(1, 41), edge]):
            keys = cg._ball_keys(n, d)
            assert keys.dtype == np.int64
            assert np.array_equal(keys, (want if dim else want[:, ::-1])[:, upper]), n

    @pytest.mark.parametrize("dim, edge", [(1, 1000), (2, 213), (3, 41)],
                             ids=["dim1", "dim2", "dim3"])
    def test_sort_code_fits_int64(self, dim, edge):
        # the mixed-radix code of the largest admitted ball stays below 2^63,
        # and far below it: under the bound (n + 1) * (dim*n + 1)^(entries)
        keys = cg._ball_keys(edge, dim)
        size = math.prod(int(col.max()) + 1 for col in keys.T)
        assert size <= (edge + 1) * (dim * edge + 1) ** (dim * (dim + 1) // 2) < 2 ** 63

    @pytest.mark.parametrize("dim, n", [(1, 1000), (2, 213), (3, 41)],
                             ids=["dim1", "dim2", "dim3"])
    def test_int64_exact_at_guard_edge(self, dim, n):
        # the frames and products of the largest admitted ball, recomputed in
        # Python ints, equal the int64 kernel's and stay within the bounds
        # _ball_keys proves: every adjugate term, partial sum and entry at most
        # 2^(dim-2)*n, every frame entry at most 2^(dim-2)*j, every product term
        # at most 2^(dim-2)*n and entry at most B = dim*2^(dim-2)*n in size, and
        # a reduction of entries of size at most B below (B + 1)^dim
        R, det = cg._hnf_stack(dim, n)
        order = det.argsort(kind="stable")
        R, det = {rc: col[order] for rc, col in R.items()}, det[order]
        H, j = {rc: col.astype(object) for rc, col in R.items()}, det.astype(object)
        adj, sizes = {}, [0]
        for r in range(dim - 1, -1, -1):
            adj[r, r] = j // H[r, r]
            for x in range(r + 1, dim):
                total = 0
                for c in range(r + 1, x + 1):
                    term = H[r, c] * adj[c, x]
                    total = total + term
                    sizes += [abs(term).max(), abs(total).max()]
                adj[r, x] = -total // H[r, r]
        bound = 2 ** max(dim - 2, 0) * n
        assert max(sizes + [abs(v).max() for v in adj.values()]) <= bound
        frames = {(r, c): adj[dim - 1 - c, dim - 1 - r] for r, c in adj}
        F = cg._frames(R, det)
        assert all(np.array_equal(frames[rc], F[rc]) for rc in F)
        assert all((abs(col) <= 2 ** max(dim - 2, 0) * det).all() for col in F.values())
        counts = np.searchsorted(det, n // det, side="right")
        rel_of = np.repeat(np.arange(len(det)), counts)
        frame_of = np.arange(len(rel_of)) - np.repeat(np.cumsum(counts) - counts, counts)
        # 0 <= R_tc <= i, so each term has size at most 2^(dim-2)*i*j <= 2^(dim-2)*n
        assert min(col.min() for col in R.values()) >= 0
        P = {}
        for r, c in itertools.combinations_with_replacement(range(dim), 2):
            terms = [F[r, t][frame_of].astype(object) * R[t, c][rel_of].astype(object)
                     for t in range(r, c + 1)]
            assert max(abs(term).max() for term in terms) <= bound
            P[r, c] = sum(terms)
            assert abs(P[r, c]).max() <= dim * bound
        assert reduced_in_ints(P, dim) < (dim * bound + 1) ** dim < 2 ** 63
        # over q = 1 no content is divided out: the key columns are the reduced products
        keys = cg._triangular_canonical(np.ones(len(rel_of), np.int64),
                                        lambda r, t: F[r, t][frame_of],
                                        lambda t, c: R[t, c][rel_of], dim)
        assert keys.dtype == np.int64 and np.array_equal(keys[1:], [P[rc] for rc in sorted(P)])

    def test_sort_code_guard(self, monkeypatch):
        # a key range that could reach 2^63 is refused, not wrapped; the
        # canonical form hands the keys over as columns
        big = np.array([[2 ** 40, 2 ** 22, 0, 1]] * 2, dtype=np.int64)
        monkeypatch.setattr(cg, "_triangular_canonical", lambda *args: big.T)
        with pytest.raises(ResourceLimitError) as caught:
            cg._ball_keys(2, 2)
        size = (2 ** 40 + 1) * (2 ** 22 + 1) * 2
        assert str(caught.value) == f"ball sort code range {size} exceeds guard {2 ** 63}"
        big[:, 1] = 2 ** 21
        assert np.array_equal(cg._ball_keys(2, 2), big[:1])

    def test_radius_guard_boundary(self):
        assert len(enumerate_ball(Z, 1000)) == growth_series_rank1(1000).C[-1]
        with pytest.raises(ResourceLimitError) as caught:
            enumerate_ball(Z, 1001)
        assert str(caught.value) == "ball bound 1001 exceeds guard 1000"

    def test_dimension_guard_boundary(self):
        Z3 = RationalLattice.standard(3)
        assert enumerate_ball(Z3, 1) == [Z3]
        with pytest.raises(ResourceLimitError) as caught:
            enumerate_ball(RationalLattice.standard(4), 1)
        assert str(caught.value) == "lattice dimension 4 exceeds guard 3"


class TestBallCache:
    """_ball_keys builds the keys of each admitted (n, dim) once and hands the
    same read-only array to every later call, within MAX_BALL_CACHE_BYTES."""

    @staticmethod
    def held():
        """The cached (n, dim) pairs, least recently used first, and the
        held bytes, checked against the sizes of the cached arrays."""
        assert cg._ball_cache_bytes == sum(keys.nbytes for keys in cg._ball_cache.values())
        return list(cg._ball_cache), cg._ball_cache_bytes

    def test_second_call_is_the_same_array(self):
        keys = cg._ball_keys(6, 2)
        assert cg._ball_keys(6, 2) is keys
        assert self.held() == ([(6, 2)], keys.nbytes)
        upper = list(itertools.combinations_with_replacement(range(2), 2))
        want = sorted([L.denom, *(L.basis[r][c] for r, c in upper)]
                      for L in undeduplicated_ball(Z2, 6))
        assert keys.tolist() == want and len(want) == ball_sizes(2)[6]

    def test_integer_kinds_share_one_entry(self):
        keys = cg._ball_keys(5, 2)
        assert cg._ball_keys(np.int64(5), 2) is keys
        assert cg._ball_keys(5, np.int64(2)) is keys
        assert cg._ball_keys(np.uint8(5), np.int32(2)) is keys
        line = cg._ball_keys(True, True)
        assert cg._ball_keys(1, 1) is line and cg._ball_keys(np.int64(1), True) is line
        space = cg._ball_keys(5, 3)
        assert space is not keys and len(space) == ball_sizes(3)[5] != len(keys)
        assert self.held()[0] == [(5, 2), (1, 1), (5, 3)]
        assert all(type(v) is int for key in cg._ball_cache for v in key)

    # a hit is checked as a miss is: each guard, read at call time, refuses
    # a kept ball with its usual message, and it is served again once the
    # guard is back
    @pytest.mark.parametrize("guard, value, message", [
        ("MAX_BALL_CANDIDATES", candidate_count(2, 31) - 1,
         f"{candidate_count(2, 31)} ball candidates exceed guard {candidate_count(2, 31) - 1}"),
        ("MAX_BALL_RADIUS", 30, "ball bound 31 exceeds guard 30"),
        ("MAX_BALL_DIM", 1, "lattice dimension 2 exceeds guard 1"),
    ], ids=["candidates", "radius", "dim"])
    def test_hit_refused_past_a_lowered_guard(self, monkeypatch, guard, value, message):
        keys = cg._ball_keys(31, 2)
        with monkeypatch.context() as patch:
            patch.setattr(cg, guard, value)
            with pytest.raises(ResourceLimitError) as caught:
                cg._ball_keys(31, 2)
            assert str(caught.value) == message
            with pytest.raises(ResourceLimitError):
                enumerate_ball(Z2, 31)
        assert cg._ball_keys(31, 2) is keys

    def test_refusal_stores_nothing(self, monkeypatch):
        for n, dim, error in ((0, 2, DomainError), (2.5, 2, DomainError), (3, "2", DomainError),
                              (1001, 1, ResourceLimitError), (1, 4, ResourceLimitError),
                              (214, 2, ResourceLimitError), (42, 3, ResourceLimitError)):
            with pytest.raises(error):
                cg._ball_keys(n, dim)
        monkeypatch.setattr(cg, "MAX_BALL_CANDIDATES", candidate_count(2, 31) - 1)
        with pytest.raises(ResourceLimitError):
            enumerate_ball(Z2, 31)
        assert self.held() == ([], 0)

    def test_budget_lets_the_least_recently_used_go_first(self, monkeypatch):
        sizes = {nd: cg._ball_keys(*nd).nbytes for nd in ((5, 3), (30, 2), (950, 1), (64, 2))}
        empty_ball_cache()
        budget = sizes[5, 3] + sizes[30, 2] + 1000  # (950, 1) and (30, 2) never fit together
        assert sizes[5, 3] + sizes[950, 1] <= budget < sizes[30, 2] + sizes[950, 1] < sizes[64, 2]
        monkeypatch.setattr(cg, "MAX_BALL_CACHE_BYTES", budget)
        for nd, after in (((5, 3), [(5, 3)]), ((30, 2), [(5, 3), (30, 2)]),
                          ((5, 3), [(30, 2), (5, 3)]), ((950, 1), [(5, 3), (950, 1)]),
                          ((5, 3), [(950, 1), (5, 3)]), ((30, 2), [(5, 3), (30, 2)])):
            assert len(cg._ball_keys(*nd)) == ball_sizes(nd[1])[nd[0]]
            kept, held = self.held()
            assert kept == after and held <= budget
        # a ball larger than the whole budget is returned, and nothing is let go for it
        assert len(cg._ball_keys(64, 2)) == ball_sizes(2)[64]
        assert self.held() == ([(5, 3), (30, 2)], sizes[5, 3] + sizes[30, 2])

    def test_every_basepoint_shares_the_keys_around_z(self):
        moved = RationalLattice.from_rows([[2, 2], [0, 4]], denom=5)
        assert len(enumerate_ball(Z2, 12)) == ball_sizes(2)[12]
        (key,), _ = self.held()
        keys = cg._ball_cache[key]
        assert key == (12, 2) and cg._ball_keys(12, 2) is keys
        ball = enumerate_ball(moved, 12)
        assert self.held() == ([(12, 2)], keys.nbytes) and cg._ball_cache[12, 2] is keys
        assert len(ball) == ball_sizes(2)[12] and ball == sorted(ball, key=lambda L: L.sort_key())
        assert len(enumerate_ball(cyclic(3, 2), 12)) == ball_sizes(1)[12]
        assert self.held()[0] == [(12, 2), (12, 1)]

    def test_shared_arrays_cannot_be_made_writeable(self):
        # a cached array, every view of it and every array in its .base chain
        # refuse writeable = True: the chain ends at a bytes object, which
        # numpy never writes through
        from commgrowth.cli import _digit_groups
        for shared in (_digit_groups(), cg._ball_keys(30, 2), cg._ball_keys(5, 3)[:, 1:]):
            chain = [shared]
            while isinstance(chain[-1].base, np.ndarray):
                chain.append(chain[-1].base)
            assert type(chain[-1].base) is bytes
            for array in chain:
                with pytest.raises(ValueError):
                    array.flags.writeable = True
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = 9
        assert _digit_groups()[10000].tobytes() == b"0000"


class TestTransfer:
    def test_examples(self):
        assert check_transfer_inequality(Z, cyclic(2), 3).holds
        report = check_transfer_inequality(Z2, RationalLattice.scaled(2, 2), 2)
        assert report.holds

    def test_guards_go_to_the_balls(self):
        # c(Z, 2Z) = 2, so the second ball has radius 2n, past 1000 at n = 501
        assert check_transfer_inequality(Z, cyclic(2), 500).holds
        with pytest.raises(ResourceLimitError) as caught:
            check_transfer_inequality(Z, cyclic(2), 501)
        assert str(caught.value) == "ball bound 1002 exceeds guard 1000"
        Z4 = RationalLattice.standard(4)
        with pytest.raises(ResourceLimitError):
            check_transfer_inequality(Z4, Z4, 1)

    def test_transfer_counts_without_the_key_kernel(self, monkeypatch):
        # both sizes come from the candidate count: with the key kernel and
        # enumerate_ball made to raise, c(Z^2, 2Z + Z) = 2 at n = 150 is still
        # refused by the count of the larger ball, and an admitted transfer
        # gives the report the oracle's zeta sizes; neither builds a key, as
        # the tracemalloc peak shows: the smaller ball's keys alone take 0.75 MB
        def reached(*args, **kwargs):
            raise AssertionError("the key kernel was reached")
        for name in ("_ball_keys", "enumerate_ball"):
            monkeypatch.setattr(cg, name, reached)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as caught:
                check_transfer_inequality(Z2, RationalLattice.from_rows([[2, 0], [0, 1]]), 150)
            report = check_transfer_inequality(Z2, RationalLattice.from_rows([[2, 1], [0, 3]]), 35)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        assert str(caught.value) == "645434 ball candidates exceed guard 300000"
        assert candidate_count(2, 300) == 645434
        C = ball_sizes(2)
        assert (C[35], C[210]) == (4459, 249409)
        assert report == compare("ball_transfer", C[35], C[210], n=35, c_ab=6,
                                 left_card=C[35], right_card=C[210])
        assert type(report.lhs) is type(report.rhs) is int

    # the key lengths and the oracle's zeta sizes are the oracles of the
    # counted sizes, at every radius up to 64 (12 at d = 3) and at the edge
    # the candidate guard admits
    @pytest.mark.parametrize("dim, radii", [(1, [*range(1, 65), 1000]),
                                            (2, [*range(1, 65), 213]),
                                            (3, [*range(1, 13), 41])], ids=["1", "2", "3"])
    def test_sizes_are_key_lengths(self, dim, radii):
        Zd = RationalLattice.standard(dim)
        for n in radii:
            report = check_transfer_inequality(Zd, Zd, n)
            assert report.lhs == report.rhs == len(cg._ball_keys(n, dim)) == ball_sizes(dim)[n], n
            assert type(report.lhs) is type(report.rhs) is int
        if dim == 1:
            C = growth_series_rank1(1000).C
            assert all(check_transfer_inequality(Zd, Zd, n).lhs == C[n - 1] for n in radii)
            report = check_transfer_inequality(Z, cyclic(2, 3), 166)
            assert (report.lhs, report.rhs) == (C[165], C[995])

    def test_equal_basepoints_give_equal_balls(self):
        report = check_transfer_inequality(cyclic(3), cyclic(3), 5)
        assert report.holds and report.lhs == report.rhs

    def test_numpy_integer_radius_is_multiplied_as_an_int(self):
        # c(A,B)*n is guard arithmetic done before the second ball sees n:
        # in int64 it would wrap 4*(2**62 + 1) to 4 and pass
        with pytest.raises(ResourceLimitError) as caught:
            check_transfer_inequality(Z, cyclic(2 ** 62 + 1), np.int64(4))
        assert str(caught.value) == "ball bound about 10^19 exceeds guard 1000"
        assert check_transfer_inequality(Z, cyclic(2), np.int64(3)).rhs == 13

    def test_report_carries_cardinalities(self):
        report = check_transfer_inequality(Z, cyclic(2), 3)
        assert report.context["left_card"] == report.lhs
        assert report.context["right_card"] == report.rhs
        assert report.context["c_ab"] == 2

    @pytest.mark.parametrize("dim, budget", [(None, 64), (1, 64), (2, 23), (3, 4)])
    def test_ball_injects_into_the_transferred_ball(self, dim, budget):
        # ball(A, n) lies inside ball(B, c(A,B)*n) member by member; the
        # cardinalities that check_transfer_inequality compares cannot fail
        # while C_n is monotone, but this fails when transport or comm_index
        # goes wrong.  B is (1/q)*rel*A with det(rel), q <= 4, in either order
        rng = random.Random(21 + (dim or 0))
        H = [np.array(rel, dtype=object) for rel, _ in hnf_matrices(dim or 1, 4)]
        pairs = 0
        while pairs < 16:
            if dim is None:
                A = cyclic(rng.randint(1, 12), rng.randint(1, 12))
                B = cyclic(A.a * rng.randint(1, 4), A.b * rng.randint(1, 4))
            else:
                A = cg._random_lattice(rng, dim)
                rel = H[rng.randrange(len(H))]
                B = RationalLattice(dim, A.denom * rng.randint(1, 4), (rel @ A.basis).tolist())
            c_ab = comm_index(A, B).value
            if c_ab > budget:
                continue
            if rng.random() < 0.5:
                A, B = B, A
            n = rng.randint(1, budget // c_ab)
            assert set(enumerate_ball(A, n)) <= set(enumerate_ball(B, c_ab * n))
            pairs += 1

    def test_transfer_builds_no_member(self, monkeypatch):
        # both sizes are counted by transport from Z^d: with every member
        # construction made to raise, the report still carries the lengths of
        # both balls, on seeded pairs whose denominators are both > 1
        rng, cases = random.Random(23), []
        for dim, budget in ((None, 60), (1, 60), (2, 20), (3, 4)):
            H = [np.array(rel, dtype=object) for rel, _ in hnf_matrices(dim or 1, 3)]
            for _ in range(4):
                while True:
                    if dim is None:
                        A = cyclic(rng.randint(1, 12), rng.randint(1, 12))
                        B = cyclic(A.a * rng.randint(1, 3), A.b * rng.randint(1, 3))
                    else:
                        A = cg._random_lattice(rng, dim)
                        rel = H[rng.randrange(len(H))]
                        B = RationalLattice(dim, A.denom * rng.randint(1, 3),
                                            (rel @ A.basis).tolist())
                    c_ab = comm_index(A, B).value
                    denoms = (A.b, B.b) if dim is None else (A.denom, B.denom)
                    if min(denoms) > 1 and c_ab <= budget:
                        break
                n = rng.randint(1, budget // c_ab)
                cases.append((A, B, n, len(enumerate_ball(A, n)),
                              len(enumerate_ball(B, c_ab * n))))
                assert cases[-1][3:] == (ball_sizes(A.dim)[n], ball_sizes(A.dim)[c_ab * n])

        def built(*args, **kwargs):
            raise AssertionError("a ball member was built")
        monkeypatch.setattr(cg, "enumerate_ball", built)
        monkeypatch.setattr(cg.RationalLattice, "_canonical", classmethod(built))
        for A, B, n, left, right in cases:
            report = check_transfer_inequality(A, B, n)
            assert (report.lhs, report.rhs) == (left, right)
            assert (report.context["left_card"], report.context["right_card"]) == (left, right)
