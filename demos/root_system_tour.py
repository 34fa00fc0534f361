"""Census of every supported simple type.

The positive roots come from root-string closure over the Cartan matrix,
and the Weyl degrees are read off their heights, so N = sum(d_i - 1); the
group dimension is always 2N + rank.
"""

from commgrowth import root_system, supported_labels

print(f"{'type':>5} {'rank':>4} {'N':>4} {'dim':>4}  degrees")
for label in supported_labels():
    rs = root_system(label)
    print(f"{rs.label:>5} {rs.rank:>4} {rs.num_positive_roots:>4} "
          f"{rs.dimension:>4}  {list(rs.degrees)}")

print()
g2 = root_system("G2")
print("G2 positive roots (simple-root coordinates):", list(g2.positive_roots))
print("highest root:", g2.highest_root, "at height", sum(g2.highest_root))

print()
print("pairing against the fundamental coweights is the plain dot product:")
a2 = root_system("A2")
for root in a2.positive_roots:
    print(f"  <(1,1), {root}> = {a2.pairing((1, 1), root)}")
