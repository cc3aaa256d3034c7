#!/usr/bin/env python3
"""Generator matrices, code parameters, and brute-force verification."""

from tdcyclic import (GF, BiPoly, RingShape, bruteforce_ideal, code_params,
                      encode, extract_generators, generator_matrix,
                      min_distance, verify_generator_set, verify_matrix)

shape = RingShape(GF(2), 4, 2)
g = BiPoly(shape, [[1, 1], [1, 1], [0, 0], [0, 0]])  # (1+x)(1+y)
gs = extract_generators(shape, [g])

# The matrix rows are the x-shifts of each generating polynomial, one
# block per layer, flattened in codeword order.
gm = generator_matrix(gs)
print("generator matrix rows (label = (layer, shift)):")
for row, label in zip(gm.rows, gm.labels):
    print(f"  {label}: {row.tolist()}")

params = code_params(gs, with_distance=True)
print(f"\n[n, k, d] over GF({params.q}): [{params.n}, {params.k}, {params.d}]")

# Encoding is message-times-matrix.
msg = [1, 0, 1][:gm.k] + [0] * max(0, gm.k - 3)
word = encode(gm, msg)
print("message", msg, "->", word.tolist())
print("its weight:", int((word != 0).sum()), " (never below d =", params.d, ")")

# The oracle re-derives the code once, as the fixed-point closure of [g],
# and both reports check against that closure: it re-derives membership of
# every generating polynomial and matrix row, and the triangular and
# divisibility facts.  Span equality and the matrix rank it proves from the
# rows' distinct leading cells, without a second closure or elimination.
closure = bruteforce_ideal(shape, [g])
print("\nbrute-force dimension agrees:", closure.dimension == gm.k)
rep = verify_generator_set(gs, closure)
for c in rep.checks:
    print(f"  {c.name}: {'ok' if c.passed else 'FAIL'}")
rep2 = verify_matrix(gm, closure)
print("matrix checks all pass:", rep2.passed)

# the distance search is refused above a cap on q^k; desk-scale codes only
print("\nd recomputed with an explicit cap:", min_distance(gm, cap=1 << 12))
