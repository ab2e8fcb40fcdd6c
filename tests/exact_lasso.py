"""The weighted-Lasso minimiser in exact rational arithmetic, for M <= 4.

Minimises b' H b - 2 b' hn + sum_j p_j |b_j| over R^M, or over the
nonnegative orthant, by enumerating sign patterns. H, hn and the penalties
p are read as exact rationals (`fractions.Fraction` of the floats). For
each support A and signs s_A the sign-fixed system
H_AA b_A = hn_A - (p_A / 2) s_A is solved exactly; the minimiser is the
pattern whose solution has the signs s_A and whose zero coordinates meet
the KKT condition |2 (hn - H b)_j| <= p_j (2 (hn - H b)_j <= p_j on the
nonnegative orthant). For a positive definite H there is exactly one.
"""

from fractions import Fraction
from itertools import combinations, product


def _inverse(a):
    """Inverse of a nonsingular matrix of Fractions, by Gauss-Jordan."""
    k = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(a)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(k):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[k:] for row in m]


def exact_lasso(H, hn, penalties, nonneg=False):
    """The exact minimiser, a list of Fractions, for each penalty vector in
    ``penalties`` (floats or Fractions). Each support's block inverse is
    formed once and shared by all the penalty vectors."""
    M = len(hn)
    if M > 4:
        raise ValueError("the enumeration is meant for M <= 4")
    Hq = [[Fraction(x) for x in row] for row in H]
    hq = [Fraction(x) for x in hn]
    blocks = [
        (A, _inverse([[Hq[i][j] for j in A] for i in A]))
        for size in range(M + 1)
        for A in combinations(range(M), size)
    ]
    return [_minimiser(Hq, hq, [Fraction(x) for x in p], blocks, nonneg) for p in penalties]


def _minimiser(H, hn, pen, blocks, nonneg):
    M = len(hn)
    for A, inverse in blocks:
        for s in product((1,) if nonneg else (1, -1), repeat=len(A)):
            rhs = [hn[i] - pen[i] * si / 2 for i, si in zip(A, s)]
            bA = [sum(x * r for x, r in zip(row, rhs)) for row in inverse]
            if any(b * si <= 0 for b, si in zip(bA, s)):
                continue
            b = [Fraction(0)] * M
            for i, value in zip(A, bA):
                b[i] = value
            g = [hn[j] - sum(H[j][i] * b[i] for i in A) for j in range(M)]
            if all(2 * (g[j] if nonneg else abs(g[j])) <= pen[j] for j in range(M) if j not in A):
                return b
    raise AssertionError("no sign pattern meets the KKT conditions")
