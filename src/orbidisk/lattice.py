"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision ``int`` and
``fractions.Fraction``; no floating point is used anywhere.  Matrices are
plain nested lists (rows), vectors are sequences.  All functions treat their
inputs as read-only and return fresh lists.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


class AmbiguousSolutionError(ValueError):
    """Linear system is consistent but underdetermined."""


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a) -> list[list]:
    return [list(col) for col in zip(*a)] if a else []


def primitive_vector(v) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    The direction is preserved (the scaling factor is positive).
    """
    if all(isinstance(x, int) for x in v):
        g = gcd(*v)
        if g == 0:
            raise ValueError("zero vector has no primitive representative")
        return tuple(x // g for x in v)
    fracs = [Fraction(x) for x in v]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive representative")
    den = 1
    for x in fracs:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def _gcdext(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _integer_copy(a) -> list[list[int]]:
    """Fresh integer copy of a matrix; a non-integral entry raises ValueError."""
    out = [[int(x) for x in row] for row in a]
    for row, ints in zip(a, out):
        if any(x != y for x, y in zip(row, ints)):
            raise ValueError(f"non-integral entry in row {list(row)}")
    return out


def hermite_normal_form(a) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form.

    Args:
      a: integer matrix, m x n, nonempty; a non-integral entry raises
        ValueError.

    Returns:
      (h, u) with u unimodular (|det u| = 1), u @ a = h, h in row HNF:
      echelon with positive pivots, entries above each pivot reduced into
      [0, pivot), zero rows at the bottom.
    """
    m = len(a)
    if m == 0 or len(a[0]) == 0:
        raise ValueError("hermite_normal_form needs a nonempty matrix")
    n = len(a[0])
    h = _integer_copy(a)
    u = identity_matrix(m)
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, m):
            if h[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != row:
            h[row], h[pivot] = h[pivot], h[row]
            u[row], u[pivot] = u[pivot], u[row]
        # fold every lower row into the pivot row via extended gcd; the 2x2
        # transform has determinant 1
        for r in range(row + 1, m):
            if h[r][col] == 0:
                continue
            p, q = h[row][col], h[r][col]
            g, x, y = _gcdext(p, q)
            pp, qq = p // g, q // g
            h[row], h[r] = (
                [x * hi + y * hj for hi, hj in zip(h[row], h[r])],
                [-qq * hi + pp * hj for hi, hj in zip(h[row], h[r])],
            )
            u[row], u[r] = (
                [x * ui + y * uj for ui, uj in zip(u[row], u[r])],
                [-qq * ui + pp * uj for ui, uj in zip(u[row], u[r])],
            )
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        for r in range(row):
            q = h[r][col] // h[row][col]
            if q != 0:
                h[r] = [hi - q * hj for hi, hj in zip(h[r], h[row])]
                u[r] = [ui - q * uj for ui, uj in zip(u[r], u[row])]
        row += 1
        if row == m:
            break
    return h, u


def _integer_rows(a) -> list[list[int]]:
    """Each row of a rational matrix scaled by the lcm of its entries'
    denominators: the same row space, integral entries.
    """
    out = []
    for row in a:
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _eliminate(w, n: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows, in
    place; pivots are taken from the first n columns.

    Every division is exact by Sylvester's identity.  Afterwards the k pivot
    rows come first and the pivot columns are p times the k x k identity,
    p the last pivot (plus or minus a k x k minor); every other row is zero
    in the first n columns.  Returns the pivot columns and p (1 when there
    is no pivot).
    """
    m = len(w)
    pivots: list[int] = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if w[i][c] != 0), None)
        if piv is None:
            continue
        w[r], w[piv] = w[piv], w[r]
        p = w[r][c]
        for i in range(m):
            if i != r:
                f = w[i][c]
                w[i] = [(p * x - f * y) // prev for x, y in zip(w[i], w[r])]
        prev = p
        pivots.append(c)
    return pivots, prev


def _determinant(a) -> int:
    """Determinant of a square integer matrix (1 for the empty one), by
    fraction-free (Bareiss) elimination below the diagonal; every division
    is exact by Sylvester's identity and each row swap flips the sign.
    """
    w = [list(row) for row in a]
    n = len(w)
    sign, prev = 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if w[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            w[c], w[piv] = w[piv], w[c]
            sign = -sign
        p = w[c][c]
        for i in range(c + 1, n):
            f = w[i][c]
            w[i] = [(p * x - f * y) // prev for x, y in zip(w[i], w[c])]
        prev = p
    return sign * prev


def rank(a) -> int:
    """Rank over Q: the pivot count of one fraction-free elimination of the
    rows scaled to integers.
    """
    if not a:
        return 0
    return len(_eliminate(_integer_rows(a), len(a[0]))[0])


def integer_inverse(a) -> tuple[list[list[int]], int]:
    """Inverse of a nonsingular square integer matrix as (m, d): a^-1 = m / d.

    d = |det a| > 0, so m is plus or minus the adjugate.  One fraction-free
    (Bareiss) Gauss-Jordan elimination of [a | 1] computes both: every
    division in it is exact, so no Fraction is built.  A singular or
    non-square matrix, or a non-integral entry, raises ValueError.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("integer_inverse needs a square matrix")
    w = [row + e for row, e in zip(_integer_copy(a), identity_matrix(n))]
    pivots, p = _eliminate(w, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    sign = 1 if p > 0 else -1
    return [[sign * x for x in row[n:]] for row in w], sign * p


def integer_kernel(a) -> list[list[int]]:
    """Z-basis of {x in Z^cols : a @ x = 0}, as rows.

    The returned basis is saturated (it spans the full kernel lattice, not a
    finite-index sublattice) because it is cut out by unimodular row
    operations.  The basis is HNF-reduced, hence canonical.
    """
    if not a:
        return []
    at = transpose(a)
    if not at:
        return []
    h, u = hermite_normal_form(at)
    ker = [u[r] for r in range(len(h)) if all(x == 0 for x in h[r])]
    if not ker:
        return []
    kh, _ = hermite_normal_form(ker)
    return kh


def solve_rational(a, b) -> list[Fraction] | None:
    """Solve a @ x = b exactly over the rationals.

    Returns x when the system is consistent with a unique solution, None when
    inconsistent.  Raises AmbiguousSolutionError when the system is
    consistent but underdetermined.  Entries may be int or Fraction: each
    row of [a | b] is scaled to integers, one fraction-free elimination
    solves it, and only the entries of x are built as Fractions.
    """
    n = len(a[0]) if a else 0
    w = _integer_rows([list(row) + [bv] for row, bv in zip(a, b)])
    pivots, p = _eliminate(w, n)
    if any(row[n] for row in w[len(pivots):]):
        return None
    if len(pivots) < n:
        raise AmbiguousSolutionError("underdetermined system")
    x = [Fraction(0)] * n
    for row, c in zip(w, pivots):
        x[c] = Fraction(row[n], p)
    return x


def cone_contains(generators, point) -> tuple[bool, list[Fraction] | None]:
    """Exact membership of a point in the cone spanned by the generators.

    Returns (True, coefficients) with point = sum(coeff_i * g_i), all
    coefficients >= 0, or (False, None).  By Caratheodory's theorem a point
    of the cone lies in the cone of a basis of the generators' span taken
    from the generators, so one direct solve per d-subset decides it, d the
    rank; dependent subsets raise AmbiguousSolutionError and are skipped.
    The rank and every solve are fraction-free integer eliminations
    (`solve_rational`), so int and Fraction generators both work.
    Generators off the accepting subset get coefficient 0.
    """
    gens = [list(g) for g in generators]
    if not gens:
        raise ValueError("cone_contains needs at least one generator")
    pt = list(point)
    k = len(gens)
    d = rank(gens)
    if d == 0:
        # the empty subset would solve every point
        return (False, None) if any(pt) else (True, [Fraction(0)] * k)
    for subset in combinations(range(k), d):
        try:
            lam = solve_rational(transpose([gens[i] for i in subset]), pt)
        except AmbiguousSolutionError:
            continue
        if lam is not None and all(x >= 0 for x in lam):
            out = [Fraction(0)] * k
            for i, x in zip(subset, lam):
                out[i] = x
            return True, out
    return False, None
