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


def _smith(d, m: int, n: int) -> None:
    """Bring the top-left m x n block of d to Smith normal form, in place.

    Row operations act on whole rows and column operations on whole columns,
    while pivots are read from the block only; so columns appended to the
    block's rows record the left transform and rows appended below it record
    the right one.
    """

    def row_op(i, j, x, y, pp, qq):
        d[i], d[j] = (
            [x * di + y * dj for di, dj in zip(d[i], d[j])],
            [-qq * di + pp * dj for di, dj in zip(d[i], d[j])],
        )

    def col_op(i, j, x, y, pp, qq):
        for row in d:
            di, dj = row[i], row[j]
            row[i], row[j] = x * di + y * dj, -qq * di + pp * dj

    def diagonalize():
        k = 0
        while k < min(m, n):
            pr = pc = None
            for i in range(k, m):
                for j in range(k, n):
                    if d[i][j] != 0:
                        pr, pc = i, j
                        break
                if pr is not None:
                    break
            if pr is None:
                break
            if pr != k:
                d[k], d[pr] = d[pr], d[k]
            if pc != k:
                for row in d:
                    row[k], row[pc] = row[pc], row[k]
            while True:
                # plain subtraction when the pivot divides (keeps the pivot
                # row clean); gcd transform otherwise (shrinks the pivot,
                # which bounds the number of passes)
                for i in range(k + 1, m):
                    if d[i][k] != 0:
                        if d[i][k] % d[k][k] == 0:
                            q = d[i][k] // d[k][k]
                            d[i] = [di - q * dk for di, dk in zip(d[i], d[k])]
                        else:
                            g, x, y = _gcdext(d[k][k], d[i][k])
                            row_op(k, i, x, y, d[k][k] // g, d[i][k] // g)
                for j in range(k + 1, n):
                    if d[k][j] != 0:
                        if d[k][j] % d[k][k] == 0:
                            q = d[k][j] // d[k][k]
                            for row in d:
                                row[j] -= q * row[k]
                        else:
                            g, x, y = _gcdext(d[k][k], d[k][j])
                            col_op(k, j, x, y, d[k][k] // g, d[k][j] // g)
                if all(d[i][k] == 0 for i in range(k + 1, m)) and all(
                    d[k][j] == 0 for j in range(k + 1, n)
                ):
                    break
            k += 1
        for i in range(min(m, n)):
            if d[i][i] < 0:
                d[i] = [-x for x in d[i]]

    diagonalize()
    # enforce the divisibility chain; adding column i+1 to column i breaks
    # diagonality, so re-diagonalize until stable (each pass replaces a
    # diagonal entry by a proper divisor, hence terminates)
    while True:
        bad = None
        for i in range(min(m, n) - 1):
            if d[i + 1][i + 1] != 0 and (
                d[i][i] == 0 or d[i + 1][i + 1] % d[i][i] != 0
            ):
                bad = i
                break
        if bad is None:
            return
        for row in d:
            row[bad] += row[bad + 1]
        diagonalize()


def smith_normal_form(a) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: returns (s, d, t) with s @ a @ t = d diagonal.

    s and t are unimodular; the diagonal entries are nonnegative and each
    divides the next.  A non-integral entry raises ValueError.
    """
    m, n = len(a), len(a[0]) if a else 0
    # [[a, 1_m], [1_n, 0]]: the block's row and column operations turn the
    # appended identities into s and t
    d = [row + e for row, e in zip(_integer_copy(a), identity_matrix(m))]
    d += [e + [0] * m for e in identity_matrix(n)]
    _smith(d, m, n)
    return (
        [row[n:] for row in d[:m]],
        [row[:n] for row in d[:m]],
        [row[:n] for row in d[m:]],
    )


def elementary_divisors(a) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form.

    Runs the Smith loop on a copy of a alone, without the transforms, so time
    and memory stay linear in the number of rows.
    """
    if not a or not a[0]:
        return []
    d = _integer_copy(a)
    m, n = len(d), len(d[0])
    _smith(d, m, n)
    return [d[i][i] for i in range(min(m, n)) if d[i][i] != 0]


def rank(a) -> int:
    """Rank over Q.

    Each row is scaled by the lcm of its entries' denominators first, which
    keeps the rank and makes the matrix integral.
    """
    rows = []
    for row in a:
        den = lcm(*(x.denominator for x in row))
        rows.append([int(x * den) for x in row])
    return len(elementary_divisors(rows))


def det(a) -> Fraction:
    """Determinant of a square rational matrix (exact Gaussian elimination)."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


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
    prev = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if w[r][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        w[c], w[piv] = w[piv], w[c]
        p = w[c][c]
        # after this step the first c + 1 columns are p times the identity
        for r in range(n):
            if r != c:
                f = w[r][c]
                w[r] = [(p * x - f * y) // prev for x, y in zip(w[r], w[c])]
        prev = p
    sign = 1 if prev > 0 else -1
    return [[sign * x for x in row[n:]] for row in w], sign * prev


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
    consistent but underdetermined.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    if len(pivots) < n:
        raise AmbiguousSolutionError("underdetermined system")
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def solve_integer(a, b) -> list[int] | None:
    """One integer solution x of a @ x = b, or None if none exists."""
    if not a:
        return []
    at = transpose(a)
    h, u = hermite_normal_form(at)  # h = u @ a^T, rows span the row lattice of a^T
    n = len(at)
    resid = [int(x) for x in b]
    coeff = [0] * len(h)
    for r in range(len(h)):
        lead = next((c for c in range(len(resid)) if h[r][c] != 0), None)
        if lead is None:
            break
        if resid[lead] % h[r][lead] != 0:
            return None
        q = resid[lead] // h[r][lead]
        coeff[r] = q
        resid = [x - q * y for x, y in zip(resid, h[r])]
    if any(resid):
        return None
    # x^T = coeff @ u gives a @ x = b
    x = [sum(coeff[r] * u[r][c] for r in range(len(u))) for c in range(n)]
    return x


def cone_contains(generators, point) -> tuple[bool, list[Fraction] | None]:
    """Exact membership of a point in the cone spanned by the generators.

    Returns (True, coefficients) with point = sum(coeff_i * g_i), all
    coefficients >= 0, or (False, None).  By Caratheodory's theorem a point
    of the cone lies in the cone of a basis of the generators' span taken
    from the generators, so one direct solve per d-subset decides it, d the
    rank; dependent subsets raise AmbiguousSolutionError and are skipped.
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
