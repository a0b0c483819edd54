"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision ``int`` and
``fractions.Fraction``; no floating point is used anywhere.  Matrices are
plain nested lists (rows), vectors are sequences.  All functions treat their
inputs as read-only and return fresh lists.
"""

from __future__ import annotations

from fractions import Fraction
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


def smith_normal_form(a) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: returns (s, d, t) with s @ a @ t = d diagonal.

    s and t are unimodular; the diagonal entries are nonnegative and each
    divides the next.  A non-integral entry raises ValueError.
    """
    m, n = len(a), len(a[0]) if a else 0
    d = _integer_copy(a)
    s = identity_matrix(m)
    t = identity_matrix(n)

    def row_op(i, j, x, y, pp, qq):
        d[i], d[j] = (
            [x * di + y * dj for di, dj in zip(d[i], d[j])],
            [-qq * di + pp * dj for di, dj in zip(d[i], d[j])],
        )
        s[i], s[j] = (
            [x * si + y * sj for si, sj in zip(s[i], s[j])],
            [-qq * si + pp * sj for si, sj in zip(s[i], s[j])],
        )

    def col_op(i, j, x, y, pp, qq):
        for r in range(m):
            di, dj = d[r][i], d[r][j]
            d[r][i], d[r][j] = x * di + y * dj, -qq * di + pp * dj
        for r in range(n):
            ti, tj = t[r][i], t[r][j]
            t[r][i], t[r][j] = x * ti + y * tj, -qq * ti + pp * tj

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
                s[k], s[pr] = s[pr], s[k]
            if pc != k:
                for r in range(m):
                    d[r][k], d[r][pc] = d[r][pc], d[r][k]
                for r in range(n):
                    t[r][k], t[r][pc] = t[r][pc], t[r][k]
            while True:
                # plain subtraction when the pivot divides (keeps the pivot
                # row clean); gcd transform otherwise (shrinks the pivot,
                # which bounds the number of passes)
                for i in range(k + 1, m):
                    if d[i][k] != 0:
                        if d[i][k] % d[k][k] == 0:
                            q = d[i][k] // d[k][k]
                            d[i] = [di - q * dk for di, dk in zip(d[i], d[k])]
                            s[i] = [si - q * sk for si, sk in zip(s[i], s[k])]
                        else:
                            g, x, y = _gcdext(d[k][k], d[i][k])
                            row_op(k, i, x, y, d[k][k] // g, d[i][k] // g)
                for j in range(k + 1, n):
                    if d[k][j] != 0:
                        if d[k][j] % d[k][k] == 0:
                            q = d[k][j] // d[k][k]
                            for r in range(m):
                                d[r][j] -= q * d[r][k]
                            for r in range(n):
                                t[r][j] -= q * t[r][k]
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
                s[i] = [-x for x in s[i]]

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
            return s, d, t
        for r in range(m):
            d[r][bad] += d[r][bad + 1]
        for r in range(n):
            t[r][bad] += t[r][bad + 1]
        diagonalize()


def elementary_divisors(a) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form."""
    if not a or not a[0]:
        return []
    _, d, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i] != 0]


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


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------
#
# A constraint is (coeffs, rhs, is_eq) encoding coeffs . z >= rhs, or = rhs.
# Small systems only: the fan checks and cone memberships this library needs
# stay within a few dozen variables and constraints.


def _normalize_constraint(coeffs, rhs, is_eq):
    nz = [abs(x) for x in coeffs if x != 0]
    if not nz:
        return None if (rhs <= 0 if not is_eq else rhs == 0) else "infeasible"
    scale = min(nz)
    coeffs = tuple(Fraction(x) / scale for x in coeffs)
    return (coeffs, Fraction(rhs) / scale, is_eq)


def fm_solve(n_vars: int, constraints) -> list[Fraction] | None:
    """Find one exact solution of a linear eq/ineq system, or None.

    Args:
      n_vars: number of variables z_0..z_{n_vars-1}.
      constraints: iterable of (coeffs, rhs, is_eq) meaning
        coeffs . z >= rhs (is_eq False) or coeffs . z == rhs (is_eq True).

    Returns:
      A solution vector of Fractions, or None when infeasible.
    """
    system = []
    for coeffs, rhs, is_eq in constraints:
        c = _normalize_constraint(list(coeffs), rhs, is_eq)
        if c == "infeasible":
            return None
        if c is not None:
            system.append(c)
    steps = []  # (var, kind, payload) for back-substitution
    for v in range(n_vars - 1, -1, -1):
        eq = next((c for c in system if c[2] and c[0][v] != 0), None)
        if eq is not None:
            # replace v by (rhs - rest)/coef in every other constraint
            coef = eq[0][v]
            steps.append((v, "eq", eq))
            new_system = []
            for c in system:
                if c is eq:
                    continue
                cv = c[0][v]
                if cv == 0:
                    new_system.append(c)
                    continue
                f = cv / coef
                coeffs = tuple(
                    x - f * y if i != v else Fraction(0)
                    for i, (x, y) in enumerate(zip(c[0], eq[0]))
                )
                nc = _normalize_constraint(list(coeffs), c[1] - f * eq[1], c[2])
                if nc == "infeasible":
                    return None
                if nc is not None:
                    new_system.append(nc)
            system = _dedup(new_system)
            continue
        lowers, uppers, rest = [], [], []
        for c in system:
            cv = c[0][v]
            if cv > 0:
                lowers.append(c)  # v >= (rhs - rest)/cv
            elif cv < 0:
                uppers.append(c)
            else:
                rest.append(c)
        steps.append((v, "fm", (lowers, uppers)))
        new_system = list(rest)
        for lo in lowers:
            for up in uppers:
                # eliminate v between lo and up
                a_lo, a_up = lo[0][v], up[0][v]
                coeffs = tuple(
                    x / a_lo - y / a_up for x, y in zip(lo[0], up[0])
                )
                nc = _normalize_constraint(
                    list(coeffs), lo[1] / a_lo - up[1] / a_up, False
                )
                if nc == "infeasible":
                    return None
                if nc is not None:
                    new_system.append(nc)
        system = _dedup(new_system)
    for coeffs, rhs, is_eq in system:
        if any(coeffs):
            raise AssertionError("variables left after elimination")
        if is_eq and rhs != 0:
            return None
        if not is_eq and rhs > 0:
            return None
    # back-substitution
    sol = [Fraction(0)] * n_vars
    for v, kind, payload in reversed(steps):
        if kind == "eq":
            coeffs, rhs, _ = payload
            acc = rhs - sum(
                coeffs[i] * sol[i] for i in range(n_vars) if i != v and coeffs[i]
            )
            sol[v] = acc / coeffs[v]
        else:
            lowers, uppers = payload
            lo_vals = [
                (c[1] - sum(c[0][i] * sol[i] for i in range(n_vars) if i != v))
                / c[0][v]
                for c in lowers
            ]
            up_vals = [
                (c[1] - sum(c[0][i] * sol[i] for i in range(n_vars) if i != v))
                / c[0][v]
                for c in uppers
            ]
            if lo_vals and up_vals:
                lo, up = max(lo_vals), min(up_vals)
                if lo > up:
                    raise AssertionError("inconsistent bounds in back-substitution")
                sol[v] = lo
            elif lo_vals:
                sol[v] = max(lo_vals + [Fraction(0)])
            elif up_vals:
                sol[v] = min(up_vals + [Fraction(0)])
    return sol


def _dedup(system):
    seen = set()
    out = []
    for c in system:
        key = (c[0], c[1], c[2])
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def cone_contains(generators, point) -> tuple[bool, list[Fraction] | None]:
    """Exact membership of a point in the cone spanned by the generators.

    Returns (True, coefficients) with point = sum(coeff_i * g_i), all
    coefficients >= 0, or (False, None).  For linearly independent generators
    the membership is decided by a direct solve; otherwise by
    Fourier-Motzkin elimination.
    """
    gens = [list(g) for g in generators]
    if not gens:
        raise ValueError("cone_contains needs at least one generator")
    pt = list(point)
    k = len(gens)
    if rank(gens) == k:
        cols = transpose(gens)
        try:
            lam = solve_rational(cols, pt)
        except AmbiguousSolutionError:  # pragma: no cover - rank == k prevents this
            lam = None
        if lam is None:
            return False, None
        if all(x >= 0 for x in lam):
            return True, lam
        return False, None
    n = len(pt)
    constraints = []
    for j in range(n):
        coeffs = [Fraction(gens[i][j]) for i in range(k)]
        constraints.append((coeffs, Fraction(pt[j]), True))
    for i in range(k):
        coeffs = [Fraction(1) if t == i else Fraction(0) for t in range(k)]
        constraints.append((coeffs, Fraction(0), False))
    sol = fm_solve(k, constraints)
    if sol is None:
        return False, None
    return True, sol

