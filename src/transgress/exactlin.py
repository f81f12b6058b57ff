"""Exact integer and rational linear algebra.

Everything here works over Python ints and fractions.Fraction; there is no
floating point anywhere in this package.  Matrices are immutable tuples of
tuples of ints (rows), vectors are tuples of ints.  Rank and the eliminator
behind it also take rows as sparse {column: value} dicts, the format of the
d2 rows of an E2 page.  Intermediate entries of the normal form can exceed
machine words, which is why arbitrary precision is non-negotiable.

hermite_normal_form is the one integer normal-form loop: invariant_factors
reads the Smith diagonal off alternating Hermite forms of a matrix and its
transpose.  echelon is the one elimination loop for ranks over Q and Z/p,
and the mod-p kernel and cokernel are read off one echelon run.  det is a
fraction-free Bareiss loop over ints, and solve_rational is the one dense
Fraction elimination.  echelon's result is keyed by leading column, and
spectral.e3_ranks reads those keys: the leading columns of the d2 block into
a bidegree name the rows that the block out of it need not be ranked on.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def as_matrix(rows) -> Matrix:
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("matrix rows have unequal lengths")
    return m


def dims(m: Matrix) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def det(m: Matrix) -> int:
    """Determinant of a square integer matrix, exact.

    Fraction-free Bareiss elimination: after step k every entry of the
    trailing block is a (k+1)-minor of M with its rows swapped, so each
    division by the previous pivot is exact (Bareiss, Math. Comp. 22, 1968).
    """
    n, c = dims(m)
    if n != c:
        raise ValueError("determinant requires a square matrix")
    rows = [list(row) for row in m]
    sign, previous = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        for row in rows[k + 1 :]:
            row[k + 1 :] = [
                (top[k] * x - row[k] * y) // previous
                for x, y in zip(row[k + 1 :], top[k + 1 :])
            ]
        previous = top[k]
    return sign * previous


# ---------------------------------------------------------------------------
# Hermite normal form and invariant factors
# ---------------------------------------------------------------------------

def hermite_normal_form(m_in: Matrix) -> Matrix:
    """Row-style Hermite normal form H of M: the same row lattice as M, in
    echelon form with its zero rows last.

    Pivots are positive; entries above a pivot are reduced into [0, pivot).
    """
    m = [list(row) for row in as_matrix(m_in)]
    r, c = dims(m)

    def row_sub(i, j, q):
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]

    row = 0
    for col in range(c):
        candidates = [i for i in range(row, r) if m[i][col]]
        if not candidates:
            continue
        swap_rows(row, min(candidates, key=lambda i: (abs(m[i][col]), i)))
        while True:
            for i in range(row + 1, r):
                if m[i][col]:
                    row_sub(i, row, m[i][col] // m[row][col])
            residues = [i for i in range(row + 1, r) if m[i][col]]
            if not residues:
                break
            swap_rows(row, min(residues, key=lambda i: (abs(m[i][col]), i)))
        if m[row][col] < 0:
            m[row] = [-x for x in m[row]]
        for i in range(row):
            if m[i][col]:
                row_sub(i, row, m[i][col] // m[row][col])
        row += 1
        if row == r:
            break

    return as_matrix(m)


def invariant_factors(m: Matrix) -> tuple[int, ...]:
    """The nonzero invariant factors d1 | d2 | ... of an integer matrix, that
    is the nonzero diagonal of its Smith normal form, without transforms.

    The row-Hermite form changes M only by unimodular row operations, and
    the Hermite form of the transpose only by column operations, so
    alternating the two keeps the invariant factors; it ends in a diagonal
    matrix.  Its nonzero entries, taken positive, are put in divisor order
    by replacing pairs (a, b) with (gcd(a, b), lcm(a, b)), which keeps the
    prime-power factors of the diagonal.
    """
    m = as_matrix(m)
    while any(x for i, row in enumerate(m) for j, x in enumerate(row) if i != j):
        m = transpose(hermite_normal_form(m))
    d = [abs(m[i][i]) for i in range(min(dims(m))) if m[i][i]]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


# ---------------------------------------------------------------------------
# Rational solving
# ---------------------------------------------------------------------------

def solve_rational(m: Matrix, b: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Solve M @ X = B exactly for square invertible M.

    Raises ValueError when M is singular; integrality of the result is the
    caller's concern.
    """
    # Imported here: fractions loads decimal and numbers, and only the tau
    # path (lattices.transition_matrix) solves over Q.
    from fractions import Fraction

    n, c = dims(m)
    if n != c:
        raise ValueError("solve_rational requires a square matrix")
    if len(b) != n:
        raise ValueError("right-hand side has wrong number of rows")
    width = len(b[0]) if b else 0
    aug = [
        [Fraction(x) for x in m[i]] + [Fraction(x) for x in b[i]] for i in range(n)
    ]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b_ for a, b_ in zip(aug[i], aug[col])]
    return tuple(tuple(aug[i][n : n + width]) for i in range(n))


# ---------------------------------------------------------------------------
# Mod-p linear algebra
# ---------------------------------------------------------------------------

# The first 13 primes as Miller-Rabin bases decide primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test, exact for p < MILLER_RABIN_BOUND.

    Raises ValueError above the bound rather than guess.
    """
    if p < 2:
        return False
    if p >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"cannot decide whether {p} is prime: the deterministic test "
            f"covers only numbers below {MILLER_RABIN_BOUND}"
        )
    for a in _MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _normalize(v: dict[int, int], col: int, p: int | None) -> dict[int, int]:
    """v divided by its content over Q, or scaled to v[col] = 1 over Z/p."""
    if p is None:
        c = gcd(*v.values())
        return v if c == 1 else {j: x // c for j, x in v.items()}
    inv = pow(v[col], -1, p)
    return v if inv == 1 else {j: x * inv % p for j, x in v.items()}


def _eliminate(v: dict[int, int], u: dict[int, int], col: int, p: int | None):
    """Clear column col of v with the pivot row u; over Q divide out the content."""
    b = v[col]
    if p is None:
        a = u[col]
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            v = {j: a * x for j, x in v.items()}
    for j, y in u.items():
        x = v.get(j, 0) - b * y
        if p is not None:
            x %= p
        if x:
            v[j] = x
        else:
            v.pop(j, None)
    if p is None and v:
        v = _normalize(v, col, p)
    return v


def echelon(rows, p: int | None) -> dict[int, dict[int, int]]:
    """Echelon form of an integer matrix over Q (p None) or over Z/p (p prime).

    Rows are sparse {column: value} dicts, such as the d2 rows of an E2 page,
    or dense integer sequences; either way the row is copied with its zeros
    (mod p) dropped, and a dict row is read in time linear in its entries.
    Each row is reduced against the pivot rows found so far, keyed by their
    leading column, until its leading column is new.  Where two rows lead in
    the same column the sparser one is kept as the pivot, which limits
    fill-in.  Over Q the elimination is fraction-free: v becomes
    (a/g) v - (b/g) u, where u is the pivot row, a and b are the leading
    entries and g = gcd(a, b), and the content of the result is divided out,
    so entries stay small integers.  Over Z/p pivot rows are scaled to a
    leading 1.  Returns {leading column: pivot row}; the pivot rows span the
    row space, and the set of leading columns depends only on that row
    space.  p is not checked for primality; callers that take it from a user
    check it once.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        if p is None:
            v = {j: x for j, x in items if x}
        else:
            v = {j: x % p for j, x in items if x % p}
        while v:
            col = min(v)
            u = pivots.get(col)
            if u is None or len(v) < len(u):
                pivots[col] = _normalize(v, col, p)
                if u is None:
                    break
                v, u = u, pivots[col]
            v = _eliminate(v, u, col, p)
    return pivots


def rank(rows, p: int | None = None) -> int:
    """Rank of an integer matrix over Q (p None) or over Z/p (p prime); rows
    as for echelon."""
    return len(echelon(rows, p))


def _reduce(pivots: dict[int, dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Back-substitution mod p: turns the echelon form from echelon into the
    reduced one, in place.  Rows with later leading columns are reduced first,
    so each pivot column cleared from a row is already zero in every other
    pivot row."""
    for col in sorted(pivots, reverse=True):
        for j in sorted(j for j in pivots[col] if j != col and j in pivots):
            pivots[col] = _eliminate(pivots[col], pivots[j], j, p)
    return pivots


def modp_kernel_cokernel(
    m: Matrix, p: int
) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Kernel of M mod p (column-vector convention: M v = 0) and
    representatives of (Z_p)^rows modulo the column space of M, from one
    echelon run.

    The rows [column j of M | e_j] span the graph {(M x, x)}.  The pivot rows
    that lead past M's part are zero on it, so their e part spans the kernel;
    reduced, they give its unique reduced-echelon basis.  The other leading
    columns are those of the column space of M, so the unit vectors at the
    coordinates that lead no row are canonical cokernel representatives.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    r, c = dims(m)
    pivots = echelon(
        ({**dict(enumerate(col)), r + j: 1} for j, col in enumerate(transpose(m))), p
    )
    kernel = _reduce({col: row for col, row in pivots.items() if col >= r}, p)
    return (
        tuple(
            tuple(row.get(r + j, 0) for j in range(c))
            for _, row in sorted(kernel.items())
        ),
        tuple(e for j, e in enumerate(identity(r)) if j not in pivots),
    )
