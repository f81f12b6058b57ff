"""Rational reference root data, for tests only.

The package works with integer root data throughout.  This module keeps the
rational path it replaced: the Gram matrix of the fundamental weights and the
inner products, coroot pairings and simple-root coordinates read from it,
over `Fraction`, and an integral solve over Q.  Tests compare the integer
data against these.
"""

import functools
from fractions import Fraction

from transgress.exactlin import Matrix, Vector, as_matrix, solve_rational, transpose
from transgress.rootdata import RootSystem


def _half_lengths(cartan: Matrix) -> tuple[Fraction, ...]:
    """d_i = (alpha_i, alpha_i) / 2, normalized so long roots have d = 1.

    Determined by the symmetry constraint cartan[i][j] * d_j ==
    cartan[j][i] * d_i, propagated along the Dynkin graph.
    """
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan[i][j] and d[j] is None:
                    d[j] = d[i] * cartan[j][i] / cartan[i][j]
                    stack.append(j)
    top = max(d)
    return tuple(x / top for x in d)


@functools.lru_cache(maxsize=None)
def gram(rs: RootSystem) -> tuple[tuple[Fraction, ...], ...]:
    """Gram matrix of the fundamental weights: (phi_i, alpha_j) = delta_ij d_j,
    i.e. gram @ cartan^T = diag(d)."""
    n = rs.rank
    d = _half_lengths(rs.cartan)
    identity = as_matrix([[int(i == j) for j in range(n)] for i in range(n)])
    inv_ct = solve_rational(transpose(rs.cartan), identity)
    return tuple(tuple(d[i] * inv_ct[i][j] for j in range(n)) for i in range(n))


def inner(rs: RootSystem, u: Vector, v: Vector) -> Fraction:
    g = gram(rs)
    return sum(
        Fraction(u[i]) * g[i][j] * v[j] for i in range(rs.rank) for j in range(rs.rank)
    )


def coroot_pairing(rs: RootSystem, v: Vector, beta: Vector) -> Fraction:
    """2(v, beta) / (beta, beta)."""
    return 2 * inner(rs, v, beta) / inner(rs, beta, beta)


def root_coordinates(rs: RootSystem, v: Vector) -> tuple[Fraction, ...]:
    """Coordinates of v in the simple-root basis."""
    col = solve_rational(transpose(rs.cartan), tuple((x,) for x in v))
    return tuple(row[0] for row in col)


def solve_integral(m: Matrix, b: Matrix) -> Matrix:
    """The integer X with M @ X = B, by solve_rational; raises ValueError when
    the solution is not integral."""
    x = solve_rational(m, b)
    if any(entry.denominator != 1 for row in x for entry in row):
        raise ValueError("rational solution is not integral")
    return tuple(tuple(int(entry) for entry in row) for row in x)
