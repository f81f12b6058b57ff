"""Root systems for the simple Lie types, in fundamental-weight coordinates.

Conventions.  Roots live in the Cartan subalgebra L(T) itself, so they are
the coroots of the usual dual-space presentation; concretely the Cartan
matrix stored here is the transpose of the familiar reference matrix
(Bourbaki node numbering).  For simply-laced types the two agree.  Every
vector is a tuple of integers giving its coordinates in the fundamental
weight basis, in which simple root i is row i of the Cartan matrix and the
weight lattice is all of Z^n.

A RootSystem holds only the type, the Cartan matrix and the simple roots.
invariant_degrees is the one table of counts: the number of roots and dim G
are read off it.  positive_roots is the one search over the roots; it runs
where the Chevalley rule needs them and checks their count against that
table.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .exactlin import Matrix, Vector, as_matrix, transpose

# Rank ceiling for families A-D, checked when a `LieType` is made, before
# anything is built.  Timed on a 2-core Xeon: `e3 D32 --max-degree 3` takes
# 0.3-0.5 s and 21 MB; with the ceiling lifted, `e3 A40 --max-degree 3` takes
# 0.4 s, `describe A40` 0.14 s and `describe A160` 0.75 s.
MAX_RANK = 32

_RANK_CONSTRAINTS = {
    "A": (1, MAX_RANK),
    "B": (2, MAX_RANK),
    "C": (2, MAX_RANK),
    "D": (3, MAX_RANK),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class _LieTypeFields(NamedTuple):
    family: str
    rank: int


class LieType(_LieTypeFields):
    """A simple type, validated on construction."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in _RANK_CONSTRAINTS:
            raise ValueError(f"unknown family {family!r}; expected one of A-G")
        lo, hi = _RANK_CONSTRAINTS[family]
        if not lo <= rank <= hi:
            raise ValueError(
                f"family {family} requires rank in [{lo}, {hi}], got {rank}"
            )
        return super().__new__(cls, family, rank)

    def __str__(self):
        return f"{self.family}{self.rank}"

    @property
    def root_count(self) -> int:
        """|Phi|: each invariant of degree d adds d - 1 positive roots."""
        return 2 * sum(d - 1 for d in invariant_degrees(self))

    @property
    def dim_group(self) -> int:
        return self.root_count + self.rank


def invariant_degrees(t: LieType) -> tuple[int, ...]:
    """Degrees of the basic Weyl-group invariants (Bourbaki, Plates I-IX)."""
    n = t.rank
    if t.family == "A":
        return tuple(range(2, n + 2))
    if t.family in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if t.family == "D":
        return tuple(sorted([*range(2, 2 * n - 1, 2), n]))
    return {
        "E6": (2, 5, 6, 8, 9, 12),
        "E7": (2, 6, 8, 10, 12, 14, 18),
        "E8": (2, 8, 12, 14, 18, 20, 24, 30),
        "F4": (2, 6, 8, 12),
        "G2": (2, 6),
    }[str(t)]


def standard_cartan(t: LieType) -> Matrix:
    """The reference Cartan matrix (Bourbaki/Humphreys numbering), 0-indexed.

    E6/E7/E8: node 2 is the branch node attached to node 4; the long chain
    is 1-3-4-5-6(-7)(-8).
    """
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, down=-1, up=-1):  # 1-indexed; a[i][j] = down, a[j][i] = up
        a[i - 1][j - 1] = down
        a[j - 1][i - 1] = up

    if t.family == "A":
        for i in range(1, n):
            bond(i, i + 1)
    elif t.family == "B":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 1, n, down=-2, up=-1)
    elif t.family == "C":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 1, n, down=-1, up=-2)
    elif t.family == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 2, n)
    elif t.family == "E":
        for i, j in [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]:
            bond(i, j)
        if n >= 7:
            bond(6, 7)
        if n == 8:
            bond(7, 8)
    elif t.family == "F":
        bond(1, 2)
        bond(2, 3, down=-2, up=-1)
        bond(3, 4)
    elif t.family == "G":
        bond(1, 2, down=-1, up=-3)
    return as_matrix(a)


class RootSystem(NamedTuple):
    lie_type: LieType
    cartan: Matrix

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @property
    def simple_roots(self) -> tuple[Vector, ...]:
        """The simple roots in weight coordinates: the rows of cartan."""
        return self.cartan

    def reflect(self, v: Vector, i: int) -> Vector:
        """Simple reflection s_i (1-based index) on weight coordinates."""
        if not 1 <= i <= self.rank:
            raise IndexError(f"simple-root index {i} out of range 1..{self.rank}")
        alpha = self.simple_roots[i - 1]
        coeff = v[i - 1]
        return tuple(x - coeff * a for x, a in zip(v, alpha))


def build_root_system(t: LieType) -> RootSystem:
    cartan = transpose(standard_cartan(t))
    return RootSystem(lie_type=t, cartan=cartan)


def positive_roots(rs: RootSystem) -> dict[Vector, tuple[Vector, Vector]]:
    """The positive half of the root system, sorted by (height, coordinates):
    each root beta mapped to (its coordinates m in the simple roots, its
    coroot pairings c = 2(e_i, beta)/(beta, beta)).  The height is sum(m).

    One integer search up from the simple roots: for a positive root beta
    with beta_i = <beta, alpha_i^vee> < 0, s_i(beta) = beta - beta_i alpha_i is
    positive and higher by -beta_i, and every positive root is reached so.
    s_i maps m to m - beta_i e_i, and c to c - (alpha_i . c) e_i.
    """
    n = rs.rank
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    data = {alpha: (e, e) for alpha, e in zip(rs.simple_roots, unit)}
    frontier = list(rs.simple_roots)
    while frontier:
        new = []
        for beta in frontier:
            for i, (alpha, b) in enumerate(zip(rs.simple_roots, beta)):
                if b < 0:
                    up = tuple(x - b * a for x, a in zip(beta, alpha))
                    if up not in data:
                        m, c = map(list, data[beta])
                        m[i] -= b
                        c[i] -= sum(map(mul, alpha, c))
                        data[up] = (tuple(m), tuple(c))
                        new.append(up)
        frontier = new
    if 2 * len(data) != rs.lie_type.root_count:
        raise AssertionError(
            f"{rs.lie_type}: found {len(data)} positive roots, "
            f"expected {rs.lie_type.root_count // 2}"
        )
    return {v: data[v] for v in sorted(data, key=lambda v: (sum(data[v][0]), v))}
