"""The lattice chain root lattice <= unit lattice <= weight lattice.

In fundamental-weight coordinates the weight lattice is Z^n and the root
lattice is the row lattice of the Cartan matrix.  A compact form of the
group is pinned down by a subgroup of the center (= weight/root quotient),
given by generators; the unit lattice is the root lattice enlarged by those
generators.  The center is known by its invariant factors (the Smith
diagonal of the Cartan matrix), and the fundamental weights generate it.
unit_lattice_basis returns the basis theta of the unit lattice; the
transition matrix C expresses the simple roots in theta, and its transpose
is the transgression matrix downstream.  hermite_coordinates writes one
vector in a Hermite theta in integers, with no solve over Q.
"""

from __future__ import annotations

from typing import NamedTuple

from . import exactlin
from .exactlin import Matrix, Vector, as_matrix, det, identity, transpose
from .rootdata import RootSystem


class LatticeConsistencyError(RuntimeError):
    """An internal invariant of the lattice chain failed (a bug, not bad input)."""


def _reduce_mod_row_lattice(v: Vector, hnf: Matrix) -> Vector:
    """Canonical coset representative of v modulo the row lattice of hnf.

    hnf must be a full-rank square row-style HNF (upper triangular, positive
    diagonal); coordinates are reduced into [0, pivot) front to back.
    """
    out = list(v)
    for i in range(len(hnf)):
        q = out[i] // hnf[i][i]
        if q:
            out = [a - q * b for a, b in zip(out, hnf[i])]
    return tuple(out)


class CenterGroup(NamedTuple):
    """Weight lattice / root lattice, i.e. the center of the 1-connected form."""

    root_system: RootSystem
    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n


def center_group(rs: RootSystem) -> CenterGroup:
    factors = exactlin.invariant_factors(rs.cartan)
    return CenterGroup(
        root_system=rs, invariant_factors=tuple(d for d in factors if d > 1)
    )


class Pi1Subgroup(NamedTuple):
    """A subgroup of the center, describing a fundamental group choice."""

    label: str
    order: int
    generators: tuple[Vector, ...]
    elements: tuple[Vector, ...]


def _closure(seed, hnf, n) -> frozenset[Vector]:
    zero = (0,) * n
    elems = {zero}
    frontier = {zero}
    while frontier:
        new = set()
        for e in frontier:
            for g in seed:
                s = _reduce_mod_row_lattice(tuple(a + b for a, b in zip(e, g)), hnf)
                if s not in elems:
                    elems.add(s)
                    new.add(s)
        frontier = new
    return frozenset(elems)


def _minimal_generators(elements: frozenset[Vector], hnf, n) -> tuple[Vector, ...]:
    gens: list[Vector] = []
    ordered = sorted(elements)
    span: frozenset[Vector] = _closure([], hnf, n)
    for e in ordered:
        if e not in span:
            gens.append(e)
            span = _closure(gens, hnf, n)
        if span == elements:
            break
    return tuple(gens)


def enumerate_pi1_choices(c: CenterGroup) -> list[Pi1Subgroup]:
    """All subgroups of the center, from trivial to full, with stable labels."""
    rs = c.root_system
    hnf = exactlin.hermite_normal_form(rs.cartan)
    n = rs.rank
    elements = tuple(sorted(_closure(identity(n), hnf, n)))
    # The center has order <= rank + 1 for these types, so brute force over
    # cyclic extensions is plenty.
    subgroups = {_closure([], hnf, n)}
    changed = True
    while changed:
        changed = False
        for sub in list(subgroups):
            for e in elements:
                bigger = _closure(list(sub) + [e], hnf, n)
                if bigger not in subgroups:
                    subgroups.add(bigger)
                    changed = True
    out = []
    for sub in subgroups:
        gens = _minimal_generators(sub, hnf, n)
        if len(sub) == 1:
            label = "sc"
        elif len(sub) == len(elements):
            label = "adj"
        else:
            label = "pi1=[" + ";".join(",".join(str(x) for x in g) for g in gens) + "]"
        out.append(
            Pi1Subgroup(
                label=label,
                order=len(sub),
                generators=gens,
                elements=tuple(sorted(sub)),
            )
        )
    out.sort(key=lambda s: (s.order, s.elements))
    return out


class GroupSpec(NamedTuple):
    """A compact connected form: root system plus fundamental-group generators.

    pi1_generators are coset representatives modulo the root lattice; the
    empty tuple means simply connected, the full center means adjoint.
    weight_basis records that the group was requested as adjoint, so the
    unit-lattice basis is taken to be the fundamental weights even when the
    center is trivial and the form coincides with the simply connected one.
    """

    root_system: RootSystem
    pi1_generators: tuple[Vector, ...]
    weight_basis: bool = False

    @property
    def rank(self) -> int:
        return self.root_system.rank


def group_spec(rs: RootSystem, generators=(), weight_basis: bool = False) -> GroupSpec:
    hnf = exactlin.hermite_normal_form(rs.cartan)
    reduced = []
    for g in generators:
        g = tuple(int(x) for x in g)
        if len(g) != rs.rank:
            raise ValueError(
                f"fundamental-group generator {g} has length {len(g)}, expected {rs.rank}"
            )
        r = _reduce_mod_row_lattice(g, hnf)
        if any(r):
            reduced.append(r)
    spec = GroupSpec(
        root_system=rs, pi1_generators=tuple(reduced), weight_basis=weight_basis
    )
    if weight_basis and not is_adjoint(spec):
        raise ValueError("weight_basis requires the full center as pi1")
    return spec


def adjoint_spec(rs: RootSystem) -> GroupSpec:
    # The fundamental weights generate the whole center.
    return group_spec(rs, identity(rs.rank), weight_basis=True)


def pi1_order(g: GroupSpec) -> int:
    hnf = exactlin.hermite_normal_form(g.root_system.cartan)
    return len(_closure(g.pi1_generators, hnf, g.rank))


def is_simply_connected(g: GroupSpec) -> bool:
    return not g.pi1_generators


def is_adjoint(g: GroupSpec) -> bool:
    return pi1_order(g) == center_group(g.root_system).order


def unit_lattice_basis(g: GroupSpec) -> Matrix:
    """Ordered basis theta of the unit lattice, rows in weight coordinates.

    Simply connected groups get the simple roots themselves, and groups
    requested as adjoint the fundamental weights (identity matrix).  Others
    get the HNF basis of the lattice spanned by the simple roots and the
    fundamental-group generators, which is the identity when they span Z^n.
    """
    rs = g.root_system
    n = rs.rank
    if g.weight_basis:
        return identity(n)
    if is_simply_connected(g):
        return rs.cartan
    stacked = as_matrix(list(rs.cartan) + list(g.pi1_generators))
    theta = exactlin.hermite_normal_form(stacked)[:n]
    # With n columns, rank n puts every pivot of the echelon form on the diagonal.
    if not all(theta[i][i] for i in range(n)):
        raise LatticeConsistencyError("unit lattice basis is rank deficient")
    return theta


def hermite_coordinates(theta: Matrix, v: Vector) -> Vector:
    """The integer x with x @ theta = v, for a basis theta in Hermite form
    (upper triangular, nonzero diagonal), by forward substitution."""
    x: list[int] = []
    for j in range(len(v)):
        q, r = divmod(v[j] - sum(x[i] * theta[i][j] for i in range(j)), theta[j][j])
        if r:
            raise LatticeConsistencyError(
                f"{v} is not integral in the unit lattice basis"
            )
        x.append(q)
    return tuple(x)


def transition_matrix(g: GroupSpec) -> Matrix:
    """The integer matrix C with (simple roots) = C @ (theta basis)."""
    theta = unit_lattice_basis(g)
    rs = g.root_system
    # C @ theta = cartan  <=>  theta^T @ C^T = cartan^T
    c_t = exactlin.solve_rational(transpose(theta), transpose(rs.cartan))
    if any(x.denominator != 1 for row in c_t for x in row):
        raise LatticeConsistencyError(
            "simple roots are not integral in the unit lattice basis"
        )
    c = as_matrix(transpose(c_t))
    expected = pi1_order(g)
    if abs(det(c)) != expected:
        raise LatticeConsistencyError(
            f"|det C| = {abs(det(c))} but the fundamental group has order {expected}"
        )
    return c
