"""The lattice chain root lattice <= unit lattice <= weight lattice.

In fundamental-weight coordinates the weight lattice is Z^n and the root
lattice is the row lattice of the Cartan matrix.  A compact form of the
group is pinned down by a subgroup of the center (= weight/root quotient),
given by generators; the unit lattice is the root lattice enlarged by those
generators.  The center is known by its invariant factors (the Smith
diagonal of the Cartan matrix), and the fundamental weights generate it.
group_spec decides the lattice facts of a form once: it reduces the
generators, counts pi1, decides the form (sc, adj or pi1=[...], labelled
by _form_label, as enumerate_pi1_choices labels too) and takes the basis
theta of the unit lattice from unit_lattice_basis.  The transition matrix C
expresses the simple roots in theta, and its transpose is the transgression
matrix downstream.
hermite_coordinates writes one vector in a Hermite theta in integers, with
no solve over Q, and theta_coordinates writes the roots in theta.
"""

from __future__ import annotations

from math import prod
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
        out.append(
            Pi1Subgroup(
                label=_form_label(gens, len(sub), len(elements)),
                order=len(sub),
                generators=gens,
                elements=tuple(sorted(sub)),
            )
        )
    out.sort(key=lambda s: (s.order, s.elements))
    return out


def _form_label(generators, order: int, center_order: int) -> str:
    """The form of a group with these reduced pi1 generators and |pi1| =
    order: sc without generators, adj when pi1 is the whole center, else
    pi1=[...] of the generators."""
    if not generators:
        return "sc"
    if order == center_order:
        return "adj"
    return "pi1=[" + ";".join(",".join(map(str, g)) for g in generators) + "]"


class GroupSpec(NamedTuple):
    """A compact connected form: root system plus fundamental-group generators.

    pi1_generators are coset representatives modulo the root lattice; the
    empty tuple means simply connected.  form is the label group_spec decides
    once: "adj" for a group requested as adjoint (even when the center is
    trivial, as for E8, F4 and G2) or whose pi1 is the whole center, "sc"
    otherwise when there are no generators, else "pi1=[...]".  theta is the
    unit-lattice basis (unit_lattice_basis) and pi1_order is |pi1|.
    """

    root_system: RootSystem
    pi1_generators: tuple[Vector, ...]
    form: str
    theta: Matrix
    pi1_order: int

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
    order = len(_closure(reduced, hnf, rs.rank))
    # |center| = |det cartan| = the product of the Hermite diagonal.
    center_order = prod(hnf[i][i] for i in range(rs.rank))
    if weight_basis and order != center_order:
        raise ValueError("weight_basis requires the full center as pi1")
    form = "adj" if weight_basis else _form_label(reduced, order, center_order)
    return GroupSpec(
        root_system=rs,
        pi1_generators=tuple(reduced),
        form=form,
        theta=unit_lattice_basis(rs, reduced, form == "adj"),
        pi1_order=order,
    )


def adjoint_spec(rs: RootSystem) -> GroupSpec:
    # The fundamental weights generate the whole center.
    return group_spec(rs, identity(rs.rank), weight_basis=True)


def unit_lattice_basis(rs: RootSystem, generators, adjoint: bool) -> Matrix:
    """Ordered basis theta of the unit lattice, rows in weight coordinates,
    for the reduced fundamental-group generators.

    Adjoint forms get the fundamental weights (identity matrix), which is
    also the HNF basis of Z^n, and simply connected groups the simple roots
    themselves.  Others get the HNF basis of the lattice spanned by the
    simple roots and the fundamental-group generators.
    """
    n = rs.rank
    if adjoint:
        return identity(n)
    if not generators:
        return rs.cartan
    stacked = as_matrix(list(rs.cartan) + list(generators))
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


def theta_coordinates(g: GroupSpec, roots, coefficients) -> tuple[Vector, ...]:
    """The integer coordinates in the theta of g of each positive root, given
    in weight coordinates (roots) and in simple-root coefficients.

    These are the d2 coefficients: tau(t_g) = sum_l tau[g][l] omega_l, and
    omega_l contributes the l-th coefficient of beta_k.  tau is C^T, where the
    simple roots are C theta, so that sum is the g-th coordinate of beta_k in
    theta.  It is read off in the three cases of unit_lattice_basis: theta
    is the identity, the simple roots, or a Hermite form.
    """
    if g.form == "adj":
        return roots
    if g.form == "sc":
        return coefficients
    return tuple(hermite_coordinates(g.theta, beta) for beta in roots)


def transition_matrix(g: GroupSpec) -> Matrix:
    """The integer matrix C with (simple roots) = C @ (theta basis)."""
    # C @ theta = cartan  <=>  theta^T @ C^T = cartan^T
    c_t = exactlin.solve_rational(transpose(g.theta), transpose(g.root_system.cartan))
    if any(x.denominator != 1 for row in c_t for x in row):
        raise LatticeConsistencyError(
            "simple roots are not integral in the unit lattice basis"
        )
    c = as_matrix(transpose(c_t))
    if abs(det(c)) != g.pi1_order:
        raise LatticeConsistencyError(
            f"|det C| = {abs(det(c))} but the fundamental group has order {g.pi1_order}"
        )
    return c
