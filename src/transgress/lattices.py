"""The lattice chain root lattice <= unit lattice <= weight lattice.

In fundamental-weight coordinates the weight lattice is Z^n and the root
lattice is the row lattice of the Cartan matrix.  A compact form of the
group is pinned down by a subgroup of the center (= weight/root quotient),
given by generators; the unit lattice is the root lattice enlarged by those
generators.  center_group returns the center's invariant factors > 1 (the
Smith diagonal of the Cartan matrix); the fundamental weights generate it.
group_spec returns the GroupSpec record that decides the lattice facts of a
form once: it closes the generators to the subgroup pi1, keeps its minimal
generators, counts pi1, names the form from those generators (sc, adj or
pi1=[...]), so that every way of writing one subgroup gives one record, and
takes the basis theta of the unit lattice from unit_lattice_basis.
enumerate_pi1_choices returns the list of the group_spec of every subgroup.
transition_matrix returns the integer matrix C that expresses the simple
roots in theta; its transpose is the matrix transgression_matrix returns.
_hermite_divide is the one division by a Hermite basis: its remainder
reduces a coset modulo the root lattice, and its quotient, in
hermite_coordinates, writes a vector in a Hermite theta in integers with no
solve over Q.  theta_coordinates writes the roots in theta.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from . import exactlin
from .exactlin import Matrix, Vector, as_matrix, det, identity, transpose
from .rootdata import RootSystem


class LatticeConsistencyError(RuntimeError):
    """An internal invariant of the lattice chain failed (a bug, not bad input)."""


def _hermite_divide(h: Matrix, v: Vector) -> tuple[Vector, Vector]:
    """(x, r) with v = x @ h + r, dividing front to back by the rows of a
    square basis h in Hermite form (upper triangular, positive diagonal).

    Each r_i lies in [0, h_ii), so r is the canonical representative of v
    modulo the row lattice of h, and r = 0 exactly when v lies in it.
    """
    x, r = [], list(v)
    for i, row in enumerate(h):
        q = r[i] // row[i]
        x.append(q)
        if q:
            r = [a - q * b for a, b in zip(r, row)]
    return tuple(x), tuple(r)


def center_group(rs: RootSystem) -> tuple[int, ...]:
    """The invariant factors > 1 of weight lattice / root lattice, i.e. of
    the center of the 1-connected form; their product is its order."""
    return tuple(d for d in exactlin.invariant_factors(rs.cartan) if d > 1)


def _extend(span: frozenset[Vector], g: Vector, hnf: Matrix) -> frozenset[Vector]:
    """The subgroup span + <g> of Z^n / (row lattice of hnf), span a subgroup."""
    out, layer = set(span), span
    while layer:
        layer = {
            _hermite_divide(hnf, tuple(a + b for a, b in zip(s, g)))[1] for s in layer
        } - out
        out |= layer
    return frozenset(out)


def _closure(seed, hnf: Matrix) -> frozenset[Vector]:
    """The subgroup of Z^n / (row lattice of hnf) that the vectors seed generate."""
    span = frozenset([(0,) * len(hnf)])
    for g in seed:
        span = _extend(span, g, hnf)
    return span


def _minimal_generators(elements: frozenset[Vector], hnf: Matrix) -> tuple[Vector, ...]:
    """Each sorted element of a subgroup outside the span of those before it."""
    gens: list[Vector] = []
    span = frozenset([(0,) * len(hnf)])
    for e in sorted(elements):
        if span == elements:
            break
        if e not in span:
            gens.append(e)
            span = _extend(span, e, hnf)
    return tuple(gens)


def enumerate_pi1_choices(rs: RootSystem) -> list[GroupSpec]:
    """Every form of rs, one group_spec per subgroup of the center, ordered
    by |pi1| and then by the subgroup's sorted elements: sc first, adj last."""
    hnf = exactlin.hermite_normal_form(rs.cartan)
    elements = _closure(identity(rs.rank), hnf)
    # The center has order <= rank + 1 for these types, so brute force over
    # cyclic extensions is plenty.
    subgroups = {_closure((), hnf)}
    todo = list(subgroups)
    while todo:
        sub = todo.pop()
        for e in elements:
            bigger = _extend(sub, e, hnf)
            if bigger not in subgroups:
                subgroups.add(bigger)
                todo.append(bigger)
    out = []
    for sub in sorted(subgroups, key=lambda s: (len(s), sorted(s))):
        g = group_spec(rs, _minimal_generators(sub, hnf))
        if g.pi1_order != len(sub):
            raise LatticeConsistencyError(f"|pi1| of {g.form} is not {len(sub)}")
        out.append(g)
    return out


class GroupSpec(NamedTuple):
    """A compact connected form: root system plus fundamental-group generators.

    pi1_generators are the minimal generators of pi1 in the center (coset
    representatives modulo the root lattice, picked by _minimal_generators);
    the empty tuple means simply connected.  Every way of writing one
    subgroup gives the same record.  form is the label group_spec decides
    once: "adj" for a group requested as adjoint (even when the center is
    trivial, as for E8, F4 and G2) or whose pi1 is the whole center, "sc"
    otherwise when there are no generators, else "pi1=[...]" of
    pi1_generators.  theta is the unit-lattice basis (unit_lattice_basis)
    and pi1_order is |pi1|.
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
    seed = []
    for g in generators:
        g = tuple(int(x) for x in g)
        if len(g) != rs.rank:
            raise ValueError(
                f"fundamental-group generator {g} has length {len(g)}, expected {rs.rank}"
            )
        seed.append(g)
    pi1 = _closure(seed, hnf)
    gens = _minimal_generators(pi1, hnf)
    # |center| = |det cartan| = the product of the Hermite diagonal.
    full = len(pi1) == prod(hnf[i][i] for i in range(rs.rank))
    if weight_basis and not full:
        raise ValueError("weight_basis requires the full center as pi1")
    if weight_basis or (gens and full):
        form = "adj"
    elif not gens:
        form = "sc"
    else:
        form = "pi1=[" + ";".join(",".join(map(str, g)) for g in gens) + "]"
    return GroupSpec(
        root_system=rs,
        pi1_generators=gens,
        form=form,
        theta=unit_lattice_basis(rs, gens, form == "adj"),
        pi1_order=len(pi1),
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
    """The integer x with x @ theta = v, for a basis theta in Hermite form."""
    x, r = _hermite_divide(theta, v)
    if any(r):
        raise LatticeConsistencyError(f"{v} is not integral in the unit lattice basis")
    return x


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
