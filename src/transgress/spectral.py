"""E2 page of the fibration G -> G/T and its d2 homology.

The base cohomology H*(G/T) is carried by Schubert classes indexed by Weyl
group elements (degree twice the length); the fiber cohomology H*(T) is the
exterior algebra on t_1..t_n.  d2 sends sigma_w (x) t_i to
(omega-expansion of tau(t_i) multiplied into sigma_w) (x) 1, multiplication
by a degree-2 class being the Chevalley rule; the extension to higher
exterior degrees uses the Koszul sign (-1)^(j-1) on the j-th factor.

The Weyl group is enumerated one length at a time, so the elements of length
l fill the index range WeylGroup.levels[l].  An element is named by its index
alone, and a cell by its position in its bidegree (see build_e2).

The d2 coefficients are the coordinates of the positive roots in the basis
theta of the unit lattice (lattices.theta_coordinates), so the page needs
no tau.
A page built to dim G // 2 gives the E3 ranks in every degree by Poincare
duality (mirror_ranks).

Coefficients are a field: None means the rationals, an int means Z_p.
build_e2 checks that p is prime, before any Weyl or lattice work.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import NamedTuple

from . import exactlin, lattices
from .lattices import GroupSpec
from .rootdata import LieType, RootSystem, invariant_degrees, positive_roots

DEFAULT_WEYL_CAP = 2000

Coefficients = int | None  # None = rationals, int p = prime field


class WeylCapExceededError(RuntimeError):
    def __init__(
        self, lie_type: LieType, order: int, cap: int, max_length: int | None = None
    ):
        self.order = order
        what = "elements"
        if max_length is not None:
            what += f" of length <= {max_length}"
        super().__init__(
            f"Weyl group of {lie_type} has {order} {what}, above the cap {cap}"
        )


def length_count(t: LieType, max_length: int | None = None) -> int:
    """Number of Weyl group elements of length <= max_length (default: all).

    The length generating function is the product of the q-integers
    1 + q + ... + q^(d-1) over the invariant degrees d.
    """
    poly = [1]
    for d in invariant_degrees(t):
        new = [0] * (len(poly) + d - 1)
        for k, c in enumerate(poly):
            for j in range(k, k + d):
                new[j] += c
        poly = new
    return sum(poly if max_length is None else poly[: max_length + 1])


class WeylGroup:
    """The elements of length <= max_length (default: all), in shortlex order
    of their lex-least reduced words, with the root data of the Chevalley
    rule and the Bruhat covers.  levels[l] is the range of indices of the
    elements of length l.

    Each element w is keyed by w^-1(rho), rho = (1, ..., 1), and elements[k]
    is the key of the k-th element.  Then w s_i has key s_i(w^-1(rho)), and
    l(w s_i) > l(w) exactly when the i-th coordinate of the key is positive
    (Casselman, Invent. Math. 116, 1994).  The size cap counts the elements
    that will be enumerated, before the search runs.

    For each positive root beta (in `positive_roots` order) it holds two
    integer vectors.  `coefficients` are the coordinates of beta in the simple
    roots: roots here live in L(T), so beta is a coroot of the usual
    presentation and these are its Chevalley coefficients <omega_i, beta^vee>.
    `coroots` are the pairings 2(e_i, beta)/(beta, beta) of this presentation
    (`coroot_pairing` in tests/rational_reference.py), which give s_beta on
    the keys.  covers[w] lists the pairs (root index k, index of w s_beta_k)
    with l(w s_beta_k) = l(w) + 1, sorted by element index; it has an entry
    for every element of the whole group, and for every element below the
    top level of a truncated one.
    """

    def __init__(
        self,
        rs: RootSystem,
        size_cap: int = DEFAULT_WEYL_CAP,
        max_length: int | None = None,
    ):
        t = rs.lie_type
        longest = t.root_count // 2
        if max_length is not None:
            if max_length < 0:
                raise ValueError(f"max length {max_length} is negative")
            if max_length >= longest:
                max_length = None
        order = length_count(t, max_length)
        if order > size_cap:
            raise WeylCapExceededError(t, order, size_cap, max_length)
        self.root_system = rs
        self.max_length = max_length  # None: the whole group
        n = rs.rank
        level = [(1,) * n]
        elements = list(level)
        levels = [range(1)]
        # Level by level, i ascending, each key kept where it is first found.
        # If each level is in shortlex order of lex-least words, the words
        # word(w) + (i,) come up in lex order, so the first one found for a
        # key is its lex-least word and the new level is in that order too.
        for _ in range(longest if max_length is None else max_length):
            level = list(dict.fromkeys(
                rs.reflect(u, i) for u in level for i in range(1, n + 1) if u[i - 1] > 0
            ))
            levels.append(range(len(elements), len(elements) + len(level)))
            elements.extend(level)
        if len(elements) != order:
            raise AssertionError(
                f"enumerated {len(elements)} Weyl group elements, expected {order}"
            )
        self.elements = tuple(elements)
        self.index = index = {u: k for k, u in enumerate(self.elements)}
        self.levels = tuple(levels)

        roots = positive_roots(rs)
        self.roots = tuple(roots)
        self.coefficients = tuple(m for m, _ in roots.values())
        self.coroots = tuple(c for _, c in roots.values())

        # The top element of the whole group is longer than every w s_beta,
        # so it finds no cover and needs no level above it.
        above = self.levels[1:] + ((range(0),) if max_length is None else ())
        roots = tuple(enumerate(zip(self.roots, self.coroots)))
        covers = []
        for level, up in zip(self.levels, above):
            for u in self.elements[level.start : level.stop]:
                out = []
                for k, (beta, coroot) in roots:
                    # w s_beta has key s_beta(u) = u - <u, beta^vee> beta, and
                    # l(w s_beta) > l(w) exactly when <u, beta^vee> > 0.
                    c = sum(map(mul, u, coroot))
                    if c <= 0:
                        continue
                    # None: longer than the truncation.
                    target = index.get(tuple([x - c * b for x, b in zip(u, beta)]))
                    if target is not None and target in up:
                        out.append((k, target))
                out.sort(key=lambda pair: pair[1])
                covers.append(tuple(out))
        self.covers = tuple(covers)

    def __len__(self):
        return len(self.elements)


def weyl_group(
    rs: RootSystem, size_cap: int = DEFAULT_WEYL_CAP, max_length: int | None = None
) -> WeylGroup:
    return WeylGroup(rs, size_cap, max_length)


def chevalley_multiply(group: WeylGroup, i: int, w_idx: int) -> list[tuple[int, int]]:
    """Product of the i-th degree-2 Schubert class with sigma_w, w the element
    with index w_idx, as (coefficient, target index) pairs.

    Sum over positive roots beta with l(w s_beta) = l(w) + 1 of the pairing
    of the i-th fundamental weight with the coroot of beta, times the class
    of w s_beta.  Coefficients are nonnegative integers.  In a group truncated
    at length L, w must be shorter than L, or the product would lie outside it.
    """
    n = group.root_system.rank
    if not 1 <= i <= n:
        raise IndexError(f"degree-2 index {i} out of range 1..{n}")
    if not 0 <= w_idx < len(group):
        raise IndexError(f"element index {w_idx} out of range 0..{len(group) - 1}")
    if w_idx >= len(group.covers):
        # covers stops below the top level of a truncated group.
        raise ValueError(
            f"sigma_w with l(w) = {group.max_length} times a degree-2 class "
            f"leaves the group truncated at length {group.max_length}"
        )
    return [
        (group.coefficients[k][i - 1], target)
        for k, target in group.covers[w_idx]
        if group.coefficients[k][i - 1]
    ]


class E2Page(NamedTuple):
    group: GroupSpec
    coefficients: Coefficients
    max_total_degree: int
    weyl: WeylGroup
    # cells[(s, t)]: the positions of the cells of bidegree (s, t)
    cells: dict[tuple[int, int], range]
    # d2[(s, t)]: one row per basis element of (s, t), each a {column: value}
    # dict over the basis of (s + 2, t - 1) with the zeros left out
    d2: dict[tuple[int, int], tuple[dict[int, int], ...]]

    def __repr__(self):
        # weyl, cells and d2 can run to megabytes; leave them out
        return (
            f"E2Page(group={self.group!r}, coefficients={self.coefficients!r}, "
            f"max_total_degree={self.max_total_degree!r})"
        )


def total_degree_bound(t: LieType, max_total_degree: int | None) -> int:
    """max_total_degree, dim G when None, checked to lie in 0..dim G."""
    dim_g = t.dim_group
    if max_total_degree is None:
        return dim_g
    if not 0 <= max_total_degree <= dim_g:
        raise ValueError(
            f"max total degree {max_total_degree} is outside 0..dim G = {dim_g}"
        )
    return max_total_degree


def build_e2(
    g: GroupSpec,
    coefficients: Coefficients = None,
    max_total_degree: int | None = None,
    size_cap: int = DEFAULT_WEYL_CAP,
) -> E2Page:
    """The E2 page up to total degree max_total_degree (default dim G)."""
    rs = g.root_system
    n = rs.rank
    max_total_degree = total_degree_bound(rs.lie_type, max_total_degree)
    if coefficients is not None and not exactlin.is_prime(coefficients):
        raise ValueError(f"coefficient modulus {coefficients} is not prime")
    # A cell sigma_w (x) t_J has bidegree (2 l(w), |J|); cells reach total
    # degree max_total_degree + 1, so l(w) <= (max_total_degree + 1) // 2.
    # The Weyl group checks its size cap here, before any lattice work.
    weyl = weyl_group(rs, size_cap, (max_total_degree + 1) // 2)

    # faces[t][r] lists, for the r-th t-subset J of 1..n in lex order and
    # each J_j in it, (J_j - 1, Koszul sign (-1)^(j-1), rank of J minus J_j).
    # A d2 block leaves (s, t) with s + t <= max_total_degree, so no larger t
    # is read.
    faces = [()]
    rank_of = {(): 0}
    for t in range(1, min(n, max_total_degree) + 1):
        monos = tuple(itertools.combinations(range(1, n + 1), t))
        faces.append(tuple(
            tuple(
                (gen - 1, -1 if j % 2 else 1, rank_of[mono[:j] + mono[j + 1 :]])
                for j, gen in enumerate(mono)
            )
            for mono in monos
        ))
        rank_of = {mono: r for r, mono in enumerate(monos)}

    # Cells one degree past the cutoff so every outgoing d2 has its target.
    # A cell (w, J) of (2 l(w), |J|) sits at
    # (w - weyl.levels[l(w)].start) * C(n, |J|) + rank(J).
    cells = {
        (2 * length, t): range(len(level) * math.comb(n, t))
        for length, level in enumerate(weyl.levels)
        for t in range(n + 1)
        if 2 * length + t <= max_total_degree + 1
    }

    # d2(sigma_w (x) t_g) has coefficient paired[k][g] at sigma_{w s_beta_k}.
    paired = lattices.theta_coordinates(g, weyl.roots, weyl.coefficients)

    def d2_matrix(s: int, t: int) -> tuple[dict[int, int], ...]:
        # Covers of w have distinct targets and the faces of J are distinct,
        # so no two terms of a row share a column.
        width = math.comb(n, t - 1)
        # Covers have length l + 1, whose level starts where level l stops.
        level = weyl.levels[s // 2]
        rows = []
        for w_idx in level:
            covers = [
                ((target - level.stop) * width, paired[k])
                for k, target in weyl.covers[w_idx]
            ]
            for mono_faces in faces[t]:
                rows.append({
                    base + rest: sign * coeffs[g]
                    for g, sign, rest in mono_faces
                    for base, coeffs in covers
                    if coeffs[g]
                })
        return tuple(rows)

    d2_keys = sorted(
        (s, t) for (s, t) in cells if t >= 1 and s + t <= max_total_degree
    )
    d2 = {k: d2_matrix(*k) for k in d2_keys}

    return E2Page(g, coefficients, max_total_degree, weyl, cells, d2)


class GradedRanks(NamedTuple):
    ranks: dict[int, int]
    bidegree_ranks: dict[tuple[int, int], int]

    def as_tuple(self, up_to: int) -> tuple[int, ...]:
        return tuple(self.ranks.get(d, 0) for d in range(up_to + 1))


def e3_ranks(page: E2Page) -> GradedRanks:
    """Graded ranks of the homology of (E2, d2), summed along total degree."""
    ranks = {d: 0 for d in range(page.max_total_degree + 1)}
    bidegrees: dict[tuple[int, int], int] = {}
    # d2 o d2 = 0, so the image of the block into (s, t) lies in the kernel
    # of the block out of it.  The unit vectors off the leading columns of
    # that image span a complement of it, so the block out of (s, t) has the
    # same rank on those rows alone.  In increasing s the block into (s, t),
    # out of (s - 2, t + 1), is ranked first; it exists whenever its source
    # cell does, truncated pages included.  The page's modulus was checked
    # once, in build_e2.
    leading: dict[tuple[int, int], set[int]] = {}
    for (s, t), rows in sorted(page.d2.items()):
        image = leading.get((s - 2, t + 1), ())
        leading[(s, t)] = set(exactlin.echelon(
            (row for k, row in enumerate(rows) if k not in image), page.coefficients
        ))
    for (s, t), basis in sorted(page.cells.items()):
        if s + t > page.max_total_degree:
            continue
        rank_out = len(leading.get((s, t), ()))
        rank_in = len(leading.get((s - 2, t + 1), ()))
        e3 = len(basis) - rank_out - rank_in
        if e3 < 0:
            raise AssertionError(f"negative E3 rank {e3} at bidegree ({s}, {t})")
        if e3:
            bidegrees[(s, t)] = e3
            ranks[s + t] += e3
    return GradedRanks(ranks=ranks, bidegree_ranks=bidegrees)


def mirror_ranks(page: E2Page, ranks: GradedRanks, up_to: int) -> GradedRanks:
    """The E3 ranks of the page, ranks = e3_ranks(page), continued to total
    degree up_to by Poincare duality.

    H*(G/T; F) is a Poincare duality algebra of top degree 2N, N the number
    of positive roots, and the Koszul complex (E2, d2) of n degree-2 classes
    over it is self-dual (Bruns-Herzog, Cohen-Macaulay Rings, 1.6; Avramov-
    Golod 1971).  So E3^(s,t) and E3^(2N - s, n - t) have equal rank, and a
    page built to dim G // 2 gives every degree up to dim G.
    """
    t = page.group.root_system.lie_type
    built = page.max_total_degree
    dim_g = t.dim_group
    total_degree_bound(t, up_to)
    if up_to > built and built < dim_g // 2:
        raise ValueError(
            f"a page built to degree {built} < dim G // 2 = {dim_g // 2} "
            f"does not reach degree {up_to} by duality"
        )
    totals = {
        d: ranks.ranks.get(d if d <= built else dim_g - d, 0)
        for d in range(up_to + 1)
    }
    bidegrees = {
        (s, u): r for (s, u), r in ranks.bidegree_ranks.items() if s + u <= up_to
    }
    bidegrees.update(
        ((t.root_count - s, t.rank - u), r)
        for (s, u), r in ranks.bidegree_ranks.items()
        if built < dim_g - s - u <= up_to
    )
    return GradedRanks(ranks=totals, bidegree_ranks=bidegrees)
