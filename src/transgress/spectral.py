"""E2 page of the fibration G -> G/T and its d2 homology.

The base cohomology H*(G/T) is carried by Schubert classes indexed by Weyl
group elements (degree twice the length); the fiber cohomology H*(T) is the
exterior algebra on t_1..t_n.  d2 sends sigma_w (x) t_i to
(omega-expansion of tau(t_i) multiplied into sigma_w) (x) 1, multiplication
by a degree-2 class being the Chevalley rule; the extension to higher
exterior degrees uses the Koszul sign (-1)^(j-1) on the j-th factor.

Coefficients are a field: None means the rationals, an int means Z_p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial

from . import exactlin, transgression
from .exactlin import Matrix, Vector
from .lattices import GroupSpec
from .rootdata import LieType, RootSystem, positive_roots, root_coordinates

DEFAULT_WEYL_CAP = 2000

Coefficients = int | None  # None = rationals, int p = prime field


class WeylCapExceededError(RuntimeError):
    def __init__(self, lie_type: LieType, order: int, cap: int):
        self.order = order
        super().__init__(
            f"Weyl group of {lie_type} has {order} elements, above the cap {cap}"
        )


def weyl_order(t: LieType) -> int:
    n = t.rank
    if t.family == "A":
        return factorial(n + 1)
    if t.family in "BC":
        return 2**n * factorial(n)
    if t.family == "D":
        return 2 ** (n - 1) * factorial(n)
    if t.family == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    if t.family == "F":
        return 1152
    return 12  # G2


@dataclass(frozen=True)
class WeylElement:
    word: tuple[int, ...]  # lexicographically least reduced word, 1-based
    action: Matrix  # row k = image of the k-th fundamental weight

    @property
    def length(self) -> int:
        return len(self.word)


def _reflection_matrix(rs: RootSystem, beta: Vector) -> Matrix:
    """Action matrix of the reflection in the root beta."""
    n = rs.rank
    rows = []
    for k in range(n):
        e_k = tuple(1 if j == k else 0 for j in range(n))
        c = rs.coroot_pairing(e_k, beta)
        if c.denominator != 1:
            raise AssertionError(f"coroot pairing of {e_k} with {beta} is {c}")
        rows.append(tuple(e_k[j] - int(c) * beta[j] for j in range(n)))
    return tuple(rows)


class WeylGroup:
    """Full enumeration with canonical (lex-least) reduced words."""

    def __init__(self, rs: RootSystem, size_cap: int = DEFAULT_WEYL_CAP):
        order = weyl_order(rs.lie_type)
        if order > size_cap:
            raise WeylCapExceededError(rs.lie_type, order, size_cap)
        self.root_system = rs
        n = rs.rank
        self.simple_actions = tuple(
            _reflection_matrix(rs, rs.simple_roots[i]) for i in range(n)
        )
        ident = exactlin.identity(n)
        elements = [WeylElement(word=(), action=ident)]
        seen = {ident}
        level = [elements[0]]
        # Each level is in word order and i ascends, so the words w.word + (i,)
        # come up in lex order: the first one found for an action is its
        # lex-least reduced word, and each new level is again in word order.
        while level:
            candidates: dict[Matrix, tuple[int, ...]] = {}
            for w in level:
                for i in range(1, n + 1):
                    # w' = w * s_i acts by v -> w(s_i(v)).
                    action = exactlin.mat_mul(self.simple_actions[i - 1], w.action)
                    if action not in seen and action not in candidates:
                        candidates[action] = w.word + (i,)
            level = [
                WeylElement(word=word, action=action)
                for action, word in candidates.items()
            ]
            seen.update(candidates)
            elements.extend(level)
        if len(elements) != order:
            raise AssertionError(
                f"enumerated {len(elements)} Weyl group elements, expected {order}"
            )
        self.elements = tuple(elements)
        self.index = {e.action: i for i, e in enumerate(self.elements)}
        self.by_length: dict[int, tuple[int, ...]] = {}
        for i, e in enumerate(self.elements):
            self.by_length.setdefault(e.length, [])
            self.by_length[e.length].append(i)
        self.by_length = {l: tuple(v) for l, v in self.by_length.items()}

    def __len__(self):
        return len(self.elements)

    @cached_property
    def chevalley_table(self) -> ChevalleyTable:
        return ChevalleyTable(self)

    @property
    def top_length(self) -> int:
        return max(self.by_length)

    def length_counts(self) -> tuple[int, ...]:
        """Coefficients of the length generating function sum q^l(w)."""
        return tuple(
            len(self.by_length.get(l, ())) for l in range(self.top_length + 1)
        )


def weyl_group(rs: RootSystem, size_cap: int = DEFAULT_WEYL_CAP) -> WeylGroup:
    return WeylGroup(rs, size_cap)


def _divide_poly(num: list[int], den: list[int]) -> list[int] | None:
    """Exact division of integer polynomials; None if not divisible."""
    if len(num) < len(den):
        return None
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(num[k + len(den) - 1], den[-1])
        if r:
            return None
        out[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    return out if not any(num[: len(den) - 1]) else None


def weyl_degrees(group: WeylGroup) -> tuple[int, ...]:
    """Invariant degrees d_1..d_n from factoring the length generating function
    as a product of q-integers 1 + q + ... + q^(d-1)."""
    poly = list(group.length_counts())
    n = group.root_system.rank
    degrees = []
    for _ in range(n):
        d = len(poly)  # largest q-integer dividing the remainder divides first
        while d >= 2:
            quotient = _divide_poly(poly, [1] * d)
            if quotient is not None:
                degrees.append(d)
                poly = quotient
                break
            d -= 1
        else:
            raise AssertionError("length generating function failed to factor")
    if poly != [1]:
        raise AssertionError("length generating function failed to factor")
    return tuple(sorted(degrees))


def _chevalley_coefficients(rs: RootSystem, beta: Vector) -> Vector:
    """<omega_i, beta^vee> for i = 1..n.

    Roots here live in L(T), so beta is a coroot of the usual presentation
    and these pairings are its coordinates in the simple-root basis.
    """
    coords = root_coordinates(rs, beta)
    if any(c.denominator != 1 or c < 0 for c in coords):
        raise AssertionError(f"positive root {beta} has coordinates {coords}")
    return tuple(int(c) for c in coords)


class ChevalleyTable:
    """Root data of the Chevalley rule for one Weyl group, computed once.

    For each positive root beta (in `positive_roots` order) it holds the
    action matrix of s_beta and the coefficient vector of beta.  The Bruhat
    covers of an element are computed on first use.
    """

    def __init__(self, group: WeylGroup):
        rs = group.root_system
        self.group = group
        self.roots = positive_roots(rs)
        self.reflections = tuple(_reflection_matrix(rs, b) for b in self.roots)
        self.coefficients = tuple(_chevalley_coefficients(rs, b) for b in self.roots)
        self._positive = frozenset(self.roots)
        self._covers: dict[int, tuple[tuple[int, int], ...]] = {}

    def covers(self, w_idx: int) -> tuple[tuple[int, int], ...]:
        """Pairs (root index k, index of w s_beta_k) with l(w s_beta_k) = l(w) + 1,
        sorted by element index."""
        if w_idx not in self._covers:
            group = self.group
            w = group.elements[w_idx]
            out = []
            for k, beta in enumerate(self.roots):
                # l(w s_beta) > l(w) exactly when w(beta) is positive.
                if exactlin.mat_mul((beta,), w.action)[0] not in self._positive:
                    continue
                action = exactlin.mat_mul(self.reflections[k], w.action)
                target = group.index[action]
                if group.elements[target].length == w.length + 1:
                    out.append((k, target))
            out.sort(key=lambda pair: pair[1])
            self._covers[w_idx] = tuple(out)
        return self._covers[w_idx]


def chevalley_multiply(
    group: WeylGroup, i: int, w: WeylElement
) -> list[tuple[int, WeylElement]]:
    """Product of the i-th degree-2 Schubert class with sigma_w.

    Sum over positive roots beta with l(w s_beta) = l(w) + 1 of the pairing
    of the i-th fundamental weight with the coroot of beta, times the class
    of w s_beta.  Coefficients are nonnegative integers.
    """
    n = group.root_system.rank
    if not 1 <= i <= n:
        raise IndexError(f"degree-2 index {i} out of range 1..{n}")
    table = group.chevalley_table
    # Targets share one length, so element-index order is word order.
    return [
        (table.coefficients[k][i - 1], group.elements[target])
        for k, target in table.covers(group.index[w.action])
        if table.coefficients[k][i - 1]
    ]


@dataclass(frozen=True)
class E2Page:
    group: GroupSpec
    coefficients: Coefficients
    max_total_degree: int
    weyl: WeylGroup = field(repr=False)
    # cell basis: tuples (weyl element index, exterior index tuple)
    cells: dict[tuple[int, int], tuple[tuple[int, tuple[int, ...]], ...]] = field(
        repr=False
    )
    # d2[(s, t)]: rows = basis of (s, t), cols = basis of (s + 2, t - 1)
    d2: dict[tuple[int, int], Matrix] = field(repr=False)

    def cell_dim(self, s: int, t: int) -> int:
        return len(self.cells.get((s, t), ()))


def build_e2(
    g: GroupSpec,
    coefficients: Coefficients = None,
    max_total_degree: int | None = None,
    size_cap: int = DEFAULT_WEYL_CAP,
    jobs: int = 1,
) -> E2Page:
    """The E2 page up to total degree max_total_degree (default dim G).

    jobs is accepted for compatibility and must be at least 1; the page is
    always built in one thread.
    """
    rs = g.root_system
    n = rs.rank
    dim_g = rs.lie_type.dim_group
    if max_total_degree is None:
        max_total_degree = dim_g
    if not 0 <= max_total_degree <= dim_g:
        raise ValueError(
            f"max total degree {max_total_degree} is outside 0..dim G = {dim_g}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if coefficients is not None and not exactlin.is_prime(coefficients):
        raise ValueError(f"coefficient modulus {coefficients} is not prime")
    tau = transgression.transgression_matrix(g).matrix
    weyl = weyl_group(rs, size_cap)

    # Cells one degree past the cutoff so every outgoing d2 has its target.
    cells: dict[tuple[int, int], tuple] = {}
    for length in range(weyl.top_length + 1):
        s = 2 * length
        for t in range(n + 1):
            if s + t > max_total_degree + 1:
                continue
            basis = tuple(
                (w_idx, mono)
                for w_idx in weyl.by_length[length]
                for mono in itertools.combinations(range(1, n + 1), t)
            )
            cells[(s, t)] = basis

    # d2(sigma_w (x) t_g) has coefficient paired[k][g] at sigma_{w s_beta_k}:
    # tau(t_g) = sum_l tau[g][l] omega_l, and omega_l contributes the l-th
    # coefficient of beta_k.
    table = weyl.chevalley_table
    paired = tuple(
        tuple(sum(t * c for t, c in zip(tau_g, coeffs)) for tau_g in tau)
        for coeffs in table.coefficients
    )

    def d2_matrix(s: int, t: int) -> Matrix:
        source = cells[(s, t)]
        target = cells.get((s + 2, t - 1), ())
        pos = {b: k for k, b in enumerate(target)}
        rows = []
        for w_idx, mono in source:
            row = [0] * len(target)
            for j, gen in enumerate(mono):
                rest = mono[:j] + mono[j + 1 :]
                sign = -1 if j % 2 else 1
                for k, tgt_idx in table.covers(w_idx):
                    key = (tgt_idx, rest)
                    if key in pos:
                        row[pos[key]] += sign * paired[k][gen - 1]
            rows.append(tuple(row))
        return tuple(rows)

    d2_keys = sorted(
        (s, t) for (s, t) in cells if t >= 1 and s + t <= max_total_degree
    )
    d2 = {k: d2_matrix(*k) for k in d2_keys}

    return E2Page(
        group=g,
        coefficients=coefficients,
        max_total_degree=max_total_degree,
        weyl=weyl,
        cells=cells,
        d2=d2,
    )


@dataclass(frozen=True)
class GradedRanks:
    ranks: dict[int, int]
    bidegree_ranks: dict[tuple[int, int], int]

    def as_tuple(self, up_to: int) -> tuple[int, ...]:
        return tuple(self.ranks.get(d, 0) for d in range(up_to + 1))

    @property
    def max_degree(self) -> int:
        return max(self.ranks)


def e3_ranks(page: E2Page) -> GradedRanks:
    """Graded ranks of the homology of (E2, d2), summed along total degree."""
    ranks: dict[int, int] = {
        d: 0 for d in range(page.max_total_degree + 1)
    }
    bidegrees: dict[tuple[int, int], int] = {}
    # The page's modulus was checked once, in build_e2.
    d2_ranks = {
        key: exactlin.rank(m, page.coefficients) for key, m in page.d2.items()
    }
    for (s, t), basis in sorted(page.cells.items()):
        if s + t > page.max_total_degree:
            continue
        rank_out = d2_ranks.get((s, t), 0)
        rank_in = d2_ranks.get((s - 2, t + 1), 0)
        e3 = len(basis) - rank_out - rank_in
        if e3 < 0:
            raise AssertionError(f"negative E3 rank {e3} at bidegree ({s}, {t})")
        if e3:
            bidegrees[(s, t)] = e3
            ranks[s + t] += e3
    return GradedRanks(ranks=ranks, bidegree_ranks=bidegrees)
