import functools
import itertools
from math import gcd

import pytest

from transgress import LieType, build_root_system, transgression_matrix, weyl_group
from transgress.exactlin import Matrix, Vector, det, dims, rank
from transgress.rootdata import invariant_degrees, positive_roots

from rational_reference import coroot_pairing, root_coordinates

# Every simple type at rank <= 8.
ALL_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@functools.lru_cache(maxsize=None)
def cached_root_system(name: str):
    return build_root_system(LieType(name[0], int(name[1:])))


@functools.lru_cache(maxsize=None)
def cached_weyl_group(name: str):
    return weyl_group(cached_root_system(name))


def generate_all_roots(
    cartan: Matrix, simple_roots: tuple[Vector, ...]
) -> frozenset[Vector]:
    """Closure of the simple roots under all simple reflections (BFS)."""
    n = len(cartan)

    def refl(v, i):
        return tuple(x - v[i] * a for x, a in zip(v, simple_roots[i]))

    roots = set(simple_roots)
    frontier = sorted(roots)
    while frontier:
        new = []
        for v in frontier:
            for i in range(n):
                w = refl(v, i)
                if w not in roots:
                    roots.add(w)
                    new.append(w)
        frontier = sorted(new)
    return frozenset(roots)


def positive_and_negative_roots(rs) -> frozenset[Vector]:
    """Phi = Phi+ u -Phi+, from the package's one root search."""
    positive = positive_roots(rs)
    return frozenset(positive) | {tuple(-x for x in v) for v in positive}


def leibniz_det(m: Matrix) -> int:
    """Sum over permutations of sign(pi) * prod m[i][pi(i)], the sign read off
    the inversion count: an oracle that shares no code with exactlin.det."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def minor_gcd(m: Matrix, k: int) -> int:
    """The k-th determinantal divisor of m: the gcd of its k x k minors, 0 when
    they all vanish (1 for k = 0)."""
    r, c = dims(m)
    g = 0
    for rows, cols in itertools.product(
        itertools.combinations(range(r), k), itertools.combinations(range(c), k)
    ):
        g = gcd(g, det(tuple(tuple(m[i][j] for j in cols) for i in rows)))
        if g == 1:
            break
    return g


def invariant_factors_by_minors(m: Matrix) -> tuple[int, ...]:
    """The nonzero invariant factors d_k = D_k / D_(k-1), D_k = minor_gcd(m, k):
    an oracle that shares no code with the Hermite-form loop."""
    factors, previous = [], 1
    for k in range(1, min(dims(m)) + 1):
        g = minor_gcd(m, k)
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return tuple(factors)


def length_counts(group):
    """Coefficients of the length generating function sum q^l(w), read off
    the enumerated elements."""
    return tuple(len(level) for level in group.levels)


def dense_rows(rows, width):
    """The sparse {column: value} rows of a d2 block as dense tuples, for a
    target cell of dimension width."""
    return tuple(tuple(row.get(j, 0) for j in range(width)) for row in rows)


@functools.lru_cache(maxsize=None)
def lex_least_words(group):
    """The lex-least reduced word of each element, by element index: words in
    (length, lex) order, each element named by its image of the regular
    weight rho = (1, ..., 1) under RootSystem.reflect, and the first word
    found for an image kept.  An oracle that shares no code with the
    enumeration, which appends letters and keys w by w^-1(rho).

    Words grow by prepending a letter, and only the words kept at one length
    grow into the next: a suffix of a lex-least reduced word is again one,
    because a smaller word for the suffix would give a smaller word for w.
    """
    rs = group.root_system
    n = rs.rank
    rho = (1,) * n
    first = {rho: ()}
    kept = {(): rho}  # words kept at the current length -> image of rho
    for _ in range(len(group.levels) - 1):
        # Prepending s_i to u maps u(rho) to s_i(u(rho)).
        images = {
            (i,) + u: rs.reflect(v, i)
            for u, v in kept.items()
            for i in range(1, n + 1)
        }
        kept = {}
        for word in sorted(images):
            if images[word] not in first:
                first[images[word]] = word
                kept[word] = images[word]
    words = [None] * len(group)
    for word in first.values():
        # The element w = s_(i_1) ... s_(i_k) has key w^-1(rho), s_(i_1) first.
        key = rho
        for i in word:
            key = rs.reflect(key, i)
        words[group.index[key]] = word
    if None in words:
        raise AssertionError(f"{words.count(None)} elements have no word")
    return tuple(words)


def reference_cells(page):
    """{(s, t): the cells (w_idx, J) of bidegree (s, t), in basis order}, with
    w running over the elements of length s / 2 and J over the t-subsets of
    1..n in lex order."""
    n = page.group.rank
    return {
        (s, t): [
            (w_idx, mono)
            for w_idx in page.weyl.levels[s // 2]
            for mono in itertools.combinations(range(1, n + 1), t)
        ]
        for s, t in page.cells
    }


@functools.lru_cache(maxsize=None)
def reference_coroot_pairings(rs):
    """{beta: (<e_1, beta^vee>, ..., <e_n, beta^vee>)} over the positive roots
    beta, the roots found by closure under the simple reflections
    (generate_all_roots) and kept when their simple-root coordinates are
    nonnegative, the pairings by rational_reference.coroot_pairing.  An
    oracle that shares no code with positive_roots or the integer coroots."""
    n = rs.rank
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    out = {}
    for beta in sorted(generate_all_roots(rs.cartan, rs.simple_roots)):
        if min(root_coordinates(rs, beta)) < 0:
            continue
        pairings = [coroot_pairing(rs, e, beta) for e in unit]
        if any(c.denominator != 1 for c in pairings):
            raise AssertionError(f"{beta}: coroot pairings {pairings}")
        out[beta] = tuple(int(c) for c in pairings)
    return out


def reference_covers(group):
    """{w_idx: ((beta, index of w s_beta), ...) sorted by index} for every
    element w of the group shorter than its truncation (every element of a
    whole group).

    w s_beta has key v - <v, beta^vee> beta, v the key of w, and the length
    of a key v is #{beta > 0 : <v, beta^vee> < 0}; a cover is a target in the
    group of length l(w) + 1.  An oracle that reads neither the levels nor the
    group's root data."""
    pairings = reference_coroot_pairings(group.root_system)

    def pair(v, beta):
        return sum(x * c for x, c in zip(v, pairings[beta]))

    @functools.cache
    def length(v):
        return sum(pair(v, beta) < 0 for beta in pairings)

    out = {}
    for w_idx, v in enumerate(group.elements):
        if group.max_length is not None and length(v) >= group.max_length:
            continue
        found = []
        for beta in pairings:
            target = tuple(x - pair(v, beta) * b for x, b in zip(v, beta))
            if target in group.index and length(target) == length(v) + 1:
                found.append((beta, group.index[target]))
        out[w_idx] = tuple(sorted(found, key=lambda cover: cover[1]))
    return out


def reference_d2(page):
    """The d2 blocks of a page, each term's target cell looked up by (target
    element index, remaining exterior indices) and the terms that land on one
    cell summed: the reference for build_e2's integer columns, from the
    reference covers and tau times the roots' simple-root coordinates."""
    cells = reference_cells(page)
    rs = page.group.root_system
    covers = reference_covers(page.weyl)
    tau = transgression_matrix(page.group)
    paired = {
        beta: tuple(
            int(sum(t * c for t, c in zip(tau_g, root_coordinates(rs, beta))))
            for tau_g in tau
        )
        for beta in reference_coroot_pairings(rs)
    }

    def d2_matrix(s, t):
        target = cells.get((s + 2, t - 1), ())
        pos = {b: k for k, b in enumerate(target)}
        rows = []
        for w_idx, mono in cells[(s, t)]:
            row = {}
            for j, gen in enumerate(mono):
                rest = mono[:j] + mono[j + 1 :]
                sign = -1 if j % 2 else 1
                for beta, tgt_idx in covers[w_idx]:
                    col = pos.get((tgt_idx, rest))
                    if col is not None:
                        row[col] = row.get(col, 0) + sign * paired[beta][gen - 1]
            rows.append({col: x for col, x in row.items() if x})
        return tuple(rows)

    return {key: d2_matrix(*key) for key in page.d2}


def reference_bidegree_ranks(page):
    """E3 ranks by bidegree with each d2 block ranked on all of its rows: the
    reference for e3_ranks, which ranks a block on a complement of its
    incoming image."""
    d2_ranks = {key: rank(m, page.coefficients) for key, m in page.d2.items()}
    out = {}
    for (s, t), basis in page.cells.items():
        if s + t > page.max_total_degree:
            continue
        e3 = len(basis) - d2_ranks.get((s, t), 0) - d2_ranks.get((s - 2, t + 1), 0)
        if e3:
            out[(s, t)] = e3
    return out


def d2_composites(page):
    """{(s, t): nonzero entries (row, column, value)} of the integer composite
    of the d2 block out of (s, t) with the block out of (s + 2, t - 1), for
    every bidegree where both exist.  A sparse product of the rows."""
    out = {}
    for (s, t), rows in sorted(page.d2.items()):
        follow = page.d2.get((s + 2, t - 1))
        if follow is None:
            continue
        entries = []
        for a, row in enumerate(rows):
            acc = {}
            for k, x in row.items():
                for b, y in follow[k].items():
                    acc[b] = acc.get(b, 0) + x * y
            entries += [(a, b, value) for b, value in sorted(acc.items()) if value]
        out[(s, t)] = entries
    return out


def exact_series_division(a, b):
    """a / b for integer polynomials (coefficient lists, lowest degree first)
    with b[0] = 1, raising AssertionError unless b divides a exactly."""
    if len(a) < len(b):
        raise AssertionError(f"{b} does not divide {a}")
    rem = list(a)
    quotient = []
    for i in range(len(a) - len(b) + 1):
        c = rem[i]
        quotient.append(c)
        for j, x in enumerate(b):
            rem[i + j] -= c * x
    if any(rem):
        raise AssertionError(f"{b} does not divide {a}: remainder {rem}")
    while len(quotient) > 1 and not quotient[-1]:
        quotient.pop()
    return quotient


def kac_factorisation(ranks, lie_type):
    """The degrees e_1 <= ... <= e_n of Kac's factorisation of a whole page,
    asserting that the page is R (x) Lambda(y_1, ..., y_n) in every bidegree.

    Kac (Invent. Math. 80, 1985): H*(G/T; F) is R (x) S/J as a module over
    S = H*(BT; F), R = E3^(*,0) the quotient by the image of tau, and J
    generated by a regular sequence of degrees 2 e_i.  So R(u) prod (1 - u^e_i)
    = prod (1 - u^d_i), u = q^2 and d_i the invariant degrees, and
    E3 = Tor^S(H*(G/T), F) = R (x) Lambda with y_i in bidegree (2 e_i - 2, 1).
    The e_i are peeled off lowest first by exact division.  An oracle that
    reads only row 0 and the invariant degrees.
    """
    page = ranks.bidegree_ranks
    row0 = {s: r for (s, t), r in page.items() if t == 0}
    if any(s % 2 for s in row0) or row0.get(0) != 1:
        raise AssertionError(f"row 0 is not a graded ring in even degrees: {row0}")
    series = [row0.get(2 * k, 0) for k in range(max(row0) // 2 + 1)]
    rest = [1]
    for d in invariant_degrees(lie_type):
        rest = [
            (rest[k] if k < len(rest) else 0) - (rest[k - d] if k >= d else 0)
            for k in range(len(rest) + d)
        ]
    rest = exact_series_division(rest, series)
    degrees = []
    for _ in range(lie_type.rank):
        e = next((k for k, x in enumerate(rest) if k and x), None)
        if e is None:
            raise AssertionError(f"only {degrees} peel off {lie_type}")
        degrees.append(e)
        rest = exact_series_division(rest, [1] + [0] * (e - 1) + [-1])
    if rest != [1]:
        raise AssertionError(f"{rest} is left after peeling off {degrees}")
    predicted = {}
    for t in range(lie_type.rank + 1):
        for ys in itertools.combinations(degrees, t):
            shift = sum(2 * e - 2 for e in ys)
            for s, r in row0.items():
                predicted[(s + shift, t)] = predicted.get((s + shift, t), 0) + r
    if predicted != dict(page):
        raise AssertionError(f"R (x) Lambda{tuple(degrees)} is not the page")
    return tuple(degrees)


@pytest.fixture(scope="session")
def root_system():
    return cached_root_system


@pytest.fixture(scope="session")
def weyl():
    return cached_weyl_group
