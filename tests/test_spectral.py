import math
from fractions import Fraction

import pytest

from conftest import (
    ALL_TYPES,
    cached_root_system,
    cached_weyl_group,
    d2_composites,
    dense_rows,
    length_counts,
    lex_least_words,
    reference_bidegree_ranks,
    reference_cells,
    reference_coroot_pairings,
    reference_covers,
    reference_d2,
)
from rational_reference import coroot_pairing, root_coordinates
from transgress import (
    adjoint_spec,
    build_e2,
    chevalley_multiply,
    e3_ranks,
    group_spec,
    parse_group_spec,
    weyl_group,
)
from transgress import lattices, spectral
from transgress.exactlin import rank
from transgress.lattices import enumerate_pi1_choices
from transgress.rootdata import invariant_degrees
from transgress.spectral import WeylCapExceededError
from transgress.transgression import modp_analysis, transgression_matrix


def exterior_poincare(degrees, up_to):
    """Independent oracle: graded dims of an exterior algebra on generators
    of degrees 2d-1."""
    poly = [1] + [0] * up_to
    for d in degrees:
        gen = 2 * d - 1
        new = poly[:]
        for k in range(up_to - gen + 1):
            new[k + gen] += poly[k]
        poly = new
    return poly


class TestWeylGroup:
    def test_a1(self):
        w = cached_weyl_group("A1")
        assert len(w) == 2
        assert length_counts(w) == (1, 1)

    def test_a2_generating_function(self):
        w = cached_weyl_group("A2")
        assert len(w) == 6
        assert length_counts(w) == (1, 2, 2, 1)

    def test_g2(self):
        w = cached_weyl_group("G2")
        assert len(w) == 12
        assert len(w.levels) - 1 == 6

    def test_canonical_words_are_lex_least(self):
        w = cached_weyl_group("A2")
        words = sorted(lex_least_words(w))
        # s1 s2 s1 = s2 s1 s2 is the long element; lex-least word wins
        assert (1, 2, 1) in words and (2, 1, 2) not in words

    def test_cap_refusal_names_order(self):
        rs = cached_root_system("A6")
        with pytest.raises(WeylCapExceededError, match="5040"):
            weyl_group(rs, size_cap=2000)

    @pytest.mark.parametrize("name", ["A3", "B3", "C2", "D4", "F4"])
    def test_order_formula(self, name):
        w = cached_weyl_group(name)
        assert len(w) == math.prod(invariant_degrees(w.root_system.lie_type))

    def test_top_length_is_positive_root_count(self):
        for name in ("A3", "B3", "G2"):
            w = cached_weyl_group(name)
            assert len(w.levels) - 1 == w.root_system.lie_type.root_count // 2

    @pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
    def test_words_are_first_in_shortlex_order(self, name):
        # lex_least_words is the oracle: it shares no code with the
        # enumeration, and it names every element by its key.
        w = cached_weyl_group(name)
        words = lex_least_words(w)
        lengths = [l for l, level in enumerate(w.levels) for _ in level]
        assert lengths == [len(u) for u in words]
        keys = [(len(u), u) for u in words]
        assert keys == sorted(keys)


class TestWeylDegrees:
    @pytest.mark.parametrize("name,degrees", [
        ("A1", (2,)), ("A2", (2, 3)), ("A3", (2, 3, 4)), ("C2", (2, 4)),
        ("B3", (2, 4, 6)), ("G2", (2, 6)), ("D4", (2, 4, 4, 6)),
        ("F4", (2, 6, 8, 12)),
    ])
    def test_known_degrees(self, name, degrees):
        assert invariant_degrees(cached_root_system(name).lie_type) == degrees

    @pytest.mark.parametrize("name", ["A4", "B4", "D5"])
    def test_degree_product_is_group_order(self, name):
        # The hand-written table against the enumerated group.
        w = cached_weyl_group(name)
        prod = 1
        for d in invariant_degrees(w.root_system.lie_type):
            prod *= d
        assert prod == len(w)


# Frozen A2 data for the independent Chevalley oracle: simple roots in
# weight coordinates and the Gram matrix of the fundamental weights.
A2_SIMPLE = ((2, -1), (-1, 2))
A2_GRAM = ((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)))
A2_POSITIVE = ((2, -1), (-1, 2), (1, 1))


def a2_inner(u, v):
    return sum(
        Fraction(u[i]) * A2_GRAM[i][j] * v[j] for i in range(2) for j in range(2)
    )


def a2_oracle(i, word_perm):
    """Brute-force Chevalley product for A2, with Weyl elements modeled as
    permutations of {0,1,2} (s1 swaps 0,1; s2 swaps 1,2)."""
    s = {1: (1, 0, 2), 2: (0, 2, 1)}

    def compose(p, q):  # p after q
        return tuple(p[q[k]] for k in range(3))

    def length(p):
        return sum(
            1 for a in range(3) for b in range(a + 1, 3) if p[a] > p[b]
        )

    def root_perm(beta):  # reflection in beta via a reduced expression
        perms = {
            (2, -1): s[1],
            (-1, 2): s[2],
            (1, 1): compose(compose(s[1], s[2]), s[1]),
        }
        return perms[beta]

    phi = (1, 0) if i == 1 else (0, 1)
    out = {}
    for beta in A2_POSITIVE:
        target = compose(word_perm, root_perm(beta))
        if length(target) != length(word_perm) + 1:
            continue
        coeff = 2 * a2_inner(phi, beta) / a2_inner(beta, beta)
        assert coeff.denominator == 1
        if coeff:
            out[target] = out.get(target, 0) + int(coeff)
    return out


def perm_of_word(word):
    s = {1: (1, 0, 2), 2: (0, 2, 1)}
    p = (0, 1, 2)
    for i in word:
        p = tuple(p[s[i][k]] for k in range(3))
    return p


class TestChevalley:
    def test_identity_gives_degree_two_class(self):
        for name in ("A2", "C2", "G2"):
            w = cached_weyl_group(name)
            words = lex_least_words(w)
            for i in range(1, w.root_system.rank + 1):
                terms = chevalley_multiply(w, i, 0)
                assert len(terms) == 1
                coeff, target = terms[0]
                assert coeff == 1 and words[target] == (i,)

    def test_a2_omega1_sigma_s1(self):
        w = cached_weyl_group("A2")
        words = lex_least_words(w)
        terms = chevalley_multiply(w, 1, words.index((1,)))
        assert [(c, words[t]) for c, t in terms] == [(1, (2, 1))]

    def test_a2_against_brute_force_oracle(self):
        w = cached_weyl_group("A2")
        words = lex_least_words(w)
        for e in range(len(w)):
            for i in (1, 2):
                got = {
                    perm_of_word(words[t]): c for c, t in chevalley_multiply(w, i, e)
                }
                assert got == a2_oracle(i, perm_of_word(words[e]))

    def test_a2_omega1_sigma_s2_frozen(self):
        # value frozen from the brute-force oracle above
        w = cached_weyl_group("A2")
        words = lex_least_words(w)
        terms = chevalley_multiply(w, 1, words.index((2,)))
        assert [(c, words[t]) for c, t in terms] == [(1, (1, 2)), (1, (2, 1))]

    def test_element_index_out_of_range(self):
        w = cached_weyl_group("A2")
        for bad in (-1, len(w)):
            with pytest.raises(IndexError, match="element index"):
                chevalley_multiply(w, 1, bad)

    @pytest.mark.parametrize("name", ["C2", "G2"])
    def test_coefficients_nonnegative_and_degree_raising(self, name):
        w = cached_weyl_group(name)
        words = lex_least_words(w)
        for e in range(len(w)):
            for i in range(1, w.root_system.rank + 1):
                for c, target in chevalley_multiply(w, i, e):
                    assert c > 0
                    assert len(words[target]) == len(words[e]) + 1


# Every type whose whole Weyl group is under the default size cap.
SMALL_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4",
    "D3", "D4", "D5", "F4", "G2",
]


class TestCovers:
    @pytest.mark.parametrize("max_length", [None, 0, 1, 2, 3])
    @pytest.mark.parametrize("name", SMALL_TYPES)
    def test_covers_match_reference(self, name, max_length):
        rs = cached_root_system(name)
        if max_length is None:
            w = cached_weyl_group(name)
        else:
            w = weyl_group(rs, max_length=max_length)
        assert set(w.roots) == set(reference_coroot_pairings(rs))
        got = {
            w_idx: tuple((w.roots[k], target) for k, target in covers)
            for w_idx, covers in enumerate(w.covers)
        }
        assert got == reference_covers(w)
        if w.max_length is None:
            return
        # The top level of a truncated group has no covers to multiply by.
        want = (
            f"sigma_w with l(w) = {max_length} times a degree-2 class "
            f"leaves the group truncated at length {max_length}"
        )
        for w_idx in w.levels[max_length]:
            with pytest.raises(ValueError) as refused:
                chevalley_multiply(w, 1, w_idx)
            assert str(refused.value) == want


# <alpha_i, alpha_j^vee> for the usual roots, Bourbaki numbering (Plates II,
# III, IX): B2 has alpha_1 long, C2 and G2 have alpha_1 short.
BOURBAKI_PAIRINGS = {
    "B2": {(1, 2): -2, (2, 1): -1},
    "C2": {(1, 2): -1, (2, 1): -2},
    "G2": {(1, 2): -1, (2, 1): -3},
}


class TestChevalleyCoefficient:
    @pytest.mark.parametrize("name", sorted(BOURBAKI_PAIRINGS))
    @pytest.mark.parametrize("j", [1, 2])
    def test_square_of_divisor_class(self, name, j):
        # sigma_{s_j}^2 = -<alpha_j, alpha_i^vee> sigma_{s_i s_j} (i != j):
        # the only cover of s_j with a nonzero omega_j pairing is s_j s_beta,
        # beta = s_j(alpha_i), and <omega_j, beta^vee> = -<alpha_j, alpha_i^vee>.
        i = 3 - j
        w = cached_weyl_group(name)
        words = lex_least_words(w)
        got = [(c, words[t]) for c, t in chevalley_multiply(w, j, words.index((j,)))]
        assert got == [(-BOURBAKI_PAIRINGS[name][(j, i)], (i, j))]

    def test_positive_roots_computed_once_per_page(self, monkeypatch):
        calls = []
        original = spectral.positive_roots

        def counting(rs):
            calls.append(rs)
            return original(rs)

        monkeypatch.setattr(spectral, "positive_roots", counting)
        rs = cached_root_system("B3")
        e3_ranks(build_e2(group_spec(rs, ()), coefficients=2))
        assert len(calls) == 1


class TestE2Page:
    def test_su2_cells_and_d2(self):
        g = group_spec(cached_root_system("A1"), ())
        page = build_e2(g)
        assert set(page.cells) == {(0, 0), (0, 1), (2, 0), (2, 1)}
        assert all(len(b) == 1 for b in page.cells.values())
        assert dense_rows(page.d2[(0, 1)], len(page.cells[(2, 0)])) == ((1,),)

    def test_psu2_d2_is_multiplication_by_two(self):
        g = adjoint_spec(cached_root_system("A1"))
        page = build_e2(g)
        assert dense_rows(page.d2[(0, 1)], len(page.cells[(2, 0)])) == ((2,),)

    def test_faces_only_to_the_page_degree(self, monkeypatch):
        # A d2 block leaves (s, t) with s + t <= the page's degree, so no
        # exterior degree above it is tabulated.
        sizes = []
        combinations = spectral.itertools.combinations

        def recording(pool, r):
            sizes.append(r)
            return combinations(pool, r)

        monkeypatch.setattr(spectral.itertools, "combinations", recording)
        page = build_e2(group_spec(cached_root_system("A12"), ()), None, 2)
        assert sizes and max(sizes) <= 2
        assert len(page.cells[(0, 3)]) == math.comb(12, 3)

    def test_total_dimension(self):
        for name in ("A2", "C2"):
            g = group_spec(cached_root_system(name), ())
            page = build_e2(g)
            total = sum(
                len(b)
                for (s, t), b in page.cells.items()
                if s + t <= page.max_total_degree
            )
            n = g.rank
            assert total == len(page.weyl) * 2**n

    # e3_ranks ranks each block on a complement of its incoming image, which
    # is exact only because d2 o d2 = 0; the pages of the benchmark included.
    @pytest.mark.parametrize("spec,p,degree", [
        pytest.param("A2:sc", None, None, id="A2:sc"),
        pytest.param("C2:sc", None, None, id="C2:sc"),
        pytest.param("G2:sc", None, None, id="G2:sc"),
        pytest.param("A2:adj", None, None, id="A2:adj"),
        pytest.param("B3:sc", None, None, id="B3:sc"),
        pytest.param("C3:adj", None, None, id="C3:adj"),
        pytest.param("A4:sc", None, 8, id="A4:sc-deg8"),
        pytest.param("B4:sc", 2, 5, id="B4:sc-mod2-deg5"),
        pytest.param("C4:sc", 2, 5, id="C4:sc-mod2-deg5"),
        pytest.param("F4:sc", 2, 3, id="F4:sc-mod2-deg3"),
        pytest.param("D5:sc", 2, 3, id="D5:sc-mod2-deg3"),
    ])
    def test_d2_squares_to_zero(self, spec, p, degree):
        # The d2 entries are integers on every page, so the composite is
        # checked over Z, which also gives it mod p.
        page = build_e2(
            parse_group_spec(spec), coefficients=p, max_total_degree=degree
        )
        composites = d2_composites(page)
        assert composites
        for (s, t), entries in composites.items():
            assert not entries, (
                f"d2 o d2 out of ({s}, {t}) has entry {entries[0][2]} at "
                f"(row {entries[0][0]}, column {entries[0][1]})"
            )

    @pytest.mark.parametrize("spec,p,degree", [
        ("G2:sc", None, None),
        ("B3:sc", 2, None),
        ("C3:adj", None, 7),
        ("A4:adj", 5, 8),
        ("D4:sc", None, 9),
        ("F4:sc", 3, 6),
        ("C3:adj", None, None),
        ("G2:adj", None, None),
        ("A3:pi1=[0,1,0]", 2, None),
        ("D4:pi1=[1,0,0,0]", 2, None),
    ])
    def test_d2_blocks_match_reference_assembly(self, spec, p, degree):
        # No two terms of a d2 row share a column, so build_e2 writes each
        # entry once; the reference sums the terms per target cell.
        page = build_e2(
            parse_group_spec(spec), coefficients=p, max_total_degree=degree
        )
        reference = reference_d2(page)
        assert page.cells == {
            key: range(len(cells)) for key, cells in reference_cells(page).items()
        }
        assert list(page.d2) == list(reference)
        for key, rows in page.d2.items():
            assert rows == reference[key], f"d2 block out of {key}"

    def test_degree_cap_validated(self):
        g = group_spec(cached_root_system("A1"), ())
        with pytest.raises(ValueError):
            build_e2(g, max_total_degree=100)

    def test_composite_coefficients_rejected(self):
        g = group_spec(cached_root_system("A1"), ())
        with pytest.raises(ValueError):
            build_e2(g, coefficients=4)

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_theta_coordinates_are_tau_pairings(self, name):
        # On every form, the d2 coefficient of beta_k read off theta is the
        # tau-based sum over l of tau[g][l] times beta_k's l-th simple-root
        # coordinate.
        rs = cached_root_system(name)
        weyl = weyl_group(rs, max_length=0)
        for g in [adjoint_spec(rs)] + enumerate_pi1_choices(rs):
            tau = transgression_matrix(g)
            want = tuple(
                tuple(sum(t * c for t, c in zip(tau_g, coeffs)) for tau_g in tau)
                for coeffs in weyl.coefficients
            )
            got = lattices.theta_coordinates(g, weyl.roots, weyl.coefficients)
            assert got == want, g.pi1_generators

    def test_cap_refusal_comes_before_lattice_work(self, monkeypatch):
        # A7 has 40320 Weyl elements; the refusal must not wait for theta.
        def no_lattice_work(*args):
            raise AssertionError("lattice work before the Weyl cap check")

        groups = [
            adjoint_spec(cached_root_system("A7")),
            parse_group_spec("A7:pi1=[0,1,0,0,0,0,0]"),
        ]
        for name in ("theta_coordinates", "hermite_coordinates", "transition_matrix"):
            monkeypatch.setattr(lattices, name, no_lattice_work)
        for g in groups:
            with pytest.raises(WeylCapExceededError, match="40320"):
                build_e2(g)

    @pytest.mark.parametrize("spec", ["G2:sc", "B3:sc", "C3:adj"])
    @pytest.mark.parametrize("p", [None, 2])
    def test_d2_rows_are_sparse_dicts(self, spec, p):
        page = build_e2(parse_group_spec(spec), coefficients=p)
        assert page.d2
        for (s, t), m in page.d2.items():
            assert len(m) == len(page.cells[(s, t)])
            width = len(page.cells.get((s + 2, t - 1), ()))
            for row in m:
                assert isinstance(row, dict)
                assert all(x != 0 for x in row.values())
                assert all(0 <= col < width for col in row)


class TestE3Ranks:
    def test_su2_rational(self):
        g = group_spec(cached_root_system("A1"), ())
        ranks = e3_ranks(build_e2(g))
        assert ranks.as_tuple(3) == (1, 0, 0, 1)

    def test_psu2_mod_2(self):
        g = adjoint_spec(cached_root_system("A1"))
        ranks = e3_ranks(build_e2(g, coefficients=2))
        assert ranks.as_tuple(3) == (1, 1, 1, 1)

    def test_psu2_rational_matches_su2(self):
        g = adjoint_spec(cached_root_system("A1"))
        ranks = e3_ranks(build_e2(g))
        assert ranks.as_tuple(3) == (1, 0, 0, 1)

    def test_su3_poincare_polynomial(self):
        # (1 + q^3)(1 + q^5)
        g = group_spec(cached_root_system("A2"), ())
        ranks = e3_ranks(build_e2(g))
        assert ranks.as_tuple(8) == (1, 0, 0, 1, 0, 1, 0, 0, 1)

    def test_euler_characteristic_zero(self):
        g = group_spec(cached_root_system("C2"), ())
        ranks = e3_ranks(build_e2(g))
        chi = sum((-1) ** d * r for d, r in ranks.ranks.items())
        assert chi == 0
        assert ranks.ranks[0] == 1

    @pytest.mark.parametrize("name,p", [("C2", 2), ("C3", 2), ("A2", 3)])
    def test_adjoint_d2_rank_ties_to_kernel(self, name, p):
        g = adjoint_spec(cached_root_system(name))
        page = build_e2(g, coefficients=p, max_total_degree=4)
        n = g.rank
        kernel, _ = modp_analysis(g, p)
        kernel_dim = len(kernel)
        assert rank(page.d2[(0, 1)], p) == n - kernel_dim

    @pytest.mark.parametrize("spec,p,degree", [
        ("G2:sc", None, None),
        ("A3:sc", None, None),
        ("B3:sc", None, None),
        ("C3:adj", None, None),
        ("A4:sc", None, 8),
        ("D4:sc", None, None),
        *[
            (spec, p, degree)
            for p in (2, 3)
            for spec, degree in [
                ("B3:sc", None), ("C3:sc", None), ("B4:sc", 12), ("F4:sc", 6)
            ]
        ],
        ("A2:sc", 999999999989, None),
    ])
    def test_bidegree_ranks_match_whole_block_ranks(self, spec, p, degree):
        page = build_e2(
            parse_group_spec(spec), coefficients=p, max_total_degree=degree
        )
        assert e3_ranks(page).bidegree_ranks == reference_bidegree_ranks(page)


class TestRationalAcceptanceOracle:
    @pytest.mark.parametrize("name", ["A1", "A2", "C2", "G2"])
    def test_e3_matches_exterior_algebra(self, name):
        rs = cached_root_system(name)
        g = group_spec(rs, ())
        page = build_e2(g)
        dim_g = rs.lie_type.dim_group
        want = exterior_poincare(invariant_degrees(rs.lie_type), dim_g)
        assert list(e3_ranks(page).as_tuple(dim_g)) == want


# Invariant degrees and torsion primes, written out by hand (Borel 1953;
# Kac 1985): for simply connected G and p not a torsion prime, E3 mod p is
# the exterior algebra on generators of degrees 2d - 1.
SC_DEGREES = {
    "A1": (2,), "A2": (2, 3), "A3": (2, 3, 4), "A4": (2, 3, 4, 5),
    "B2": (2, 4), "B3": (2, 4, 6), "B4": (2, 4, 6, 8),
    "C2": (2, 4), "C3": (2, 4, 6), "C4": (2, 4, 6, 8),
    "D3": (2, 3, 4), "D4": (2, 4, 4, 6), "F4": (2, 6, 8, 12), "G2": (2, 6),
}
TORSION_PRIMES = {"B3": {2}, "B4": {2}, "D4": {2}, "F4": {2, 3}, "G2": {2}}


@pytest.mark.parametrize("name,p", [
    (name, p)
    for name in SC_DEGREES
    for p in (2, 3, 5)
    if p not in TORSION_PRIMES.get(name, ())
])
def test_sc_e3_mod_p_is_exterior_away_from_torsion(name, p):
    rs = cached_root_system(name)
    page = build_e2(group_spec(rs, ()), coefficients=p)
    dim_g = rs.lie_type.dim_group
    want = exterior_poincare(SC_DEGREES[name], dim_g)
    assert list(e3_ranks(page).as_tuple(dim_g)) == want


# Fundamental groups as invariant factors, written out by hand: the center of
# the simply connected form is Z/(n+1) for A_n, Z/2 for B_n, C_n and E_7,
# Z/2 x Z/2 for D_n with n even and Z/3 for E_6.
PI1 = {
    "A2:adj": (3,), "A3:adj": (4,), "A5:adj": (6,), "C3:adj": (2,),
    "D4:adj": (2, 2), "D6:adj": (2, 2), "E6:adj": (3,), "E7:adj": (2,),
    "D4:sc": (),
}


@pytest.mark.parametrize("spec,p", [
    ("D4:adj", 2), ("D6:adj", 2), ("A3:adj", 2), ("C3:adj", 2), ("E7:adj", 2),
    ("A2:adj", 3), ("A5:adj", 3), ("E6:adj", 3), ("A3:adj", 3), ("D4:sc", 2),
])
def test_low_degrees_mod_p_follow_the_fundamental_group(spec, p):
    # Topology, not the page: in total degrees <= 2 no differential after d2
    # starts or ends (H^odd(G/T) = 0), so E3 there is H*(G; F_p).  The
    # universal cover of G is 2-connected, so G -> B(pi_1) is an isomorphism
    # on H^k for k <= 2, and for an abelian pi_1 of p-rank r those groups
    # have dimensions r and r + r(r-1)/2.
    r = sum(1 for f in PI1[spec] if f % p == 0)
    page = build_e2(parse_group_spec(spec), coefficients=p, max_total_degree=2)
    assert e3_ranks(page).as_tuple(2) == (1, r, r * (r + 1) // 2)


# Invariant degrees of the exceptional types, written out by hand (Bourbaki,
# Plates V-VII); the torsion primes are 2, 3 for E6, E7 and 2, 3, 5 for E8.
EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}


@pytest.mark.parametrize("name,p", [("E6", 5), ("E7", 5), ("E8", 7)])
def test_exceptional_e3_mod_p_is_exterior_in_low_degrees(name, p):
    rs = cached_root_system(name)
    page = build_e2(group_spec(rs, ()), coefficients=p, max_total_degree=7)
    want = exterior_poincare(EXCEPTIONAL_DEGREES[name], 7)
    assert list(e3_ranks(page).as_tuple(7)) == want


class TestTruncation:
    @pytest.mark.parametrize("name", ["A2", "B3", "G2", "D4", "F4"])
    def test_truncated_group_is_prefix_of_full_group(self, name):
        full = cached_weyl_group(name)
        full_words = lex_least_words(full)
        rs = full.root_system
        groups = [full]
        for length in range(len(full.levels)):
            w = weyl_group(rs, max_length=length)
            groups.append(w)
            want = [k for k, u in enumerate(full_words) if len(u) <= length]
            assert lex_least_words(w) == tuple(full_words[k] for k in want)
            assert w.elements == tuple(full.elements[k] for k in want)
        for w in groups:
            # The levels tile the indices in order, level l holding length l.
            words = lex_least_words(w)
            assert [i for level in w.levels for i in level] == list(range(len(w)))
            for l, level in enumerate(w.levels):
                assert all(len(words[i]) == l for i in level)

    def test_degree_table_counts_match_enumeration(self):
        small = [
            name for name in ALL_TYPES
            if math.prod(invariant_degrees(cached_root_system(name).lie_type)) <= 2000
        ]
        assert small == SMALL_TYPES
        for name in small:
            counts = length_counts(cached_weyl_group(name))
            t = cached_root_system(name).lie_type
            order = math.prod(invariant_degrees(t))
            assert spectral.length_count(t) == order == sum(counts)
            for length in range(len(counts)):
                assert spectral.length_count(t, length) == sum(counts[: length + 1])

    @pytest.mark.parametrize("spec", ["G2:sc", "B3:sc", "C3:adj"])
    @pytest.mark.parametrize("p", [None, 2])
    def test_truncated_page_matches_full_page(self, spec, p):
        name, form = spec.split(":")
        rs = cached_root_system(name)
        g = group_spec(rs, ()) if form == "sc" else adjoint_spec(rs)
        full = build_e2(g, coefficients=p)
        full_ranks = e3_ranks(full)
        for degree in range(full.max_total_degree + 1):
            page = build_e2(g, coefficients=p, max_total_degree=degree)
            for key, m in page.d2.items():
                assert m == full.d2[key]
            ranks = e3_ranks(page)
            assert ranks.as_tuple(degree) == full_ranks.as_tuple(degree)
            assert ranks.bidegree_ranks == {
                (s, t): r
                for (s, t), r in full_ranks.bidegree_ranks.items()
                if s + t <= degree
            }

    def test_truncated_refusal_names_count_and_length(self):
        rs = cached_root_system("E8")
        assert len(weyl_group(rs, max_length=5)) == 1122
        with pytest.raises(WeylCapExceededError, match=r"2508 elements of length <= 6"):
            weyl_group(rs, max_length=6)

    def test_full_group_refusal_counts_the_whole_group(self):
        # A cap on a length that reaches the longest element is a full group.
        rs = cached_root_system("A6")
        with pytest.raises(WeylCapExceededError, match="has 5040 elements, above"):
            weyl_group(rs, max_length=21)

    def test_products_agree_below_the_truncation(self):
        full = cached_weyl_group("B3")
        w = weyl_group(full.root_system, max_length=3)
        words, full_words = lex_least_words(w), lex_least_words(full)
        for e, key in enumerate(w.elements):
            for i in (1, 2, 3):
                if len(words[e]) == 3:
                    with pytest.raises(ValueError, match="truncated at length 3"):
                        chevalley_multiply(w, i, e)
                    continue
                got = [(c, words[t]) for c, t in chevalley_multiply(w, i, e)]
                assert got == [
                    (c, full_words[t])
                    for c, t in chevalley_multiply(full, i, full.index[key])
                ]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            weyl_group(cached_root_system("A2"), max_length=-1)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_chevalley_root_data_against_fraction_path(name):
    # The group's integer root data against the rational reference path:
    # simple-root coordinates by solve_rational, coroot pairings by the
    # Gram matrix.
    rs = cached_root_system(name)
    w = weyl_group(rs, max_length=0)
    n = rs.rank
    unit = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    assert len(w.roots) == rs.lie_type.root_count // 2
    for beta, m, c in zip(w.roots, w.coefficients, w.coroots):
        assert m == root_coordinates(rs, beta)
        assert c == tuple(coroot_pairing(rs, e, beta) for e in unit)
