import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_TYPES,
    cached_root_system,
    generate_all_roots,
    positive_and_negative_roots,
    reference_coroot_pairings,
)
from rational_reference import coroot_pairing, inner, root_coordinates
from transgress import LieType, RootSystem, build_root_system
from transgress.exactlin import as_matrix, det, transpose
from transgress.rootdata import MAX_RANK, positive_roots, standard_cartan

CENTER_ORDERS = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2,
                 "D": lambda n: 4, "E": lambda n: {6: 3, 7: 2, 8: 1}[n],
                 "F": lambda n: 1, "G": lambda n: 1}


class TestLieType:
    @pytest.mark.parametrize(
        "family,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5),
                        ("E", 9), ("F", 3), ("G", 3), ("X", 2)])
    def test_invalid_rejected(self, family, rank):
        with pytest.raises(ValueError):
            LieType(family, rank)

    def test_c2_permitted(self):
        assert LieType("C", 2).rank == 2

    @pytest.mark.parametrize("family", "ABCD")
    def test_rank_ceiling(self, family):
        # Checked on the type alone, before any root data is built.
        assert LieType(family, MAX_RANK).rank == MAX_RANK
        too_high = MAX_RANK + 1
        with pytest.raises(ValueError, match=rf", {MAX_RANK}\], got {too_high}$"):
            LieType(family, too_high)


def test_root_system_holds_integer_data_only():
    assert RootSystem._fields == ("lie_type", "cartan")


class TestCartan:
    def test_a1(self):
        rs = cached_root_system("A1")
        assert rs.cartan == ((2,),)
        assert positive_and_negative_roots(rs) == frozenset({(2,), (-2,)})

    def test_a2(self):
        rs = cached_root_system("A2")
        assert rs.cartan == ((2, -1), (-1, 2))
        assert len(positive_and_negative_roots(rs)) == 6

    def test_c3_is_transpose_of_reference(self):
        # Arbitrated by the adjoint-Sp(n)-mod-2 kernel/cokernel fixtures: the
        # stored matrix must make t_n the mod-2 kernel generator.
        rs = cached_root_system("C3")
        assert rs.cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
        assert rs.cartan == transpose(standard_cartan(LieType("C", 3)))

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_cartan_shape(self, name):
        rs = cached_root_system(name)
        n = rs.rank
        for i in range(n):
            assert rs.cartan[i][i] == 2
            for j in range(n):
                if i != j:
                    assert rs.cartan[i][j] in (0, -1, -2, -3)
        assert det(rs.cartan) != 0

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_simple_roots_are_cartan_rows(self, name):
        rs = cached_root_system(name)
        assert rs.simple_roots == rs.cartan

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_gram_reproduces_cartan(self, name):
        rs = cached_root_system(name)
        n = rs.rank
        for i in range(n):
            for j in range(n):
                b = coroot_pairing(rs, rs.simple_roots[i], rs.simple_roots[j])
                assert b == rs.cartan[i][j]

    @pytest.mark.parametrize("name", ["A3", "D4", "E6", "E7", "E8"])
    def test_simply_laced_symmetric(self, name):
        rs = cached_root_system(name)
        assert rs.cartan == transpose(rs.cartan)

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_det_matches_center_order(self, name):
        rs = cached_root_system(name)
        t = rs.lie_type
        assert abs(det(rs.cartan)) == CENTER_ORDERS[t.family](t.rank)

    def test_gram_long_roots_have_length_two(self):
        rs = cached_root_system("C3")
        lengths = sorted({inner(rs, a, a) for a in rs.simple_roots})
        assert max(lengths) == 2


class TestReflect:
    def test_a2_example(self):
        rs = cached_root_system("A2")
        assert rs.reflect((1, 0), 1) == (-1, 1)

    def test_fixes_origin(self):
        rs = cached_root_system("G2")
        assert rs.reflect((0, 0), 1) == (0, 0)
        assert rs.reflect((0, 0), 2) == (0, 0)

    def test_index_out_of_range(self):
        rs = cached_root_system("A2")
        with pytest.raises(IndexError):
            rs.reflect((1, 0), 0)
        with pytest.raises(IndexError):
            rs.reflect((1, 0), 3)

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.integers(-5, 5)] * 3), st.integers(1, 3))
    def test_involution(self, v, i):
        rs = cached_root_system("B3")
        assert rs.reflect(rs.reflect(v, i), i) == v

    def test_preserves_inner_product(self):
        rs = cached_root_system("G2")
        u, v = (1, 2), (3, -1)
        for i in (1, 2):
            assert inner(rs, rs.reflect(u, i), rs.reflect(v, i)) == inner(rs, u, v)


class TestRootGeneration:
    @pytest.mark.parametrize("name,count", [
        ("A1", 2), ("G2", 12), ("D4", 24), ("F4", 48), ("E6", 72),
    ])
    def test_counts(self, name, count):
        roots = positive_and_negative_roots(cached_root_system(name))
        assert len(roots) == count

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_classical_cardinalities(self, name):
        rs = cached_root_system(name)
        assert len(positive_and_negative_roots(rs)) == rs.lie_type.root_count

    @pytest.mark.parametrize("name", ["A2", "C3", "G2"])
    def test_closed_under_negation_and_reflection(self, name):
        rs = cached_root_system(name)
        roots = positive_and_negative_roots(rs)
        for v in roots:
            assert tuple(-x for x in v) in roots
            for i in range(1, rs.rank + 1):
                assert rs.reflect(v, i) in roots

    def test_generation_order_independent(self):
        # oracle: plain fixed-point iteration without the BFS frontier,
        # visiting generators in reverse order
        rs = cached_root_system("C3")
        roots = set(rs.simple_roots)
        changed = True
        while changed:
            changed = False
            for v in sorted(roots, reverse=True):
                for i in range(rs.rank, 0, -1):
                    w = rs.reflect(v, i)
                    if w not in roots:
                        roots.add(w)
                        changed = True
        assert frozenset(roots) == positive_and_negative_roots(rs)
        regenerated = generate_all_roots(rs.cartan, rs.simple_roots)
        assert regenerated == frozenset(roots)

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_positive_roots_against_the_rational_reference(self, name):
        # Each root's simple-root coordinates and coroot pairings, carried
        # along the search, against the Fraction path; the roots in order of
        # height, then coordinates.
        rs = cached_root_system(name)
        n = rs.rank
        unit = [tuple(int(j == k) for j in range(n)) for k in range(n)]
        roots = positive_roots(rs)
        assert set(roots) == set(reference_coroot_pairings(rs))
        for beta, (m, c) in roots.items():
            assert m == root_coordinates(rs, beta)
            assert c == tuple(coroot_pairing(rs, e, beta) for e in unit)
        assert list(roots) == sorted(roots, key=lambda v: (sum(roots[v][0]), v))

    def test_positive_roots_checks_the_count(self):
        # The B2 Cartan matrix under the A2 label: the search finds 4 positive
        # roots where A2 has 3, and the count check is the one that catches it.
        b2 = cached_root_system("B2")
        mislabelled = RootSystem(LieType("A", 2), b2.cartan)
        with pytest.raises(AssertionError, match="found 4 positive roots, expected 3"):
            positive_roots(mislabelled)
