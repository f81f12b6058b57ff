import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_TYPES,
    cached_root_system,
    invariant_factors_by_minors,
    leibniz_det,
    minor_gcd,
)
from rational_reference import solve_integral
from transgress import exactlin
from transgress.exactlin import (
    as_matrix,
    det,
    MILLER_RABIN_BOUND,
    hermite_normal_form,
    identity,
    invariant_factors,
    is_prime,
    modp_kernel_cokernel,
    rank,
    solve_rational,
    transpose,
)


class TestSmith:
    """The invariant factors are the nonzero Smith diagonal."""

    def test_identity(self):
        assert invariant_factors(identity(3)) == (1, 1, 1)

    def test_a2_cartan(self):
        # by-hand row/column reduction
        assert invariant_factors([[2, -1], [-1, 2]]) == (1, 3)

    def test_zero(self):
        assert invariant_factors([[0, 0], [0, 0], [0, 0]]) == ()
        assert invariant_factors(()) == ()

    def test_negative_diagonal(self):
        # Already diagonal, so no Hermite form makes the entries positive.
        assert invariant_factors([[-1]]) == (1,)
        assert invariant_factors([[-4, 0], [0, 6]]) == (2, 12)

    def test_decomposition_equation(self):
        # d1 d2 ... dk is the gcd of the k x k minors; by hand, this matrix
        # has entries of gcd 2, 2 x 2 minors of gcd 4 (8, 16, 44, 24, ...)
        # and determinant 16.
        m = as_matrix([[6, 4, 2], [4, 4, 4], [2, 4, 8]])
        assert invariant_factors(m) == (2, 2, 4)
        assert invariant_factors(m) == invariant_factors_by_minors(m)

    def test_rank_and_det_agree_with_hermite(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = as_matrix(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            )
            factors = invariant_factors(m)
            h = hermite_normal_form(m)
            assert len(factors) == sum(1 for row in h if any(row))
            if det(m):
                prod = 1
                for x in factors:
                    prod *= x
                assert prod == abs(det(m))


square_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestDet:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices)
    def test_matches_leibniz_sum(self, rows):
        m = as_matrix(rows)
        assert det(m) == leibniz_det(m)

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_cartan_matrix_matches_leibniz_sum(self, name):
        cartan = cached_root_system(name).cartan
        assert det(cartan) == leibniz_det(cartan)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            det(((1, 2),))


def reduces_to_zero(v, h):
    """Does v lie in the row lattice of the echelon matrix h?"""
    v = list(v)
    for row in h:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            break
        q, r = divmod(v[lead], row[lead])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def assert_hermite_form_of(h, m):
    """h is in Hermite form and has the row lattice of m."""
    assert len(h) == len(m)
    leads = []
    for i, row in enumerate(h):
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            assert not any(any(r) for r in h[i:])
            break
        assert row[lead] > 0
        for k in range(i):
            assert 0 <= h[k][lead] < row[lead]
        leads.append(lead)
    assert leads == sorted(set(leads))
    # Same row lattice: each row of m lies in the lattice of h, and a
    # sublattice of the same rank with the same gcd of maximal minors is
    # the whole lattice.
    assert all(reduces_to_zero(row, h) for row in m)
    k = rank(m)
    assert rank(h) == k
    assert minor_gcd(h, k) == minor_gcd(m, k)


class TestHermite:
    def test_identity(self):
        assert hermite_normal_form(identity(4)) == identity(4)

    def test_two_by_two(self):
        assert hermite_normal_form([[2, 0], [1, 1]]) == as_matrix([[1, 1], [0, 2]])

    def test_zero_scalar(self):
        assert hermite_normal_form([[0]]) == as_matrix([[0]])

    def test_shape_invariants(self):
        rng = random.Random(13)
        for _ in range(50):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = as_matrix(
                [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            )
            assert_hermite_form_of(hermite_normal_form(m), m)

    def test_wrong_lattice_is_caught(self):
        # The checks above reject a Hermite-shaped matrix of another lattice.
        assert not reduces_to_zero((1, 1), ((2, 0), (0, 1)))
        with pytest.raises(AssertionError):
            assert_hermite_form_of(((1, 0), (0, 2)), ((1, 0), (0, 1)))


class TestSolve:
    def test_identity(self):
        b = as_matrix([[3, 1], [4, 1]])
        assert solve_rational(identity(2), b) == tuple(
            tuple(Fraction(x) for x in row) for row in b
        )

    def test_scalar(self):
        assert solve_rational([[2]], [[3]]) == ((Fraction(3, 2),),)

    def test_a2_inverse(self):
        x = solve_rational([[2, -1], [-1, 2]], identity(2))
        assert x == (
            (Fraction(2, 3), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(2, 3)),
        )

    def test_singular_distinct_from_nonintegral(self):
        # solve_rational refuses a singular matrix; a non-integral solution is
        # refused only by the integral oracle of the tests.
        with pytest.raises(ValueError, match="singular"):
            solve_rational([[1, 1], [1, 1]], identity(2))
        with pytest.raises(ValueError, match="singular"):
            solve_rational([[0]], [[1]])
        with pytest.raises(ValueError, match="not integral"):
            solve_integral([[2]], [[3]])


class TestModP:
    def test_identity_trivial(self):
        for p in (2, 3, 7):
            assert modp_kernel_cokernel(identity(3), p) == ((), ())

    def test_scalar_two_mod_two(self):
        assert modp_kernel_cokernel([[2]], 2) == (((1,),), ((1,),))

    def test_c2_chain(self):
        # rank-two Cartan matrix with an even column, reduced mod 2
        assert modp_kernel_cokernel([[2, -2], [-1, 2]], 2)[0] == ((0, 1),)

    def test_composite_modulus_rejected(self):
        for bad in (0, 1, 4, 9):
            with pytest.raises(ValueError, match=f"modulus {bad} is not prime"):
                modp_kernel_cokernel([[1]], bad)

    def test_rank_nullity(self):
        rng = random.Random(99)
        for _ in range(100):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = as_matrix(
                [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            )
            for p in (2, 3, 5):
                rank_p = rank(m, p)
                ker, coker = modp_kernel_cokernel(m, p)
                assert len(ker) == c - rank_p
                assert len(coker) == r - rank_p

    def test_kernel_is_reduced_echelon(self):
        ker, _ = modp_kernel_cokernel([[1, 2, 3], [0, 0, 0]], 5)
        pivots = [next(j for j, x in enumerate(v) if x) for v in ker]
        assert len(set(pivots)) == len(pivots)
        for v, piv in zip(ker, pivots):
            assert v[piv] == 1
            for w, other in zip(ker, pivots):
                if other != piv:
                    assert w[piv] == 0

    def test_contains(self):
        ker, _ = modp_kernel_cokernel([[2, -2], [-1, 2]], 2)
        assert rank(ker + ((0, 1),), 2) == len(ker)
        assert rank(ker + ((0, -1),), 2) == len(ker)
        assert rank(ker + ((1, 0),), 2) > len(ker)


small_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda r: st.integers(min_value=1, max_value=6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=300, deadline=None)
@given(small_matrices)
def test_smith_properties(rows):
    m = as_matrix(rows)
    factors = invariant_factors(m)
    assert factors == invariant_factors_by_minors(m)
    assert all(x > 0 for x in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert invariant_factors(transpose(m)) == factors


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_hermite_properties(rows):
    m = as_matrix(rows)
    assert_hermite_form_of(hermite_normal_form(m), m)


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division_below_ten_thousand(self):
        assert [n for n in range(-3, 10_000) if is_prime(n)] == [
            n for n in range(-3, 10_000) if trial_division_is_prime(n)
        ]

    @pytest.mark.parametrize("n", [
        999999999989,  # the largest 12-digit prime
        1000000000000000003,
        2**61 - 1,
        2**79 - 67,
    ])
    def test_large_primes(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [
        561,  # Carmichael
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to bases 2 .. 23
        318665857834031151167461,  # strong pseudoprime to bases 2 .. 37
        999999999989 * 1000000007,
        (2**61 - 1) * (2**13 - 1),
    ])
    def test_composites(self, n):
        assert not is_prime(n)

    def test_above_bound_refuses_and_names_bound(self):
        assert not is_prime(MILLER_RABIN_BOUND - 1)  # even
        with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
            is_prime(MILLER_RABIN_BOUND + 2)


def dense_fraction_rank(rows):
    """Rank over Q by dense Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


BIG_PRIME = 999999999989

# 0..6 rows and 0..6 columns with entries in [-9, 9], then some rows and
# columns zeroed.  By Hadamard's bound every minor is below 9^6 * 6^3 <
# BIG_PRIME, so rank mod BIG_PRIME equals rank over Q.
integer_matrices = st.integers(min_value=0, max_value=6).flatmap(
    lambda r: st.integers(min_value=0, max_value=6).flatmap(
        lambda c: st.tuples(
            st.lists(
                st.lists(st.integers(min_value=-9, max_value=9),
                         min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ),
            st.sets(st.integers(min_value=0, max_value=5)),
            st.sets(st.integers(min_value=0, max_value=5)),
        )
    )
).map(
    lambda t: tuple(
        tuple(0 if i in t[1] or j in t[2] else x for j, x in enumerate(row))
        for i, row in enumerate(t[0])
    )
)


@settings(max_examples=300, deadline=None)
@given(integer_matrices)
def test_rank_kernel(m):
    rank_q = rank(m)
    assert rank_q == dense_fraction_rank(m)
    assert rank([{j: x for j, x in enumerate(row) if x} for row in m]) == rank_q
    cols = len(m[0]) if m else 0
    for p in (2, 3, BIG_PRIME):
        rank_p = rank(m, p)
        assert rank_p <= rank_q
        if m:
            assert rank_p == cols - len(modp_kernel_cokernel(m, p)[0])
    assert rank(m, BIG_PRIME) == rank_q


def test_rank_of_empty_and_zero_matrices():
    assert rank(()) == 0
    assert rank(((), ())) == 0
    assert rank(((0, 0), (0, 0)), 3) == 0
    assert rank([{}, {5: 0}]) == 0


def test_rank_keeps_large_entries_exact():
    big = 10**40
    assert rank(((big, big + 1), (big + 1, big + 2))) == 2
    assert rank(((big, 2 * big), (3, 6))) == 1


def _span(vectors, p, n):
    """Every F_p-combination of the vectors, by brute force."""
    out = {(0,) * n}
    for v in vectors:
        out = {
            tuple((a + k * b) % p for a, b in zip(w, v)) for w in out for k in range(p)
        }
    return out


small_matrices = st.integers(min_value=0, max_value=3).flatmap(
    lambda r: st.integers(min_value=0, max_value=3).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(lambda rows: tuple(tuple(row) for row in rows))


@settings(max_examples=300, deadline=None)
@given(small_matrices, st.sampled_from([2, 3]))
def test_modp_subspaces_against_brute_force(m, p):
    # An oracle sharing no code with the eliminator: all of F_p^n enumerated.
    r, c = len(m), len(m[0]) if m else 0
    domain = list(itertools.product(range(p), repeat=c))

    ker, coker = modp_kernel_cokernel(m, p)
    null = {
        x for x in domain
        if all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in m)
    }
    assert _span(ker, p, c) == null
    leads = [next(j for j, x in enumerate(v) if x) for v in ker]
    assert leads == sorted(set(leads))
    for v, lead in zip(ker, leads):
        assert v[lead] == 1 and all(0 <= x < p for x in v)
        assert all(w[lead] == 0 for w in ker if w is not v)
    for x in domain:
        assert (rank(ker + (x,), p) == len(ker)) == (x in null)
        negative = tuple(a - p for a in x)
        assert (rank(ker + (negative,), p) == len(ker)) == (x in null)

    image = {
        tuple(sum(a * b for a, b in zip(row, x)) % p for row in m) for x in domain
    }
    reps = _span(coker, p, r)
    assert reps & image == {(0,) * r}
    assert len(reps) * len(image) == p**r

    rows = _span(m, p, c)
    for x in domain:
        assert (rank(m + (x,), p) == rank(m, p)) == (x in rows)
