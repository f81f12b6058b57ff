import pytest

from conftest import ALL_TYPES, cached_root_system
from transgress import (
    adjoint_spec,
    enumerate_pi1_choices,
    group_spec,
    modp_analysis,
    singular_primes,
    transgression_matrix,
)
from transgress.exactlin import det, identity, transpose
from transgress.transgression import format_combination


class TestMatrix:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_su_n_identity(self, rank):
        rs = cached_root_system(f"A{rank}")
        tau = transgression_matrix(group_spec(rs, ()))
        assert tau.matrix == identity(rank)
        assert tau.domain_labels == tuple(f"t_{i}" for i in range(1, rank + 1))

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_adjoint_is_cartan_transpose(self, name):
        rs = cached_root_system(name)
        tau = transgression_matrix(adjoint_spec(rs))
        assert tau.matrix == transpose(rs.cartan)

    def test_psu2(self):
        rs = cached_root_system("A1")
        assert transgression_matrix(adjoint_spec(rs)).matrix == ((2,),)


class TestModP:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_adjoint_sp_n_mod_2(self, n):
        g = adjoint_spec(cached_root_system(f"C{n}"))
        a = modp_analysis(g, 2)
        assert len(a.kernel) == 1 and len(a.cokernel) == 1
        assert not a.is_isomorphism
        t_n = tuple(1 if i == n - 1 else 0 for i in range(n))
        omega_1 = tuple(1 if i == 0 else 0 for i in range(n))
        assert a.kernel_contains(t_n)
        assert a.cokernel_class_is_nonzero(omega_1)
        # tau(t_1) is in the image, so its class is zero.
        assert not a.cokernel_class_is_nonzero(a.matrix[0])
        with pytest.raises(ValueError, match="wrong dimension"):
            a.cokernel_class_is_nonzero(omega_1 + (0,))
        with pytest.raises(ValueError, match="wrong dimension"):
            a.kernel_contains(t_n + (0,))

    def test_adjoint_e6_mod_3(self):
        g = adjoint_spec(cached_root_system("E6"))
        a = modp_analysis(g, 3)
        assert len(a.kernel) == 1 and len(a.cokernel) == 1
        assert a.kernel_contains((1, 0, -1, 0, 1, -1))
        assert a.cokernel_class_is_nonzero((1, 0, 0, 0, 0, 0))

    def test_adjoint_e7_mod_2(self):
        g = adjoint_spec(cached_root_system("E7"))
        a = modp_analysis(g, 2)
        assert len(a.kernel) == 1 and len(a.cokernel) == 1
        assert a.kernel_contains((0, 1, 0, 0, 1, 0, 1))
        assert a.cokernel_class_is_nonzero((0, 1, 0, 0, 0, 0, 0))

    def test_su_n_isomorphism(self):
        g = group_spec(cached_root_system("A3"), ())
        for p in (2, 3, 5, 7):
            assert modp_analysis(g, p).is_isomorphism

    def test_composite_p_rejected(self):
        g = group_spec(cached_root_system("A2"), ())
        with pytest.raises(ValueError):
            modp_analysis(g, 6)

    @pytest.mark.parametrize("name", ["A3", "C4", "D4", "E6"])
    def test_kernel_cokernel_dims_equal(self, name):
        rs = cached_root_system(name)
        for g in (group_spec(rs, ()), adjoint_spec(rs)):
            for p in (2, 3, 5):
                a = modp_analysis(g, p)
                assert len(a.kernel) == len(a.cokernel)
                assert a.is_isomorphism == (len(a.kernel) == 0)


class TestSingularPrimes:
    def test_adjoint_sp3(self):
        assert singular_primes(adjoint_spec(cached_root_system("C3"))) == [2]

    def test_adjoint_e6(self):
        assert singular_primes(adjoint_spec(cached_root_system("E6"))) == [3]

    def test_su4_empty(self):
        assert singular_primes(group_spec(cached_root_system("A3"), ())) == []

    def test_adjoint_su6(self):
        assert singular_primes(adjoint_spec(cached_root_system("A5"))) == [2, 3]

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_det_law(self, name):
        # singular_primes reads |pi1| off the closure count in group_spec;
        # the oracle factors |det tau| from the Fraction solve instead.
        rs = cached_root_system(name)
        for g in enumerate_pi1_choices(rs) + [adjoint_spec(rs)]:
            d = abs(det(transgression_matrix(g).matrix))
            primes = [p for p in range(2, d + 1)
                      if d % p == 0 and all(p % q for q in range(2, p))]
            assert singular_primes(g) == primes, (name, g.pi1_generators)


class TestFormatting:
    def test_combination_rendering(self):
        assert format_combination((1, 0, -1), "t") == "t_1-t_3"
        assert format_combination((0, 2, 1), "omega") == "2*omega_2+omega_3"
        assert format_combination((0, 0), "t") == "0"
