import json

import pytest

from conftest import ALL_TYPES, cached_root_system
from transgress import cli, exactlin, fixtures
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
    def test_su_n_identity(self, rank, capsys):
        rs = cached_root_system(f"A{rank}")
        assert transgression_matrix(group_spec(rs, ())) == identity(rank)
        # The t_i label the rows where the CLI prints tau.
        assert cli.main(["tau", f"A{rank}", "--json"]) == 0
        matrix = json.loads(capsys.readouterr().out)["payload"]["matrix"]
        assert matrix["row_labels"] == [f"t_{i}" for i in range(1, rank + 1)]

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_adjoint_is_cartan_transpose(self, name):
        rs = cached_root_system(name)
        assert transgression_matrix(adjoint_spec(rs)) == transpose(rs.cartan)

    def test_psu2(self):
        rs = cached_root_system("A1")
        assert transgression_matrix(adjoint_spec(rs)) == ((2,),)


def in_kernel(kernel, coeffs, p):
    """Is sum coeffs[i] * t_{i+1} in the span of the kernel basis mod p?"""
    return exactlin.rank(kernel + (coeffs,), p) == len(kernel)


def class_is_nonzero(tau, coeffs, p):
    """Is sum coeffs[j] * omega_{j+1} off the image, the row space of tau mod p?"""
    return exactlin.rank(tau + (coeffs,), p) > exactlin.rank(tau, p)


class TestModP:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_adjoint_sp_n_mod_2(self, n):
        g = adjoint_spec(cached_root_system(f"C{n}"))
        kernel, cokernel = modp_analysis(g, 2)
        tau = transgression_matrix(g)
        assert len(kernel) == 1 and len(cokernel) == 1
        t_n = tuple(1 if i == n - 1 else 0 for i in range(n))
        omega_1 = tuple(1 if i == 0 else 0 for i in range(n))
        assert in_kernel(kernel, t_n, 2)
        assert class_is_nonzero(tau, omega_1, 2)
        # tau(t_1) is in the image, so its class is zero.
        assert not class_is_nonzero(tau, tau[0], 2)
        # The fixture checker makes the same two tests, and refuses a vector
        # of the wrong length.
        fx = {"spec": f"C{n}:adj", "p": 2, "kernel_dim": 1, "cokernel_dim": 1,
              "kernel_member": t_n, "cokernel_class": omega_1}
        assert fixtures._check_modp_table(fx) == (True, "")
        ok, detail = fixtures._check_modp_table({**fx, "kernel_member": omega_1})
        assert not ok and detail.endswith("not in kernel")
        ok, detail = fixtures._check_modp_table({**fx, "cokernel_class": tau[0]})
        assert not ok and detail.endswith("vanishes in cokernel")
        for key, v in (("cokernel_class", omega_1), ("kernel_member", t_n)):
            with pytest.raises(ValueError, match="wrong dimension"):
                fixtures._check_modp_table({**fx, key: v + (0,)})

    def test_adjoint_e6_mod_3(self):
        g = adjoint_spec(cached_root_system("E6"))
        kernel, cokernel = modp_analysis(g, 3)
        assert len(kernel) == 1 and len(cokernel) == 1
        assert in_kernel(kernel, (1, 0, -1, 0, 1, -1), 3)
        assert class_is_nonzero(transgression_matrix(g), (1, 0, 0, 0, 0, 0), 3)

    def test_adjoint_e7_mod_2(self):
        g = adjoint_spec(cached_root_system("E7"))
        kernel, cokernel = modp_analysis(g, 2)
        assert len(kernel) == 1 and len(cokernel) == 1
        assert in_kernel(kernel, (0, 1, 0, 0, 1, 0, 1), 2)
        assert class_is_nonzero(transgression_matrix(g), (0, 1, 0, 0, 0, 0, 0), 2)

    def test_su_n_isomorphism(self):
        g = group_spec(cached_root_system("A3"), ())
        for p in (2, 3, 5, 7):
            assert modp_analysis(g, p) == ((), ())

    def test_composite_p_rejected(self):
        g = group_spec(cached_root_system("A2"), ())
        with pytest.raises(ValueError):
            modp_analysis(g, 6)

    @pytest.mark.parametrize("name", ["A3", "C4", "D4", "E6"])
    def test_kernel_cokernel_dims_equal(self, name, capsys):
        rs = cached_root_system(name)
        for form, g in (("sc", group_spec(rs, ())), ("adj", adjoint_spec(rs))):
            for p in (2, 3, 5):
                kernel, cokernel = modp_analysis(g, p)
                assert len(kernel) == len(cokernel)
                # The CLI prints the same kernel, and isomorphism when it is 0.
                argv = ["tau", f"{name}:{form}", "--mod", str(p), "--json"]
                assert cli.main(argv) == 0
                mod = json.loads(capsys.readouterr().out)["payload"]["mod"]
                assert [tuple(e["coeffs"]) for e in mod["kernel"]] == list(kernel)
                assert mod["is_isomorphism"] == (len(kernel) == 0)


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
            d = abs(det(transgression_matrix(g)))
            primes = [p for p in range(2, d + 1)
                      if d % p == 0 and all(p % q for q in range(2, p))]
            assert singular_primes(g) == primes, (name, g.pi1_generators)


class TestFormatting:
    def test_combination_rendering(self):
        assert format_combination((1, 0, -1), "t") == "t_1-t_3"
        assert format_combination((0, 2, 1), "omega") == "2*omega_2+omega_3"
        assert format_combination((0, 0), "t") == "0"
