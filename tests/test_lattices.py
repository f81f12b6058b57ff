import contextlib
import io
import itertools
import math
import sys

import pytest

from conftest import ALL_TYPES, cached_root_system
from rational_reference import solve_integral
from transgress import cli, exactlin, lattices
from transgress import (
    adjoint_spec,
    center_group,
    enumerate_pi1_choices,
    group_spec,
    parse_group_spec,
    transition_matrix,
    unit_lattice_basis,
)
from transgress.exactlin import (
    as_matrix,
    det,
    hermite_normal_form,
    identity,
    transpose,
)
from transgress.groupspec import canonical_spec_string
from transgress.lattices import (
    GroupSpec,
    LatticeConsistencyError,
    hermite_coordinates,
)


class TestCenterGroup:
    @pytest.mark.parametrize("name,factors", [
        ("A1", (2,)), ("A3", (4,)), ("E8", ()), ("D4", (2, 2)),
        ("D5", (4,)), ("E6", (3,)), ("E7", (2,)), ("C4", (2,)), ("B5", (2,)),
    ])
    def test_invariant_factors(self, name, factors):
        assert center_group(cached_root_system(name)) == factors

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_factor_product_is_cartan_det(self, name):
        rs = cached_root_system(name)
        assert math.prod(center_group(rs)) == abs(det(rs.cartan))


class TestSubgroupEnumeration:
    @pytest.mark.parametrize("name,count", [
        ("A1", 2),   # Z2
        ("A3", 3),   # Z4: divisor lattice of 4
        ("D4", 5),   # Z2 x Z2: Klein group
        ("A2", 2),   # Z3
        ("E8", 1),   # trivial
    ])
    def test_subgroup_counts(self, name, count):
        rs = cached_root_system(name)
        subs = enumerate_pi1_choices(rs)
        assert len(subs) == count
        assert subs[0].pi1_order == 1
        assert subs[-1].pi1_order == math.prod(center_group(rs))

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_full_center_is_the_hnf_box(self, name):
        # Oracle sharing no code with the subgroup closure: the canonical coset
        # representatives of Z^n / (root lattice) are the integer points of
        # the box 0 <= v_i < H_ii, H the Hermite normal form of the Cartan matrix.
        rs = cached_root_system(name)
        h = hermite_normal_form(rs.cartan)
        box = tuple(itertools.product(*(range(h[i][i]) for i in range(rs.rank))))
        elements = tuple(sorted(lattices._closure(identity(rs.rank), h)))
        assert elements == box
        assert len(elements) == abs(det(rs.cartan))
        assert enumerate_pi1_choices(rs)[-1].pi1_order == len(box)

    def test_d4_labels_stable(self):
        rs = cached_root_system("D4")
        labels = [g.form for g in enumerate_pi1_choices(rs)]
        assert labels[0] == "sc" and labels[-1] == "adj"
        assert len(set(labels)) == len(labels)
        assert enumerate_pi1_choices(rs) == enumerate_pi1_choices(rs)

    def test_record_of_the_wrong_order_is_a_consistency_error(self, monkeypatch):
        original = lattices.group_spec

        def off_by_one(rs, generators=()):
            g = original(rs, generators)
            return g._replace(pi1_order=g.pi1_order + 1)

        monkeypatch.setattr(lattices, "group_spec", off_by_one)
        with pytest.raises(LatticeConsistencyError, match="is not 1"):
            enumerate_pi1_choices(cached_root_system("A2"))

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_every_spelling_of_a_subgroup_gives_its_record(self, name):
        # One or two generators from the box of coset representatives, and
        # the multiples k omega_i (k <= 3), name each subgroup many ways; each
        # spelling must parse to the record that enumerate_pi1_choices gives
        # for the same unit lattice.
        rs = cached_root_system(name)
        h = hermite_normal_form(rs.cartan)
        box = list(itertools.product(*(range(h[i][i]) for i in range(rs.rank))))
        by_theta = {g.theta: g for g in enumerate_pi1_choices(rs)}
        spellings = [[v] for v in box] + [[v, w] for v in box for w in box]
        spellings += [[tuple(k * x for x in w)] for w in identity(rs.rank) for k in (1, 2, 3)]
        wrong = []
        for gens in spellings:
            spec = f"{name}:pi1=[" + ";".join(",".join(map(str, v)) for v in gens) + "]"
            g = parse_group_spec(spec)
            want = by_theta[g.theta]
            got = (canonical_spec_string(g), g.pi1_order)
            if got != (canonical_spec_string(want), want.pi1_order):
                wrong.append((spec, got))
        assert wrong == []


class TestUnitLattice:
    def test_simply_connected_theta_is_simple_roots(self):
        rs = cached_root_system("C3")
        g = group_spec(rs, ())
        assert g.theta == rs.cartan

    def test_adjoint_theta_is_identity(self):
        rs = cached_root_system("C3")
        assert adjoint_spec(rs).theta == identity(3)

    def test_psu2(self):
        rs = cached_root_system("A1")
        g = adjoint_spec(rs)
        assert g.theta == identity(1)
        assert transition_matrix(g) == ((2,),)

    def test_rank_deficient_basis_raises(self):
        # A singular stand-in for the Cartan matrix leaves zeros on the
        # diagonal of the Hermite form of the stacked rows.
        for cartan, gen in [(((1, 1), (1, 1)), (1, 1)), (((0, 1), (0, 1)), (0, 2))]:
            rs = cached_root_system("A2")._replace(cartan=cartan)
            with pytest.raises(LatticeConsistencyError, match="rank deficient"):
                unit_lattice_basis(rs, (gen,), False)

    def test_generator_wrong_length_rejected(self):
        rs = cached_root_system("A2")
        with pytest.raises(ValueError):
            group_spec(rs, [(1, 0, 0)])

    def test_intermediate_d4(self):
        rs = cached_root_system("D4")
        proper = [g for g in enumerate_pi1_choices(rs) if 1 < g.pi1_order < 4]
        assert len(proper) == 3
        for g in proper:
            assert g.form.startswith("pi1=") and g.pi1_generators
            assert group_spec(rs, g.pi1_generators) == g
            assert abs(det(g.theta)) == abs(det(rs.cartan)) // g.pi1_order


class TestHermiteCoordinates:
    def test_forward_substitution(self):
        theta = ((2, 1, 0), (0, 3, -1), (0, 0, 1))
        for x in [(0, 0, 0), (1, 0, 0), (-2, 5, 7), (3, -1, 4)]:
            v = tuple(sum(x[i] * theta[i][j] for i in range(3)) for j in range(3))
            assert hermite_coordinates(theta, v) == x

    def test_vector_off_the_lattice_raises(self):
        with pytest.raises(LatticeConsistencyError, match="not integral"):
            hermite_coordinates(((2, 0), (0, 1)), (1, 0))


# Types whose center is nontrivial: all but E8, F4 and G2.
NONTRIVIAL_CENTER = [name for name in ALL_TYPES if name not in ("E8", "F4", "G2")]


class TestTransitionMatrix:
    @pytest.mark.parametrize("name", ["A2", "B3", "D4", "F4"])
    def test_simply_connected_is_identity(self, name):
        rs = cached_root_system(name)
        assert transition_matrix(group_spec(rs, ())) == identity(rs.rank)

    @pytest.mark.parametrize("name", ["A2", "C3", "E6", "G2"])
    def test_adjoint_is_cartan(self, name):
        rs = cached_root_system(name)
        assert transition_matrix(adjoint_spec(rs)) == rs.cartan

    @pytest.mark.parametrize("name", NONTRIVIAL_CENTER)
    def test_weights_as_explicit_generators_are_adjoint(self, name):
        # Without weight_basis the form is adjoint because pi1 is the whole
        # center, and its theta = I is also the Hermite form of the stacked
        # rows, which unit_lattice_basis skips for adjoint forms.
        rs = cached_root_system(name)
        g = group_spec(rs, identity(rs.rank))
        assert g.form == "adj" and g.pi1_order == math.prod(center_group(rs))
        assert g.theta == identity(rs.rank)
        stacked = as_matrix(list(rs.cartan) + list(g.pi1_generators))
        assert hermite_normal_form(stacked)[: rs.rank] == g.theta
        assert transition_matrix(g) == rs.cartan

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_det_equals_lattice_index(self, name):
        rs = cached_root_system(name)
        for g in enumerate_pi1_choices(rs):
            c = transition_matrix(g)
            # independent index computation: quotient of lattice indices via
            # the unit-lattice determinant
            index = abs(det(rs.cartan)) // abs(det(g.theta))
            assert abs(det(c)) == index == g.pi1_order
            assert (c == identity(rs.rank)) == (g.pi1_order == 1)

    def test_non_integral_simple_root_is_a_consistency_error(self):
        # theta = (4) for A1: the simple root (2) is 1/2 of it.
        g = group_spec(cached_root_system("A1"), ())._replace(theta=((4,),))
        with pytest.raises(LatticeConsistencyError, match="not integral"):
            transition_matrix(g)

    def test_row_lattice_sandwich(self):
        rs = cached_root_system("D5")
        for g in enumerate_pi1_choices(rs):
            theta = g.theta
            # every simple root is integral in theta; theta is integral in Z^n
            solve_integral(transpose(theta), transpose(rs.cartan))
            assert all(isinstance(x, int) for row in theta for x in row)

    def test_basis_independence(self):
        # two bases of the same unit lattice differ by a unimodular factor
        rs = cached_root_system("A3")
        g = adjoint_spec(rs)
        theta = g.theta
        u = as_matrix([[1, 0, 0], [2, 1, 0], [0, -3, 1]])
        theta2 = as_matrix(
            [
                [sum(u[i][k] * theta[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)
            ]
        )
        c1 = transition_matrix(g)
        c2 = solve_integral(transpose(theta2), transpose(rs.cartan))
        c2 = transpose(c2)
        assert abs(det(c1)) == abs(det(c2))
        # c2^-1 @ c1 integral and unimodular (here it recovers u itself)
        b = solve_integral(c2, c1)
        assert b == u


def every_form():
    """(type, record) for every pi1 subgroup of every type of rank <= 8,
    and (type, None) for its adjoint_spec: 114 forms."""
    for name in ALL_TYPES:
        for g in enumerate_pi1_choices(cached_root_system(name)):
            yield pytest.param(name, g, id=f"{name}:{g.form}")
        yield pytest.param(name, None, id=f"{name}:adjoint_spec")


@pytest.mark.parametrize("name,sub", list(every_form()))
def test_each_form_is_decided_once(name, sub):
    rs = cached_root_system(name)
    g = adjoint_spec(rs) if sub is None else sub
    # |center| as group_spec reads it, the product of the Hermite diagonal.
    h = hermite_normal_form(rs.cartan)
    center = math.prod(h[i][i] for i in range(rs.rank))
    assert center == abs(det(rs.cartan))
    if sub is not None:
        assert group_spec(rs, g.pi1_generators) == g
    if g.form == "adj":
        assert g.pi1_order == center and g.theta == identity(rs.rank)
    label = canonical_spec_string(g)
    assert label == f"{name}:{g.form}"
    back = parse_group_spec(label)
    assert (canonical_spec_string(back), back.theta, back.pi1_order) == (
        label, g.theta, g.pi1_order
    )


class TestPi1Order:
    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_order_extremes(self, name):
        rs = cached_root_system(name)
        assert group_spec(rs, ()).pi1_order == 1
        assert adjoint_spec(rs).pi1_order == math.prod(center_group(rs))


def test_parsing_runs_no_rational_solve(monkeypatch):
    # sc, adj and every intermediate form of rank <= 8 parse on the integer
    # Hermite form alone.
    specs = []
    for name in ALL_TYPES:
        choices = enumerate_pi1_choices(cached_root_system(name))
        specs += [f"{name}:sc", f"{name}:adj"]
        specs += [f"{name}:{c.form}" for c in choices if c.form.startswith("pi1")]

    def no_solve(m, b):
        raise AssertionError("solve_rational called")

    monkeypatch.setattr(exactlin, "solve_rational", no_solve)
    failed = []
    for spec in specs:
        try:
            parse_group_spec(spec)
        except Exception as exc:
            failed.append(f"{spec}: {exc}")
    assert failed == []


class TestLatticeRecord:
    def test_fields(self):
        assert GroupSpec._fields == (
            "root_system", "pi1_generators", "form", "theta", "pi1_order"
        )

    def test_weight_basis_needs_the_full_center(self):
        rs = cached_root_system("A3")
        with pytest.raises(ValueError, match="full center"):
            group_spec(rs, [(0, 1, 0)], weight_basis=True)

    @pytest.mark.parametrize("argv", [
        ["tau", "E7:adj", "--mod", "2", "--json"],
        ["tau", "A3:pi1=[0,1,0]", "--mod", "2", "--json"],
        ["describe", "D4:pi1=[1,0,0,0;0,0,0,1]", "--json"],
        ["describe", "E7:adj", "--json"],
    ])
    def test_one_job_decides_each_lattice_fact_once(self, argv, monkeypatch):
        calls = dict.fromkeys(
            ["closure", "theta", "center", "invariant_factors", "hermite"], 0
        )

        def counted(module, name, key):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                hermite = calls["hermite"]
                result = original(*args, **kwargs)
                if key == "invariant_factors":
                    calls["hermite"] = hermite  # its own forms are not counted
                return result

            monkeypatch.setattr(module, name, wrapper)

        counted(lattices, "_closure", "closure")
        counted(lattices, "unit_lattice_basis", "theta")
        counted(lattices, "center_group", "center")
        counted(exactlin, "invariant_factors", "invariant_factors")
        counted(exactlin, "hermite_normal_form", "hermite")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        describe = argv[0] == "describe"
        assert calls["closure"] == 1, calls
        assert calls["theta"] == 1, calls
        assert calls["center"] == int(describe), calls
        assert calls["invariant_factors"] <= int(describe), calls
        # The Cartan matrix, plus the stacked rows of a pi1= form.
        assert calls["hermite"] <= 2, calls

    @pytest.mark.parametrize("argv", [
        ["describe", "D4:pi1=[1,0,0,0;0,0,0,1]", "--json"],
        ["tau", "A3:pi1=[0,1,0]", "--mod", "2", "--json"],
        ["e3", "A2:adj", "--coeff", "3", "--json"],
    ])
    def test_no_job_takes_det_of_the_cartan_matrix(self, argv, monkeypatch):
        # group_spec reads |center| off the Hermite diagonal it already has,
        # and the form label off the record.  Every module's own binding of
        # det is counted, not only exactlin's.
        cartan = parse_group_spec(argv[1]).root_system.cartan
        original = exactlin.det
        calls = []

        def counted(m):
            if m == cartan:
                calls.append(m)
            return original(m)

        for name, module in list(sys.modules.items()):
            if name.startswith("transgress") and getattr(module, "det", None) is original:
                monkeypatch.setattr(module, "det", counted)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert calls == [], argv

    @pytest.mark.parametrize("argv,builds", [
        (["tau", "E7:adj", "--mod", "2", "--json"], 2),
        (["tau", "A3:pi1=[0,1,0]", "--mod", "2", "--json"], 2),
        (["tau", "D4:adj", "--json"], 1),
        (["describe", "E7:adj", "--json"], 0),
        (["e3", "A2:adj", "--coeff", "3", "--json"], 0),
    ])
    def test_tau_builds_per_job(self, argv, builds, monkeypatch):
        # cmd_tau builds tau once and modp_analysis once more; the singular
        # primes are read off pi1_order, and describe and e3 build none.
        original = lattices.transition_matrix
        calls = []

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(lattices, "transition_matrix", counted)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert len(calls) == builds, argv
