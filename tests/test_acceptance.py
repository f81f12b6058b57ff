"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single pass/fail line.
All arithmetic is exact; wall-clock budgets are enforced per criterion.
"""

import random
import time

from conftest import (
    ALL_TYPES,
    cached_root_system,
    cached_weyl_group,
    dense_rows,
    generate_all_roots,
    invariant_factors_by_minors,
    positive_and_negative_roots,
)
from transgress import (
    adjoint_spec,
    build_e2,
    e3_ranks,
    enumerate_pi1_choices,
    group_spec,
    invariant_factors,
    modp_analysis,
    singular_primes,
    transgression_matrix,
)
from transgress.exactlin import det, identity, rank, transpose
from transgress.rootdata import invariant_degrees

ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": {6: 72, 7: 126, 8: 240},
    "F": {4: 48},
    "G": {2: 12},
}


def _report(name, elapsed, budget):
    status = "PASS" if elapsed < budget else "FAIL (over budget)"
    print(f"[acceptance] {name}: {status} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded {budget}s budget"


def exterior_poincare(degrees, up_to):
    poly = [1] + [0] * up_to
    for d in degrees:
        gen = 2 * d - 1
        new = poly[:]
        for k in range(up_to - gen + 1):
            new[k + gen] += poly[k]
        poly = new
    return poly


def test_criterion_1_kernel_cokernel_table():
    start = time.monotonic()
    cases = []
    for n in (2, 3, 4, 5):
        kernel = tuple(0 for _ in range(n - 1)) + (1,)
        coker = (1,) + tuple(0 for _ in range(n - 1))
        cases.append((f"C{n}", 2, kernel, coker))
    cases.append(("E6", 3, (1, 0, -1, 0, 1, -1), (1, 0, 0, 0, 0, 0)))
    cases.append(("E7", 2, (0, 1, 0, 0, 1, 0, 1), (0, 1, 0, 0, 0, 0, 0)))
    for name, p, kernel_vec, coker_vec in cases:
        g = adjoint_spec(cached_root_system(name))
        kernel, cokernel = modp_analysis(g, p)
        tau = transgression_matrix(g)
        assert len(kernel) == 1, (name, p)
        assert len(cokernel) == 1, (name, p)
        # kernel_vec is in the kernel's span; coker_vec is off tau's rows.
        assert rank(kernel + (kernel_vec,), p) == 1, (name, p)
        assert rank(tau + (coker_vec,), p) > rank(tau, p), (name, p)
    _report("criterion 1 (mod-p kernel/cokernel table)",
            time.monotonic() - start, 1.0)


def test_criterion_2_extreme_forms():
    start = time.monotonic()
    for name in ALL_TYPES:
        rs = cached_root_system(name)
        sc = transgression_matrix(group_spec(rs, ()))
        assert sc == identity(rs.rank), name
        adj = transgression_matrix(adjoint_spec(rs))
        assert adj == transpose(rs.cartan), name
    _report("criterion 2 (sc identity / adjoint Cartan-transpose)",
            time.monotonic() - start, 1.0)


def test_criterion_3_determinant_law():
    start = time.monotonic()
    for name in ALL_TYPES:
        rs = cached_root_system(name)
        # independent lattice index: product of the Cartan matrix's
        # elementary divisors, restricted to the chosen subgroup order
        full_index = 1
        for f in invariant_factors(rs.cartan):
            full_index *= f
        assert full_index == abs(det(rs.cartan))
        for g in enumerate_pi1_choices(rs):
            m = transgression_matrix(g)
            index = g.pi1_order
            assert abs(det(m)) == index, (name, g.form)
            for p in (2, 3, 5, 7):
                iso = modp_analysis(g, p) == ((), ())
                assert iso == (index % p != 0), (name, g.form, p)
    _report("criterion 3 (determinant law over all fundamental groups)",
            time.monotonic() - start, 10.0)


def test_criterion_4_singular_primes_exist():
    start = time.monotonic()
    expected = {"C2": [2], "C3": [2], "C4": [2], "C5": [2],
                "E6": [3], "E7": [2]}
    for name, primes in expected.items():
        g = adjoint_spec(cached_root_system(name))
        got = singular_primes(g)
        assert got == primes, name
        assert got, name
    _report("criterion 4 (singular primes reported for adjoint forms)",
            time.monotonic() - start, 1.0)


def test_criterion_5_rational_e3_vs_exterior_algebra():
    start = time.monotonic()
    specs = [("A1", "sc"), ("A2", "sc"), ("A3", "sc"), ("C2", "sc"),
             ("G2", "sc"), ("A1", "adj"), ("A2", "adj")]
    for name, form in specs:
        rs = cached_root_system(name)
        g = group_spec(rs, ()) if form == "sc" else adjoint_spec(rs)
        page = build_e2(g)
        dim_g = rs.lie_type.dim_group
        want = exterior_poincare(invariant_degrees(rs.lie_type), dim_g)
        got = list(e3_ranks(page).as_tuple(dim_g))
        assert got == want, (name, form)
    _report("criterion 5 (rational E3 equals exterior algebra)",
            time.monotonic() - start, 60.0)


def test_criterion_6_modp_sanity():
    start = time.monotonic()
    rs = cached_root_system("A1")
    page = build_e2(adjoint_spec(rs), coefficients=2)
    assert e3_ranks(page).as_tuple(3) == (1, 1, 1, 1)
    for p in (2, 3, 5, 7, 11):
        page = build_e2(group_spec(rs, ()), coefficients=p)
        assert e3_ranks(page).as_tuple(3) == (1, 0, 0, 1), p
    _report("criterion 6 (mod-p rank sanity for rank one)",
            time.monotonic() - start, 1.0)


def test_criterion_7_structural_suites():
    start = time.monotonic()

    # d2 composes to zero on every page used by criteria 5 and 6
    pages = []
    for name, form in [("A1", "sc"), ("A2", "sc"), ("A3", "sc"),
                       ("C2", "sc"), ("G2", "sc"), ("A1", "adj"),
                       ("A2", "adj")]:
        rs = cached_root_system(name)
        g = group_spec(rs, ()) if form == "sc" else adjoint_spec(rs)
        pages.append(build_e2(g))
    pages.append(build_e2(adjoint_spec(cached_root_system("A1")), coefficients=2))
    composites = 0
    for page in pages:
        for (s, t), m in page.d2.items():
            follow = page.d2.get((s + 2, t - 1))
            if follow is None:
                continue
            width = len(page.cells.get((s + 4, t - 2), ()))
            m = dense_rows(m, len(page.cells.get((s + 2, t - 1), ())))
            follow = dense_rows(follow, width)
            for a in range(len(m)):
                for b in range(width):
                    assert sum(
                        m[a][k] * follow[k][b] for k in range(len(follow))
                    ) == 0
            composites += 1
    assert composites > 0

    # randomized invariant factors against the determinantal divisors
    rng = random.Random(20260826)
    checks = 0
    for _ in range(1000):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = tuple(
            tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows)
        )
        diag = invariant_factors(m)
        assert diag == invariant_factors_by_minors(m), m
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        checks += 1
    assert checks >= 1000

    # root-system cardinalities against the classical count
    for name in ALL_TYPES:
        rs = cached_root_system(name)
        family, n = name[0], int(name[1:])
        want = (ROOT_COUNTS[family](n) if callable(ROOT_COUNTS[family])
                else ROOT_COUNTS[family][n])
        roots = positive_and_negative_roots(rs)
        assert len(roots) == want, name
        assert generate_all_roots(rs.cartan, rs.simple_roots) == roots, name

    _report("criterion 7 (structural property suites)",
            time.monotonic() - start, 30.0)
