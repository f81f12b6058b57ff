"""Whole E3 pages of the quotient forms PU(n) and PSp(n) against Baum-Browder.

Baum and Browder (Topology 3, 1965) give the mod-p cohomology of these
groups.  For PU(n) = A_(n-1):adj, with n = p^r m and p not dividing m,

    H*(PU(n); F_p) = F_p[y]/(y^(p^r)) (x) L(x_1, x_3, ..., x_(2n-1))

with x_(2p^r - 1) left out and |y| = 2.  For PSp(n) = C_n:adj, with
n = 2^r m and m odd,

    H*(PSp(n); F_2) = F_2[v]/(v^(2^(r+2))) (x) L(b_3, b_7, ..., b_(4n-1))

with b_(2^(r+2) - 1) left out and |v| = 1.  E3 = E_infinity for G -> G/T,
so the E3 ranks by total degree are these series.  The series are expanded
here from the formulas and share no code with the package.
"""

import pytest

from transgress import build_e2, e3_ranks, parse_group_spec


def times(series, degree, height=2):
    """series (a list of coefficients) times 1 + q^degree + ... +
    q^(degree (height - 1)), the truncated polynomial ring on one class (an
    exterior class when height is 2)."""
    out = [0] * (len(series) + degree * (height - 1))
    for d, c in enumerate(series):
        for k in range(height):
            out[d + degree * k] += c
    return out


def split(n, p):
    """(p^r, m) with n = p^r m and p not dividing m."""
    power = 1
    while n % p == 0:
        n //= p
        power *= p
    return power, n


def pu_series(n, p):
    power, _ = split(n, p)
    series = times([1], 2, power)
    for k in range(1, n + 1):
        if k != power:  # x_(2k-1) with 2k - 1 = 2p^r - 1
            series = times(series, 2 * k - 1)
    return series


def psp_series(n):
    power, _ = split(n, 2)
    series = times([1], 1, 4 * power)
    for k in range(1, n + 1):
        if k != power:  # b_(4k-1) with 4k - 1 = 2^(r+2) - 1
            series = times(series, 4 * k - 1)
    return series


def so_series(m):
    """H*(SO(m); F_2) has a simple system of generators in degrees 1..m-1."""
    series = [1]
    for d in range(1, m):
        series = times(series, d)
    return series


def test_transcription_against_so3_and_so5():
    assert psp_series(1) == so_series(3) == [1, 1, 1, 1]
    assert psp_series(2) == so_series(5)
    assert pu_series(2, 2) == so_series(3)  # PU(2) = SO(3)


def whole_page(spec, p):
    g = parse_group_spec(spec)
    ranks = e3_ranks(build_e2(g, coefficients=p))
    dim_g = g.root_system.lie_type.dim_group
    return [ranks.ranks.get(d, 0) for d in range(dim_g + 1)]


@pytest.mark.parametrize("n,p", [(2, 2), (3, 3), (4, 2), (5, 5), (6, 2), (6, 3)])
def test_pu_pages(n, p):
    assert whole_page(f"A{n - 1}:adj", p) == pu_series(n, p)


@pytest.mark.parametrize("spec,n", [
    ("B2:adj", 2),  # B2 = C2, so SO(5) = PSp(2)
    ("C2:adj", 2),
    ("C3:adj", 3),
    ("C4:adj", 4),
])
def test_psp_pages(spec, n):
    assert whole_page(spec, 2) == psp_series(n)
