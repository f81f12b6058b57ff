"""Poincare duality of E3, and the CLI's half page read back through it.

H*(G/T; F) is a Poincare duality algebra of top degree 2N, and the Koszul
complex (E2, d2) over it is self-dual, so dim E3^(s,t) = dim E3^(2N-s, n-t)
(Bruns-Herzog, Cohen-Macaulay Rings, 1.6; Avramov-Golod 1971).  The first
test checks that on whole pages, which share no code with the mirror; the
others check that `transgress e3`, which builds a page only to dim G // 2
and mirrors the rest, gives what the whole page gives.  Each whole page is
also checked against Kac's factorisation (conftest.kac_factorisation), which
ties every row to row 0; so is each whole page of the fixture corpus, whose
mirrored series must also be the corpus's hand-expanded ranks.
"""

import functools
import json

import pytest

from conftest import kac_factorisation
from transgress import build_e2, e3_ranks, parse_group_spec
from transgress.cli import main
from transgress.fixtures import load_corpus
from transgress.groupspec import canonical_spec_string
from transgress.rootdata import invariant_degrees
from transgress.spectral import mirror_ranks

SPECS = [
    "A1", "A2", "G2", "A3", "A3:adj", "B3", "C3", "C3:adj",
    "A4", "B4", "C4", "D4", "D4:adj", "F4",
]
FIELDS = [None, 2, 3]
PAGES = [(spec, p) for spec in SPECS for p in FIELDS]


def _canonical(spec, p):
    return canonical_spec_string(parse_group_spec(spec)), p


# The e3_modp entries of the corpus that reach dim G: 20 of 27.
CORPUS_PAGES = [
    pytest.param(fx["spec"], fx["p"], fx["ranks"], id=fx["name"])
    for fx in load_corpus()
    if fx["kind"] == "e3_modp"
    and fx["up_to"] == parse_group_spec(fx["spec"]).root_system.lie_type.dim_group
]
# Those that PAGES does not build, which test_whole_page_is_kacs_factorisation
# does not see.
BUILT = {_canonical(spec, p) for spec, p in PAGES}
UNBUILT = [c for c in CORPUS_PAGES if _canonical(*c.values[:2]) not in BUILT]


@functools.lru_cache(maxsize=None)
def whole_page_ranks(spec, p):
    """E3 ranks of the whole page, built to dim G."""
    return e3_ranks(build_e2(parse_group_spec(spec), coefficients=p))


def cli_e3(capsys, spec, p, max_degree=None):
    argv = ["e3", spec, "--json", "--bidegrees"]
    if p is not None:
        argv += ["--coeff", str(p)]
    if max_degree is not None:
        argv += ["--max-degree", str(max_degree)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["payload"]


def assert_payload_matches(payload, whole, top):
    assert payload["max_total_degree"] == top
    assert payload["ranks"] == [[d, whole.ranks.get(d, 0)] for d in range(top + 1)]
    assert payload["bidegrees"] == [
        [s, t, r]
        for (s, t), r in sorted(whole.bidegree_ranks.items())
        if s + t <= top
    ]


@pytest.mark.parametrize("spec,p", PAGES)
def test_whole_page_is_self_dual(spec, p):
    t = parse_group_spec(spec).root_system.lie_type
    ranks = whole_page_ranks(spec, p)
    dim_g = t.dim_group
    for (s, u), r in ranks.bidegree_ranks.items():
        mirror = (t.root_count - s, t.rank - u)
        assert ranks.bidegree_ranks.get(mirror) == r, f"E3^({s},{u}) vs {mirror}"
    for d in range(dim_g + 1):
        assert ranks.ranks[d] == ranks.ranks[dim_g - d], f"degree {d}"


@pytest.mark.parametrize("spec,p", PAGES)
def test_whole_page_is_kacs_factorisation(spec, p):
    t = parse_group_spec(spec).root_system.lie_type
    degrees = kac_factorisation(whole_page_ranks(spec, p), t)
    if p is None:
        # Over Q, R = Q and the y_i are the primitive generators x_(2d - 1).
        assert degrees == invariant_degrees(t)


def test_corpus_has_twenty_whole_pages():
    assert (len(CORPUS_PAGES), len(UNBUILT)) == (20, 12)


@pytest.mark.parametrize("spec,p,ranks", UNBUILT)
def test_corpus_whole_page_is_kacs_factorisation(spec, p, ranks):
    t = parse_group_spec(spec).root_system.lie_type
    whole = whole_page_ranks(spec, p)
    assert list(whole.as_tuple(t.dim_group)) == ranks
    kac_factorisation(whole, t)


@pytest.mark.parametrize("spec,p,ranks", CORPUS_PAGES)
def test_cli_mirrored_series_is_corpus_ranks(spec, p, ranks, capsys):
    # The CLI builds the page to dim G // 2 and mirrors the rest.
    dim_g = parse_group_spec(spec).root_system.lie_type.dim_group
    payload = cli_e3(capsys, spec, p)
    assert payload["ranks"] == [[d, r] for d, r in enumerate(ranks)]
    assert len(ranks) == dim_g + 1


@pytest.mark.parametrize("spec,p", PAGES)
def test_cli_half_page_matches_whole_page(spec, p, capsys):
    dim_g = parse_group_spec(spec).root_system.lie_type.dim_group
    whole = whole_page_ranks(spec, p)
    assert_payload_matches(cli_e3(capsys, spec, p), whole, dim_g)
    # A truncation between the half page and the top mirrors only part.
    top = (dim_g // 2 + dim_g + 1) // 2
    assert dim_g // 2 < top < dim_g
    assert_payload_matches(cli_e3(capsys, spec, p, top), whole, top)


@pytest.mark.parametrize("spec,top", [
    ("G2", None), ("A3", None), ("B3", None), ("C3:adj", None), ("A4", 8),
])
def test_cli_matches_whole_page_on_benchmark_jobs(spec, top, capsys):
    # The jobs of the benchmark's e3-full-q workload.
    page = build_e2(parse_group_spec(spec), max_total_degree=top)
    whole = e3_ranks(page)
    payload = cli_e3(capsys, spec, None, top)
    assert_payload_matches(payload, whole, page.max_total_degree)


def test_mirror_needs_half_a_page():
    g = parse_group_spec("A3")
    page = build_e2(g, max_total_degree=6)  # dim G = 15, dim G // 2 = 7
    ranks = e3_ranks(page)
    assert mirror_ranks(page, ranks, 6) == ranks
    assert mirror_ranks(page, ranks, 4).as_tuple(4) == ranks.as_tuple(4)
    with pytest.raises(ValueError, match="does not reach degree 8"):
        mirror_ranks(page, ranks, 8)
    with pytest.raises(ValueError, match="outside 0..dim G = 15"):
        mirror_ranks(build_e2(g, max_total_degree=7), ranks, 16)
