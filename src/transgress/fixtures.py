"""Frozen regression corpus: loads the shipped JSON corpus and checks each
entry against a fresh computation.  Used by `transgress fixtures` and CI.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from . import exactlin, lattices, rootdata, spectral, transgression
from .exactlin import det, identity, transpose
from .groupspec import parse_group_spec


class FixtureResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def load_corpus(path=None) -> list[dict]:
    try:
        if path is None:
            text = (
                resources.files("transgress").joinpath("data/fixtures.json").read_text()
            )
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:  # missing, a directory, or unreadable
        raise ValueError(str(exc)) from None
    corpus = json.loads(text)
    if not isinstance(corpus, list):
        raise ValueError("corpus is not a JSON list of fixtures")
    if not corpus:
        raise ValueError("no fixtures in corpus")
    for i, fx in enumerate(corpus):
        if not isinstance(fx, dict):
            raise ValueError(f"corpus entry {i} is not an object: {fx!r}")
        for key in ("name", "kind"):
            if key not in fx:
                raise ValueError(f"corpus entry {i} has no {key!r}: {fx!r}")
    return corpus


def _exterior_poincare(degrees: tuple[int, ...], up_to: int) -> list[int]:
    """Graded dims of the exterior algebra on generators of odd degrees 2d-1."""
    poly = [1] + [0] * up_to
    for d in degrees:
        gen = 2 * d - 1
        new = poly[:]
        for k in range(up_to - gen + 1):
            new[k + gen] += poly[k]
        poly = new
    return poly


def _check_tau_matrix(fx) -> tuple[bool, str]:
    g = parse_group_spec(fx["spec"])
    tau = transgression.transgression_matrix(g)
    if fx["expect"] == "identity":
        want = identity(g.rank)
    else:  # cartan_transpose
        want = transpose(g.root_system.cartan)
    ok = tau == want
    return ok, "" if ok else f"tau matrix differs from {fx['expect']}"


def _check_modp_table(fx) -> tuple[bool, str]:
    g = parse_group_spec(fx["spec"])
    p = fx["p"]
    tau = transgression.transgression_matrix(g)
    kernel, cokernel = transgression.modp_analysis(g, p)
    member, cls = tuple(fx["kernel_member"]), tuple(fx["cokernel_class"])
    if len(member) != g.rank or len(cls) != g.rank:
        raise ValueError("vector has wrong dimension")
    problems = []
    if len(kernel) != fx["kernel_dim"]:
        problems.append(f"kernel dim {len(kernel)} != {fx['kernel_dim']}")
    if len(cokernel) != fx["cokernel_dim"]:
        problems.append(f"cokernel dim {len(cokernel)} != {fx['cokernel_dim']}")
    # The member is a combination of the t_i in the span of the kernel basis;
    # the class is a combination of the omega_j off the image, the rows of tau.
    if exactlin.rank(kernel + (member,), p) != len(kernel):
        problems.append(f"stated kernel member {fx['kernel_member']} not in kernel")
    if exactlin.rank(tau + (cls,), p) == exactlin.rank(tau, p):
        problems.append(
            f"stated cokernel class {fx['cokernel_class']} vanishes in cokernel"
        )
    return not problems, "; ".join(problems)


def _check_det_law(fx) -> tuple[bool, str]:
    # enumerate_pi1_choices checks each pi1_order against its own subgroup.
    for g in lattices.enumerate_pi1_choices(parse_group_spec(fx["spec"]).root_system):
        order = g.pi1_order
        tau = transgression.transgression_matrix(g)
        if abs(det(tau)) != order:
            return False, f"{g.form}: |det| {abs(det(tau))} != order {order}"
        for p in (2, 3, 5, 7):
            iso = transgression.modp_analysis(g, p) == ((), ())
            if iso != (order % p != 0):
                return False, f"{g.form}: mod-{p} isomorphism flag wrong"
    return True, ""


def _check_kac(fx) -> tuple[bool, str]:
    g = parse_group_spec(fx["spec"])
    primes = transgression.singular_primes(g)
    if fx.get("primes") is not None and primes != fx["primes"]:
        return False, f"singular primes {primes} != {fx['primes']}"
    if fx.get("nonempty") and not primes:
        return False, "expected a singular prime, found none"
    return True, ""


def _first_wrong_degree(have: list[int], want: list[int]) -> str:
    """'' if the graded ranks agree, else the first degree where they differ."""
    for d, (h, w) in enumerate(zip(have, want)):
        if h != w:
            return f"degree {d}: rank {h} != {w}"
    if len(have) != len(want):
        return f"{len(want)} ranks given for degrees 0..{len(have) - 1}"
    return ""


def _check_e3_rational(fx) -> tuple[bool, str]:
    g = parse_group_spec(fx["spec"])
    got = spectral.e3_ranks(spectral.build_e2(g, coefficients=None))
    t = g.root_system.lie_type
    want = _exterior_poincare(rootdata.invariant_degrees(t), t.dim_group)
    wrong = _first_wrong_degree(list(got.as_tuple(t.dim_group)), want)
    return not wrong, wrong and f"E3 over Q vs exterior algebra, {wrong}"


def _check_e3_modp(fx) -> tuple[bool, str]:
    g = parse_group_spec(fx["spec"])
    up_to = fx["up_to"]
    page = spectral.build_e2(g, coefficients=fx["p"], max_total_degree=up_to)
    have = list(spectral.e3_ranks(page).as_tuple(up_to))
    wrong = _first_wrong_degree(have, fx["ranks"])
    return not wrong, wrong and f"mod-{fx['p']} E3, {wrong}"


_CHECKERS = {
    "tau_matrix": _check_tau_matrix,
    "modp_table": _check_modp_table,
    "det_law": _check_det_law,
    "kac": _check_kac,
    "e3_rational": _check_e3_rational,
    "e3_modp": _check_e3_modp,
}


def run_fixtures(path=None) -> list[FixtureResult]:
    results = []
    for fx in load_corpus(path):
        checker = _CHECKERS.get(fx["kind"])
        if checker is None:
            results.append(
                FixtureResult(fx["name"], False, f"unknown kind {fx['kind']}")
            )
            continue
        try:
            ok, detail = checker(fx)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(FixtureResult(fx["name"], ok, detail))
    return results
