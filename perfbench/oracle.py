"""Answer checks that share no code with `transgress`.

Every fact below is written out by hand from the classical tables, not
derived from `transgress.rootdata`:

* invariant degrees d_i of the Weyl group (Bourbaki, plates I-IX);
* invariant factors of the center of the simply connected form;
* torsion primes (Borel 1953; Kac 1985, Invent. Math. 80).

The checks are:

* E3 over Q is the exterior algebra on generators of degree 2 d_i - 1;
* E3 over F_p has at least the exterior rank in every degree, and exactly
  that rank where Borel's theorem applies (simply connected, p not a
  torsion prime);
* tau: |det tau| = |pi_1|, tau mod p is an isomorphism exactly when p does
  not divide |pi_1|, and dim ker = dim coker = the number of invariant
  factors of pi_1 that p divides;
* describe: center and pi_1 orders, and |det theta| = |center| / |pi_1|.

Each check returns a list of problems; an empty list means the answer
passed.  A problem names the degree or entry that is wrong.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# Fundamental groups of the intermediate forms the sweep uses, as invariant
# factors.  The center of A_n is Z/(n+1) with omega_k -> k; for D_n the
# vector weight omega_1 has order 2.
INTERMEDIATE_PI1 = {
    "A3:pi1=[0,1,0]": (2,),
    "A5:pi1=[0,1,0,0,0]": (3,),
    "A5:pi1=[0,0,1,0,0]": (2,),
    "A7:pi1=[0,1,0,0,0,0,0]": (4,),
    "A8:pi1=[0,0,1,0,0,0,0,0]": (3,),
    "D4:pi1=[1,0,0,0]": (2,),
    "D4:pi1=[0,0,0,1]": (2,),
    "D4:pi1=[1,0,0,0;0,0,0,1]": (2, 2),
    "D5:pi1=[1,0,0,0,0]": (2,),
    "D6:pi1=[1,0,0,0,0,0]": (2,),
}

_SPEC = re.compile(r"([A-G])([0-9]+)(?::(.*))?$")


def invariant_degrees(family: str, n: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(2, n + 2))
    if family in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return tuple(sorted(tuple(range(2, 2 * n - 1, 2)) + (n,)))
    return {
        ("E", 6): (2, 5, 6, 8, 9, 12),
        ("E", 7): (2, 6, 8, 10, 12, 14, 18),
        ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
        ("F", 4): (2, 6, 8, 12),
        ("G", 2): (2, 6),
    }[(family, n)]


def center_factors(family: str, n: int) -> tuple[int, ...]:
    if family == "A":
        return (n + 1,)
    if family in "BC":
        return (2,)
    if family == "D":
        return (2, 2) if n % 2 == 0 else (4,)
    return {("E", 6): (3,), ("E", 7): (2,)}.get((family, n), ())


def torsion_primes(family: str, n: int) -> frozenset[int]:
    if family in "AC" or (family == "B" and n < 3) or (family == "D" and n < 4):
        return frozenset()
    if family in "BDG":
        return frozenset({2})
    if family == "F" or (family == "E" and n < 8):
        return frozenset({2, 3})
    return frozenset({2, 3, 5})


class Spec:
    """A group spec string split into type and form, with its expected pi_1."""

    def __init__(self, text: str):
        m = _SPEC.match(text)
        if not m:
            raise ValueError(f"unknown spec {text!r}")
        self.family, self.rank = m.group(1), int(m.group(2))
        self.form = m.group(3) or "sc"
        self.center = center_factors(self.family, self.rank)
        if self.form == "sc":
            self.pi1 = ()
        elif self.form == "adj":
            self.pi1 = self.center
        else:
            self.pi1 = INTERMEDIATE_PI1[text]
        self.degrees = invariant_degrees(self.family, self.rank)

    @property
    def lie_type(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def pi1_order(self) -> int:
        return math.prod(self.pi1)

    @property
    def center_order(self) -> int:
        return math.prod(self.center)

    @property
    def dim(self) -> int:
        return sum(2 * d - 1 for d in self.degrees)


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def determinant(rows) -> int:
    """Exact determinant by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, sign, det = len(m), 1, Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(sign * det)


def exterior_ranks(degrees, top: int) -> list[int]:
    """Ranks in degrees 0..top of the exterior algebra on generators of
    degree 2 d - 1."""
    poly = [1] + [0] * top
    for d in degrees:
        g = 2 * d - 1
        for k in range(top, g - 1, -1):
            poly[k] += poly[k - g]
    return poly


def check_job(argv: list[str], stdout: str) -> list[str]:
    """Problems with the stdout of `transgress <argv>` (must be --json)."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    command, spec = argv[0], Spec(argv[1])
    if doc.get("kind") != command:
        return [f"kind {doc.get('kind')!r}, expected {command!r}"]
    group = str(doc.get("group", ""))
    problems = []
    if group.split(":")[0] != spec.lie_type:
        problems.append(f"group {group!r} is not of type {spec.lie_type}")
    if spec.form in ("sc", "adj") and group != f"{spec.lie_type}:{spec.form}":
        problems.append(f"group {group!r}, expected {spec.lie_type}:{spec.form}")
    checks = {"describe": _check_describe, "tau": _check_tau, "e3": _check_e3}
    try:
        problems += checks[command](spec, doc["payload"], argv)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"malformed answer: {exc!r}")
    return problems


def _option(argv, flag):
    if flag not in argv:
        return None
    return int(argv[argv.index(flag) + 1])


def _check_describe(spec: Spec, p: dict, argv) -> list[str]:
    problems = []
    if p["lie_type"] != spec.lie_type or p["rank"] != spec.rank:
        problems.append(f"type {p['lie_type']} rank {p['rank']}")
    if tuple(p["center_invariant_factors"]) != spec.center:
        problems.append(
            f"center factors {p['center_invariant_factors']}, expected {list(spec.center)}"
        )
    if p["center_order"] != spec.center_order:
        problems.append(f"center order {p['center_order']}, expected {spec.center_order}")
    if p["pi1_order"] != spec.pi1_order:
        problems.append(f"pi1 order {p['pi1_order']}, expected {spec.pi1_order}")
    index = abs(determinant(p["theta"]["entries"]))
    if index * spec.pi1_order != spec.center_order:
        problems.append(
            f"|det theta| = {index}, expected {spec.center_order // spec.pi1_order}"
        )
    cartan = p["cartan"]["entries"]
    if len(cartan) != spec.rank or any(cartan[i][i] != 2 for i in range(len(cartan))):
        problems.append("cartan matrix is not rank x rank with diagonal 2")
    return problems


def _check_tau(spec: Spec, p: dict, argv) -> list[str]:
    mod = _option(argv, "--mod")
    problems = []
    m = p["matrix"]["entries"]
    if len(m) != spec.rank or any(len(row) != spec.rank for row in m):
        return [f"tau is not {spec.rank} x {spec.rank}"]
    det = determinant(m)
    if det != p["det"]:
        problems.append(f"printed det {p['det']} but the matrix has det {det}")
    if abs(det) != spec.pi1_order:
        problems.append(f"|det tau| = {abs(det)}, expected |pi1| = {spec.pi1_order}")
    if p["singular_primes"] != _prime_factors(spec.pi1_order):
        problems.append(
            f"singular primes {p['singular_primes']}, "
            f"expected {_prime_factors(spec.pi1_order)}"
        )
    if mod is None:
        return problems
    q = p["mod"]
    iso = spec.pi1_order % mod != 0
    if q["p"] != mod or q["is_isomorphism"] != iso:
        problems.append(f"mod {mod}: is_isomorphism {q['is_isomorphism']}, expected {iso}")
    dim = sum(1 for f in spec.pi1 if f % mod == 0)
    if len(q["kernel"]) != dim or len(q["cokernel"]) != dim:
        problems.append(
            f"mod {mod}: dim ker {len(q['kernel'])}, dim coker {len(q['cokernel'])}, "
            f"expected {dim} each"
        )
    for v in q["kernel"]:
        image = [sum(c * row[j] for c, row in zip(v["coeffs"], m)) % mod
                 for j in range(spec.rank)]
        if any(image):
            problems.append(f"mod {mod}: kernel vector {v['coeffs']} maps to {image}")
    return problems


def _check_e3(spec: Spec, p: dict, argv) -> list[str]:
    coeff, max_degree = _option(argv, "--coeff"), _option(argv, "--max-degree")
    top = spec.dim if max_degree is None else max_degree
    if p["max_total_degree"] != top:
        return [f"max total degree {p['max_total_degree']}, expected {top}"]
    expected_coeff = "rational" if coeff is None else coeff
    if p["coefficients"] != expected_coeff:
        return [f"coefficients {p['coefficients']!r}, expected {expected_coeff!r}"]
    degrees = [d for d, _ in p["ranks"]]
    if degrees != list(range(top + 1)):
        return [f"ranks listed for degrees {degrees}, expected 0..{top}"]
    ranks = [r for _, r in p["ranks"]]
    exterior = exterior_ranks(spec.degrees, top)
    exact = coeff is None or (
        spec.form == "sc" and coeff not in torsion_primes(spec.family, spec.rank)
    )
    problems = []
    for d, (r, e) in enumerate(zip(ranks, exterior)):
        if r < e or (exact and r != e):
            relation = "=" if exact else ">="
            problems.append(f"degree {d}: rank {r}, expected {relation} {e}")
    if "bidegrees" in p:
        totals = [0] * (top + 1)
        for s, t, r in p["bidegrees"]:
            totals[s + t] += r
        if totals != ranks:
            problems.append(f"bidegree ranks sum to {totals}, not to {ranks}")
    return problems
