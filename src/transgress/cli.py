"""Command-line front end.

    transgress describe <spec> [--json]
    transgress tau <spec> [--mod P] [--json]
    transgress e3 <spec> [--coeff q|P] [--max-degree D] [--bidegrees]
                         [--force] [--json]
    transgress fixtures [--corpus PATH] [--json]

Exit codes: 0 success, 1 computation refusal (size caps), 2 input error,
3 fixture failure, 4 internal error (a failed consistency check), 5 output
could not be written (a closed pipe or a full disk).  JSON output is
deterministic: identical invocations produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import lattices, spectral, transgression
from .exactlin import Matrix, det, is_prime
from .groupspec import canonical_spec_string, parse_group_spec
from .lattices import LatticeConsistencyError
from .spectral import WeylCapExceededError
from .transgression import format_combination

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INPUT = 2
EXIT_FIXTURES = 3
EXIT_INTERNAL = 4
EXIT_OUTPUT = 5


def _document(kind: str, group: str | None, payload: dict, provenance=()) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    if group is not None:
        doc["group"] = group
    doc["payload"] = payload
    doc["provenance"] = list(provenance)
    return doc


def _matrix_payload(m: Matrix, row_labels, col_labels) -> dict:
    return {
        "rows": len(m),
        "cols": len(m[0]) if m else 0,
        "row_labels": list(row_labels),
        "col_labels": list(col_labels),
        "entries": [list(row) for row in m],
    }


def _render_matrix(payload: dict, out) -> None:
    labels = payload["row_labels"]
    cols = payload["col_labels"]
    widths = [
        max([len(cols[j])] + [len(str(row[j])) for row in payload["entries"]])
        for j in range(payload["cols"])
    ]
    left = max((len(l) for l in labels), default=0) + 2
    out.write(" " * left + "  ".join(f"{c:>{w}}" for c, w in zip(cols, widths)) + "\n")
    for label, row in zip(labels, payload["entries"]):
        cells = "  ".join(f"{x:>{w}d}" for x, w in zip(row, widths))
        out.write(f"{label:<{left}}" + cells + "\n")


def cmd_describe(args, out) -> int:
    g = parse_group_spec(args.spec)
    rs = g.root_system
    center = lattices.center_group(rs)
    order = math.prod(center)
    n = rs.rank
    spec = canonical_spec_string(g)
    payload = {
        "lie_type": str(rs.lie_type),
        "rank": n,
        "form": g.form,
        "cartan": _matrix_payload(
            rs.cartan,
            [f"alpha_{i}" for i in range(1, n + 1)],
            [f"phi_{j}" for j in range(1, n + 1)],
        ),
        "simple_roots": [list(v) for v in rs.simple_roots],
        "center_invariant_factors": list(center),
        "center_order": order,
        "pi1_order": g.pi1_order,
        "theta": _matrix_payload(
            g.theta,
            [f"theta_{i}" for i in range(1, n + 1)],
            [f"phi_{j}" for j in range(1, n + 1)],
        ),
    }
    doc = _document("describe", spec, payload)
    if args.json:
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write(f"group: {doc['group']}\n")
        out.write(f"rank: {n}\n")
        out.write("cartan matrix (rows = simple roots in weight coordinates):\n")
        _render_matrix(payload["cartan"], out)
        out.write(
            "center: "
            + (" x ".join(f"Z{f}" for f in center) if center else "trivial")
            + f" (order {order})\n"
        )
        out.write(f"fundamental group order: {payload['pi1_order']}\n")
        out.write("unit lattice basis (rows, weight coordinates):\n")
        _render_matrix(payload["theta"], out)
    return EXIT_OK


def cmd_tau(args, out) -> int:
    g = parse_group_spec(args.spec)
    tau = transgression.transgression_matrix(g)
    n = g.rank
    payload = {
        "matrix": _matrix_payload(
            tau,
            [f"t_{i}" for i in range(1, n + 1)],
            [f"omega_{j}" for j in range(1, n + 1)],
        ),
        "det": det(tau),
        "singular_primes": transgression.singular_primes(g),
    }
    if args.mod is not None:
        kernel, cokernel = transgression.modp_analysis(g, args.mod)
        payload["mod"] = {
            "p": args.mod,
            "is_isomorphism": not kernel and not cokernel,
            "kernel": [
                {"coeffs": list(v), "label": format_combination(v, "t")}
                for v in kernel
            ],
            "cokernel": [
                {"coeffs": list(v), "label": format_combination(v, "omega")}
                for v in cokernel
            ],
        }
    doc = _document("tau", canonical_spec_string(g), payload)
    if args.json:
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write(f"group: {doc['group']}\n")
        out.write("transgression matrix (row i = tau(t_i) in the omega basis):\n")
        _render_matrix(payload["matrix"], out)
        out.write(f"det: {payload['det']}\n")
        out.write(
            "singular primes: "
            + (", ".join(map(str, payload["singular_primes"])) or "none")
            + "\n"
        )
        if "mod" in payload:
            mod = payload["mod"]
            out.write(f"mod {mod['p']}: ")
            if mod["is_isomorphism"]:
                out.write("isomorphism\n")
            else:
                out.write(
                    "kernel = <"
                    + ", ".join(e["label"] for e in mod["kernel"])
                    + ">, cokernel = <"
                    + ", ".join(e["label"] for e in mod["cokernel"])
                    + ">\n"
                )
    return EXIT_OK


def cmd_e3(args, out) -> int:
    g = parse_group_spec(args.spec)
    t = g.root_system.lie_type
    top = spectral.total_degree_bound(t, args.max_degree)
    cap = sys.maxsize if args.force else spectral.DEFAULT_WEYL_CAP
    # Degrees past dim G // 2 are read off the lower half by duality.
    page = spectral.build_e2(
        g,
        coefficients=args.coeff,
        max_total_degree=min(top, t.dim_group // 2),
        size_cap=cap,
    )
    ranks = spectral.mirror_ranks(page, spectral.e3_ranks(page), top)
    payload = {
        "coefficients": "rational" if args.coeff is None else args.coeff,
        "max_total_degree": top,
        "ranks": [[d, ranks.ranks.get(d, 0)] for d in range(top + 1)],
        "poincare": " + ".join(
            (f"{r}q^{d}" if d else str(r)) if r != 1 or d == 0 else f"q^{d}"
            for d, r in sorted(ranks.ranks.items())
            if r
        ),
    }
    if args.bidegrees:
        payload["bidegrees"] = [
            [s, t, r] for (s, t), r in sorted(ranks.bidegree_ranks.items())
        ]
    doc = _document("e3", canonical_spec_string(g), payload)
    if args.json:
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write(f"group: {doc['group']}\n")
        out.write(f"coefficients: {payload['coefficients']}\n")
        out.write(f"E3 ranks by total degree: {payload['poincare']}\n")
        if args.bidegrees:
            for s, t, r in payload["bidegrees"]:
                out.write(f"  E3^({s},{t}) rank {r}\n")
    return EXIT_OK


def cmd_fixtures(args, out) -> int:
    # Imported here: the corpus reader pulls in importlib.resources, which no
    # other subcommand needs.
    from . import fixtures

    results = fixtures.run_fixtures(path=args.corpus)
    failed = [r for r in results if not r.ok]
    payload = {
        "total": len(results),
        "passed": len(results) - len(failed),
        "failed": len(failed),
        "results": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }
    doc = _document("fixtures", None, payload)
    if args.json:
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            out.write(f"{status} {r.name}" + (f": {r.detail}" if r.detail else "") + "\n")
        out.write(f"{payload['passed']}/{payload['total']} fixtures passed\n")
    return EXIT_OK if not failed else EXIT_FIXTURES


def field(value: str) -> int | None:
    """The --coeff argument: None for the rationals, else the modulus."""
    return None if value == "q" else int(value)


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops a failed write.  A failed write of the help text to
        # stdout must reach main's OSError handling instead: an unbuffered
        # stdout fails here, a buffered one in main's flush.
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="transgress",
        description="Transgression matrices and E2/E3 pages for compact "
        "semisimple Lie groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="root data, center and unit lattice")
    p.add_argument("spec", help="e.g. A2, C3:adj, D4:pi1=[0,0,1,1]")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("tau", help="transgression matrix and mod-p analysis")
    p.add_argument("spec")
    p.add_argument("--mod", type=int, metavar="P", help="prime modulus")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("e3", help="E3 graded ranks of the fibration G -> G/T")
    p.add_argument("spec")
    p.add_argument("--coeff", default=None, type=field, metavar="q|P",
                   help="q for rationals or a prime p")
    p.add_argument("--max-degree", type=int, default=None,
                   help="truncate at this total degree (0 up to dim G)")
    p.add_argument("--bidegrees", action="store_true")
    p.add_argument("--force", action="store_true",
                   help="ignore the size cap on the Weyl group elements of "
                   "length <= (min(D, dim G // 2) + 1) // 2 that the page uses")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_e3)

    p = sub.add_parser("fixtures", help="run the frozen regression corpus")
    p.add_argument("--corpus", default=None, help="path to a corpus JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            if exc.code:
                return EXIT_INPUT
            sys.stdout.flush()  # --help: a buffered write fails only here
            return EXIT_OK
        if getattr(args, "mod", None) is not None and not is_prime(args.mod):
            print(f"error: --mod modulus {args.mod} is not prime", file=sys.stderr)
            return EXIT_INPUT
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except WeylCapExceededError as exc:
        print(f"refused: {exc} (use --force to override)", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (LatticeConsistencyError, AssertionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:  # writing stdout: load_corpus raises ValueError
        if not isinstance(exc, BrokenPipeError):  # a closed pipe is no error
            print(f"error: output could not be written: {exc}", file=sys.stderr)
        # Keep the interpreter's exit flush of stdout quiet (Python docs,
        # signal, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OUTPUT


if __name__ == "__main__":
    raise SystemExit(main())
