"""Benchmark of the `transgress` calculator: time to an exact answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each workload is a closed loop: one client sends the next job only
after the previous one answered.  A pass runs the workload's whole job list,
in an order shuffled by the seed, in a fresh interpreter, so nothing cached
in one pass carries into the next.  Passes repeat until the next one would
end after S seconds, and each figure is the median over passes.

Every job's output is checked by `oracle` and must be byte-identical in
every pass.  With --trace 0 the end-to-end metrics are printed; with
--trace 1 untraced and traced passes alternate and the per-layer metrics are
printed.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Per-job records (exit
code, median seconds, stdout sha256, oracle problems) and the environment
go to `.perfbench_runs/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from workloads import KNOWN_DEFECTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "pass_child.py"
OUT_DIR = ROOT / ".perfbench_runs"
SETUP_PROBES = 7
MIN_PASSES = 2
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "slowest_job_s": "s",
    "job_geomean_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: span totals and self times in seconds, and counts.
SPAN_SECONDS = {
    "spectral.chevalley_s": ("total", "spectral.chevalley"),
    "rootdata.positive_roots_s": ("total", "rootdata.positive_roots"),
    "spectral.build_e2_s": ("total", "spectral.build_e2"),
    "spectral.assembly_self_s": ("self", "spectral.build_e2"),
    "spectral.e3_ranks_s": ("total", "spectral.e3_ranks"),
    "spectral.weyl_s": ("total", "spectral.weyl"),
    "exactlin.is_prime_s": ("total", "exactlin.is_prime"),
    "groupspec.parse_s": ("total", "groupspec.parse"),
    "lattices.unit_basis_s": ("total", "lattices.unit_basis"),
    "transgression.tau_s": ("total", "transgression.tau"),
    "transgression.modp_s": ("total", "transgression.modp"),
    "cli.main_s": ("total", "cli.main"),
    "cli.render_s": ("self", "cli.main"),
}
SPAN_CALLS = {
    "spectral.chevalley_calls": "spectral.chevalley",
    "rootdata.positive_roots_calls": "rootdata.positive_roots",
    "exactlin.is_prime_calls": "exactlin.is_prime",
}
COUNTERS = ("spectral.cover_edges", "spectral.cells", "spectral.d2_nonzeros",
            "spectral.rank_rows", "spectral.weyl_elements")


class BenchmarkError(RuntimeError):
    """The run could not measure: a child crashed or ran out of time."""


def _child_env() -> dict:
    """Import from src/, with bytecode cached under OUT_DIR whatever the caller's
    environment says, so set-up never includes compiling the sources."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    return env


def run_pass(jobs, trace: bool, timeout: float) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)],
            input=json.dumps({"jobs": jobs, "trace": trace}),
            capture_output=True, text=True, env=_child_env(), cwd=ROOT,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"pass did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def judge(jobs, passes, timed) -> list[dict]:
    """One record per job: its verdict over every pass, and its median
    seconds over the `timed` passes."""
    records = []
    for k, argv in enumerate(jobs):
        runs = [p["jobs"][k] for p in passes]
        digests = sorted({hashlib.sha256(r["stdout"].encode()).hexdigest() for r in runs})
        problems = []
        for r in runs:
            if r["error"]:
                problems.append(r["error"].strip().splitlines()[-1])
            elif r["rc"] != 0:
                problems.append(f"exit code {r['rc']}: {r['stderr'].strip()[:200]}")
        if len(digests) > 1:
            problems.append(f"stdout differs between passes: {digests}")
        oracle_miss = not problems
        if not problems:
            problems = oracle.check_job(argv, runs[0]["stdout"])
        records.append({
            "argv": argv,
            "ok": not problems,
            "known_defect": oracle_miss and " ".join(argv) in KNOWN_DEFECTS,
            "problems": problems,
            "seconds": statistics.median(p["jobs"][k]["seconds"] for p in timed),
            "stdout_sha256": digests[0] if len(digests) == 1 else digests,
            "stdout_bytes": len(runs[0]["stdout"].encode()),
        })
    return records


def _in_list_order(jobs, order, report) -> dict:
    """Reorder a pass's job reports from run order back to list order."""
    by_index = [None] * len(jobs)
    for k, j in zip(order, report["jobs"]):
        by_index[k] = j
    return {**report, "jobs": by_index}


def _geomean(xs) -> float:
    return math.exp(sum(math.log(max(x, 1e-9)) for x in xs) / len(xs))


def end_to_end(setups, passes, records) -> dict:
    secs = [[j["seconds"] for j in p["jobs"]] for p in passes]
    ok = sum(r["ok"] for r in records)
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "slowest_job_s": statistics.median(max(s) for s in secs),
        "job_geomean_s": statistics.median(_geomean(s) for s in secs),
        "ok_ratio": ok / len(records),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def _layer_values(report) -> dict:
    t = report["trace"]
    out = {m: t[kind].get(span, 0.0) for m, (kind, span) in SPAN_SECONDS.items()}
    out.update({m: t["calls"].get(span, 0) for m, span in SPAN_CALLS.items()})
    out.update({c: t["counters"].get(c, 0) for c in COUNTERS})
    dense = t["counters"].get("spectral.d2_dense", 0)
    out["spectral.d2_density"] = out["spectral.d2_nonzeros"] / dense if dense else 0.0
    out["cli.bytes"] = sum(len(j["stdout"].encode()) for j in report["jobs"])
    out["trace.unattributed_s"] = report["pass_s"] - t["total"].get("cli.main", 0.0)
    out["trace.counting_s"] = t["counting_s"]
    return out


def per_layer(untraced, traced) -> dict:
    values = [_layer_values(p) for p in traced]
    out = {k: statistics.median_low(v[k] for v in values) for k in values[0]}
    out["trace.overhead_ratio"] = (
        statistics.median(p["pass_s"] for p in traced)
        / statistics.median(p["pass_s"] for p in untraced)
    )
    return out


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes":
        return "bytes"
    if name.endswith(("_ratio", "_density")):
        return "ratio"
    return "count"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - start)

    jobs = WORKLOADS[workload]
    rng = random.Random(seed)
    run_pass([], False, remaining())  # warm the bytecode cache
    setups = [run_pass([], False, remaining())["setup_s"] for _ in range(SETUP_PROBES)]
    window = time.perf_counter()
    modes = [False, True] if trace else [False]
    runs = {False: [], True: []}
    longest = 0.0
    while True:
        # Alternate which of a traced pair runs first, so order biases neither.
        for mode in modes[::-1] if (seed + len(runs[True])) % 2 else modes:
            order = rng.sample(range(len(jobs)), len(jobs))
            t0 = time.perf_counter()
            report = run_pass([jobs[k] for k in order], mode, remaining())
            longest = max(longest, time.perf_counter() - t0)
            runs[mode].append(_in_list_order(jobs, order, report))
        elapsed = time.perf_counter() - window
        enough = len(runs[False]) >= (1 if trace else MIN_PASSES)
        if enough and elapsed + len(modes) * longest > seconds:
            break
        if elapsed + len(modes) * longest > RUN_LIMIT_S - (window - start):
            break
    passes = runs[False] + runs[True]
    records = judge(jobs, passes, runs[False])
    metrics = (per_layer(runs[False], runs[True]) if trace
               else end_to_end(setups, runs[False], records))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": {"untraced": len(runs[False]), "traced": len(runs[True])},
        "setup_samples_s": setups,
        "pass_samples_s": {"untraced": [p["pass_s"] for p in runs[False]],
                           "traced": [p["pass_s"] for p in runs[True]]},
        "environment": environment(),
        "metrics": metrics,
        "absent_spans": runs[True][0]["trace"]["absent"] if trace else [],
        "unreadable_counters": runs[True][0]["trace"]["unreadable"] if trace else [],
        "jobs": records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "transgress" / "__init__.py").is_file():
        print(f"error: no transgress sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=2) + "\n")

    records = result["jobs"]
    failed = [r for r in records if not r["ok"]]
    for r in failed:
        tag = " (known defect)" if r["known_defect"] else ""
        print(f"FAILED{tag}: {' '.join(r['argv'])}: {'; '.join(r['problems'])}")
    if result["absent_spans"] or result["unreadable_counters"]:
        print(f"absent spans: {result['absent_spans']}; "
              f"unreadable counters: {result['unreadable_counters']}")
    passes = result["passes"]
    print(f"{args.workload}: {passes['untraced']} untraced and {passes['traced']} traced "
          f"passes, {len(records)} jobs, "
          f"failed_ratio = {len(failed)}/{len(records)} = {len(failed) / len(records):.4f}")
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in result["metrics"].items()}
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["ok"] or r["known_defect"] for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
