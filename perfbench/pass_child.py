"""One pass over a job list, in the fresh interpreter that runs this file.

Reads {"jobs": [argv, ...], "trace": bool} from stdin.  Times the set-up
first (`import transgress` and a first answer, `describe A1`), then calls
`transgress.cli.main(argv)` for each job in order with stdout and stderr
captured, and writes one JSON document to stdout: set-up seconds, pass
seconds, peak resident memory, each job's exit code, seconds and output, and,
when traced, the span summary.
"""

import contextlib
import io
import sys
import time


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # a crashing job is a failed job, not a failed pass
        rc = None
        import traceback

        error = traceback.format_exc()
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue(), error


def main() -> None:
    start = time.perf_counter()
    from transgress import cli

    rc, _, first, _, error = _call(cli.main, ["describe", "A1"])
    setup_s = time.perf_counter() - start
    if rc != 0 or error or not first:
        raise SystemExit(f"set-up answer failed: exit {rc}\n{error or ''}")

    import json
    import resource

    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    jobs = []
    pass_start = time.perf_counter()
    for argv in request["jobs"]:
        rc, seconds, out, err, error = _call(cli.main, argv)
        jobs.append({"rc": rc, "seconds": seconds, "stdout": out,
                     "stderr": err, "error": error})
    pass_s = time.perf_counter() - pass_start
    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": jobs,
        "trace": tracer.summary() if tracer else None,
    }
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
