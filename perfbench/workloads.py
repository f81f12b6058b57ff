"""The benchmark's job lists.

A job is the argv of one `transgress` CLI call.  Every job asks for --json,
so the oracle can read its answer.
"""

from __future__ import annotations

from oracle import INTERMEDIATE_PI1

BIG_PRIME = "999999999989"

# Every simple type of rank <= 8.
ALL_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def _e3(spec, *options):
    return ["e3", spec, *options, "--json", "--bidegrees"]


def _tau_sweep():
    specs = [f"{t}:{form}" for t in ALL_TYPES for form in ("sc", "adj")]
    specs += list(INTERMEDIATE_PI1)
    jobs = []
    for spec in specs:
        jobs.append(["describe", spec, "--json"])
        jobs += [["tau", spec, "--mod", str(p), "--json"] for p in (2, 3, 5, 7)]
    return jobs + [["tau", "C3:adj", "--mod", BIG_PRIME, "--json"]] * 3


# A4's full page (10-15 s on a 2-core box before any speed-up) is cut to total
# degree 8 and E6 is left out: a pass has to repeat several times inside one
# run for a steady median.
WORKLOADS = {
    "e3-full-q": [
        _e3("G2"),
        _e3("A3"),
        _e3("B3"),
        _e3("C3:adj"),
        _e3("A4", "--max-degree", "8"),
    ],
    "e3-low-degree-modp": [
        _e3("D5", "--coeff", "2", "--max-degree", "3"),
        _e3("F4", "--coeff", "2", "--max-degree", "3"),
        _e3("A5", "--coeff", "3", "--max-degree", "3"),
        _e3("B4", "--coeff", "2", "--max-degree", "5"),
        _e3("C4", "--coeff", "2", "--max-degree", "5"),
        _e3("A2", "--coeff", BIG_PRIME),
    ],
    "tau-sweep": _tau_sweep(),
}

# Jobs whose oracle miss is a known defect of the program.  They count as
# failed like any other; a miss here does not mark the run incorrect, so the
# defect stays visible in `failed` until the program is fixed.
KNOWN_DEFECTS = {
    # Langlands-dual Chevalley coefficient: B_n and C_n swapped mod p.
    " ".join(_e3("C4", "--coeff", "2", "--max-degree", "5")),
}
