"""Spans around calls into the public functions of `transgress` modules.

The tracer replaces each target function, in every `transgress` module that
binds it, with a wrapper that records one span per call and reads work
counts off the arguments and the returned object.  Nothing inside the
package is edited.  A target that a later version renames or removes is
reported as absent instead of failing the pass.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, function) -> span name
TARGETS = {
    ("cli", "main"): "cli.main",
    ("groupspec", "parse_group_spec"): "groupspec.parse",
    ("lattices", "unit_lattice_basis"): "lattices.unit_basis",
    ("transgression", "transgression_matrix"): "transgression.tau",
    ("transgression", "modp_analysis"): "transgression.modp",
    ("exactlin", "is_prime"): "exactlin.is_prime",
    ("rootdata", "positive_roots"): "rootdata.positive_roots",
    ("spectral", "weyl_group"): "spectral.weyl",
    ("spectral", "chevalley_multiply"): "spectral.chevalley",
    ("spectral", "build_e2"): "spectral.build_e2",
    ("spectral", "e3_ranks"): "spectral.e3_ranks",
}


def _rows(matrix):
    if isinstance(matrix, dict):
        return list(matrix.values())
    return list(getattr(matrix, "rows", matrix))


def _row_nonzeros(row) -> int:
    """Nonzeros of a dense row, a {column: value} dict or (column, value) pairs."""
    if isinstance(row, dict):
        return sum(1 for v in row.values() if v)
    return sum(1 for x in row if (x[-1] if isinstance(x, (tuple, list)) else x))


def _page_counts(page) -> dict[str, int]:
    cells, d2 = page.cells, page.d2
    nonzeros = dense = 0
    for (s, t), matrix in d2.items():
        nonzeros += sum(_row_nonzeros(row) for row in _rows(matrix))
        dense += len(cells.get((s, t), ())) * len(cells.get((s + 2, t - 1), ()))
    return {
        "spectral.cells": sum(len(b) for b in cells.values()),
        "spectral.d2_nonzeros": nonzeros,
        "spectral.d2_dense": dense,
    }


def _count(name, args, result) -> dict[str, int]:
    if name == "spectral.chevalley":
        return {"spectral.cover_edges": len(result)}
    if name == "spectral.weyl":
        return {"spectral.weyl_elements": len(result)}
    if name == "spectral.build_e2":
        return _page_counts(result)
    if name == "spectral.e3_ranks":
        return {"spectral.rank_rows": sum(len(_rows(m)) for m in args[0].d2.values())}
    return {}


class Tracer:
    """Per-name span totals, self times, call counts and work counters."""

    def __init__(self):
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.unreadable: set[str] = set()
        self.counting_s = 0.0
        self._stack: list[list] = []  # [name, seconds covered by children]
        self._depth: dict[str, int] = {}

    def install(self) -> None:
        """Wrap every target in every loaded `transgress` module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "transgress" or n.startswith("transgress.")]
        for (module_name, func_name), name in TARGETS.items():
            try:
                module = importlib.import_module(f"transgress.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules + [module]:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            self._depth[name] = self._depth.get(name, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self._stack.pop()
                self._depth[name] -= 1
                self._close(name, seconds, frame[1])
            counted = time.perf_counter()
            self._read_counts(name, args, result)
            counting = time.perf_counter() - counted
            self.counting_s += counting
            if self._stack:
                self._stack[-1][1] += counting
            return result

        return traced

    def _close(self, name, seconds, children) -> None:
        if self._stack:
            self._stack[-1][1] += seconds
        if not self._depth[name]:  # re-entrant calls count once in the total
            self.total[name] = self.total.get(name, 0.0) + seconds
        self.self_time[name] = self.self_time.get(name, 0.0) + seconds - children
        self.calls[name] = self.calls.get(name, 0) + 1

    def _read_counts(self, name, args, result) -> None:
        try:
            counts = _count(name, args, result)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError):
            self.unreadable.add(name)
            return
        for key, value in counts.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def summary(self) -> dict:
        return {
            "total": self.total,
            "self": self.self_time,
            "calls": self.calls,
            "counters": self.counters,
            "absent": self.absent,
            "unreadable": sorted(self.unreadable),
            "counting_s": self.counting_s,
        }
