"""Span recorder for the benchmark's traced passes.

The traced run times the calls into each metaudit module's public
functions from the benchmark's own code: it replaces each function, in
every metaudit module that binds it, with a wrapper that records a span,
and puts the originals back after the pass.  No program file changes.

A span holds its name, start and end (``perf_counter_ns``), the span that
was open when it started, and the index of the command it ran under.  The
spans stay in memory, in flat integer arrays, until the run writes them
out at the end.  A function that a later version no longer has, or no
longer calls, reports zero calls; that is not a failure.
"""

from __future__ import annotations

import os
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

# Public functions at each module boundary the CLI crosses.
TARGETS = {
    "metaudit.cli": ("main",),
    "metaudit.effect_audit": (
        "audit", "build_pvalue_plot", "uniformity_test", "bilinearity_test",
        "hockey_stick_fit", "multiplicity_report", "p_from_ratio_ci",
        "record_from_statistic",
    ),
    "metaudit.statkernel": ("ks_uniform_test", "ols_fit", "std_normal_quantile"),
    "metaudit.hacksim": ("run_simulation", "substream", "simulate_study"),
    "metaudit.fileio": (
        "read_effects_csv", "read_counts_csv", "file_digest",
        "build_report_document", "write_report_json", "write_plot_csv",
        "write_report_markdown", "write_spaces_csv", "write_space_summary_json",
        "write_sim_csv", "write_sim_summary_json", "write_effects_csv",
    ),
    "metaudit.searchspace": ("compute_spaces", "summarize_spaces"),
    "metaudit.svgplot": ("render_pvalue_plot",),
}
SPAN_NAMES = [
    f"{module.rsplit('.', 1)[1]}.{func}" for module, funcs in TARGETS.items() for func in funcs
]
# Time spent counting rows and bytes after a call returns.  It is a span of
# its own so that it is not charged to the caller's self time.
HOOK = "trace.hook"


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _count_read(counters, args, kwargs, result):
    counters["fileio.rows_read"] += len(result)


def _count_write(counters, args, kwargs, result):
    path = _path_arg(args, kwargs)
    counters["fileio.bytes_written"] += os.path.getsize(path)


def _count_csv_write(counters, args, kwargs, result):
    path = _path_arg(args, kwargs)
    with open(path, "rb") as handle:
        data = handle.read()
    counters["fileio.bytes_written"] += len(data)
    counters["fileio.rows_written"] += max(0, data.count(b"\n") - 1)  # less the header


def _count_svg(counters, args, kwargs, result):
    counters["svgplot.svg_bytes"] += len(result.encode("utf-8"))


def _count_records(counters, args, kwargs, result):
    counters["hacksim.records"] += result.n_total


def _hook_for(name: str):
    if name.startswith("fileio.read_"):
        return _count_read
    if name.startswith("fileio.write_"):
        return _count_csv_write if name.endswith("_csv") else _count_write
    if name == "svgplot.render_pvalue_plot":
        return _count_svg
    if name == "hacksim.run_simulation":
        return _count_records
    return None


COUNTERS = (
    "fileio.rows_read", "fileio.rows_written", "fileio.bytes_written", "svgplot.svg_bytes",
    "hacksim.records",
)


def patch(module_name: str, func: str, make_wrapper) -> list:
    """Replace ``module_name.func`` wherever a metaudit module binds it.

    Returns the replacements made, for ``restore``; an empty list when the
    function does not exist.
    """
    original = getattr(sys.modules.get(module_name), func, None)
    if not callable(original):
        return []
    wrapper = make_wrapper(original)
    patches = []
    for name, module in list(sys.modules.items()):
        if name != "metaudit" and not name.startswith("metaudit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                patches.append((module, attr, original))
    return patches


def restore(patches: list) -> None:
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names = SPAN_NAMES + [HOOK]
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.command_of = array("q")
        self.stack: list[int] = []
        self.command = 0
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.command_of.append(self.command)
        self.start.append(0)
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        hook_id = self.names.index(HOOK)
        hook = _hook_for(name)
        stack, start, end, open_span = self.stack, self.start, self.end, self._open
        counters = self.counters

        def traced(*args, **kwargs):
            idx = open_span(name_id)
            start[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                idx = open_span(hook_id)
                start[idx] = perf_counter_ns()
                hook(counters, args, kwargs, result)
                end[idx] = perf_counter_ns()
                stack.pop()
            return result

        return traced

    @contextmanager
    def installed(self, only: set[str] | None = None):
        """Wrap every target (or just ``only``) for the duration of the block."""
        patches = []
        try:
            for module, funcs in TARGETS.items():
                for func in funcs:
                    name = f"{module.rsplit('.', 1)[1]}.{func}"
                    if only is None or name in only:
                        patches += patch(module, func, lambda fn, name=name: self._wrap(name, fn))
            yield self
        finally:
            restore(patches)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            key: np.frombuffer(getattr(self, key), dtype=np.int64)
            for key in ("name", "start", "end", "parent", "command_of")
        }

    def summary(self, commands: int) -> "Summary":
        cols = self.columns()
        name, parent, command = cols["name"], cols["parent"], cols["command_of"]
        n_names = len(self.names)
        dur = (cols["end"] - cols["start"]).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        # Spans with an effect_audit.audit span among their ancestors.  A
        # parent always precedes its children, so a few sweeps settle it.
        inside = name == self.names.index("effect_audit.audit")
        safe_parent = np.where(has_parent, parent, 0)
        while True:
            grown = inside | (has_parent & inside[safe_parent])
            if np.array_equal(grown, inside):
                break
            inside = grown
        conversions = int(np.count_nonzero(
            inside & (name == self.names.index("effect_audit.p_from_ratio_ci"))
        ))
        per_command = np.zeros((n_names, commands))
        np.add.at(per_command, (name, command), dur)
        return Summary(
            total_s=dict(zip(self.names, np.bincount(name, weights=dur, minlength=n_names) / 1e9)),
            self_s=dict(zip(self.names, np.bincount(name, weights=own, minlength=n_names) / 1e9)),
            calls=dict(zip(self.names, np.bincount(name, minlength=n_names).tolist())),
            by_command={nm: (per_command[i] / 1e9).tolist() for i, nm in enumerate(self.names)},
            conversions_in_audit=conversions,
            counters=dict(self.counters),
            spans=len(dur),
        )


@dataclass
class Summary:
    total_s: dict[str, float]
    self_s: dict[str, float]
    calls: dict[str, int]
    by_command: dict[str, list[float]]  # span name -> seconds under each command
    conversions_in_audit: int  # p_from_ratio_ci calls made inside audit()
    counters: dict[str, int]
    spans: int
