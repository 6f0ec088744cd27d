"""Benchmark of the metaudit CLI.

Runs one workload through ``metaudit.cli.main`` in a closed loop with one
caller (each command starts when the previous one returns), checks every
output, and prints each metric by name with its unit.  The last line of
standard output is the result as one JSON object.

    python3 perfbench/run.py --workload audit-mixture --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced passes and prints
the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One process, one thread: pin the NumPy/BLAS pools before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
# Set-up (input generation and one warm-up pass into a fresh directory) runs
# once before the measured passes and again between them, whenever set-ups
# have taken less than SETUP_SHARE of the passes' time, and at least SETUPS
# times.  Spread over the run like this, the fastest set-up (setup_s) comes
# from the same quiet stretches of the machine as items_per_s.
SETUPS = 3
SETUP_SHARE = 0.25
# Fresh-interpreter imports timed for the per-layer cli.import_s.
IMPORT_PROBES = 5
# The hockey-stick exponent pass alternates the two sizes, so that a slow
# spell of the machine slows both alike, at least this many times each and
# for at least this long; the fastest fit of each size counts.
EXPONENT_MIN_RUNS = 5
EXPONENT_MIN_S = 2.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import metaudit.cli; "
    "print(time.perf_counter() - t)"
)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def probe_import() -> float:
    """Seconds a fresh interpreter spends importing metaudit.cli."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def latency(passes: list[list[float]]) -> dict:
    """Median and 99th-percentile command latency, with the sample count."""
    times = [t for p in passes for t in p]
    p99 = statistics.quantiles(times, n=100, method="inclusive")[98] if len(times) > 1 else times[0]
    return {
        "commands": len(times),
        "cmd_p50_ms": statistics.median(times) * 1e3,
        "cmd_p99_ms": p99 * 1e3,
    }


class Runner:
    """Drives commands through cli.main and keeps the failure tally.

    A command's first successful run, and every set-up run, is checked in
    full; every run must write the same bytes as the first checked one.
    """

    def __init__(self, cli) -> None:
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[int, list[str]] = {}
        self.sink = open(os.devnull, "w", encoding="utf-8")

    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def command(self, argv: list[str]) -> tuple[float, str | None]:
        """Run one command; return its latency and an error, if any."""
        self.attempted += 1
        err = io.StringIO()
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed command, not a failed run
                code = traceback.format_exc()
            elapsed = time.perf_counter() - start
        if code == 0:
            return elapsed, None
        return elapsed, f"{code!r}: {err.getvalue().strip()}"

    def verify(self, index: int, cmd: workloads.Command, full: bool) -> str | None:
        try:
            digest = [workloads.sha256(p) for p in cmd.outputs]
            if full or index not in self.reference:
                cmd.check()
        except Exception as exc:  # any unreadable or wrong output fails the command
            return f"check failed: {type(exc).__name__}: {exc}"
        expected = self.reference.setdefault(index, digest)
        if digest != expected:
            return "outputs differ from the checked reference pass"
        return None

    def run_pass(self, workload, full_check=False, recorder=None) -> list[float]:
        times = []
        for index, cmd in enumerate(workload.commands):
            if recorder is not None:
                recorder.command = index
            elapsed, error = self.command(cmd.argv)
            times.append(elapsed)
            if error is None:
                error = self.verify(index, cmd, full_check)
            if error is not None:
                self.failures.append(f"{' '.join(cmd.argv)}: {error}")
        return times


class Bench:
    """One workload's set-ups, measured passes and traced passes."""

    def __init__(self, runner: Runner, name: str, seed: int, scale: float) -> None:
        self.name, self.seed, self.scale = name, seed, scale
        self.base = OUT / name
        shutil.rmtree(self.base, ignore_errors=True)
        self.runner = runner
        self.setup_s: list[float] = []
        self.workload = None
        self.setup()

    def setup(self) -> None:
        start = time.perf_counter()
        root = self.base / f"setup{len(self.setup_s)}"
        self.workload = workloads.build(self.name, self.seed, root, self.scale)
        generated = time.perf_counter() - start
        warm = sum(self.runner.run_pass(self.workload, full_check=True))
        self.setup_s.append(generated + warm)

    def untraced(self, seconds: float) -> tuple[dict, dict]:
        passes, spent = [], 0.0
        while not passes or spent < seconds:
            start = time.perf_counter()
            passes.append(self.runner.run_pass(self.workload))
            spent += time.perf_counter() - start
            if sum(self.setup_s) < SETUP_SHARE * spent:
                self.setup()
        while len(self.setup_s) < SETUPS:
            self.setup()
        # Each command's fastest run, summed over the pass: a short command
        # needs a shorter quiet stretch of the machine than a whole pass does.
        best = sum(min(p[i] for p in passes) for i in range(len(self.workload.commands)))
        metrics = {
            "items_per_s": self.workload.items / best,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": min(self.setup_s),
        }
        per_command = [
            {
                "argv": c.argv,
                "median_ms": statistics.median(p[i] for p in passes) * 1e3,
                "best_ms": min(p[i] for p in passes) * 1e3,
            }
            for i, c in enumerate(self.workload.commands)
        ]
        detail = {
            "samples": {"passes": len(passes), "setups": len(self.setup_s), **latency(passes)},
            "pass_ms": {
                "best_commands_summed": best * 1e3,
                "best": min(sum(p) for p in passes) * 1e3,
                "median": statistics.median(sum(p) for p in passes) * 1e3,
            },
            "setup_s": self.setup_s,
            "per_command": per_command,
        }
        return metrics, detail

    def traced(self, seconds: float) -> tuple[dict, dict]:
        untraced, traced, summaries, recorders = [], [], [], []
        commands = len(self.workload.commands)
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(self.runner.run_pass(self.workload))
            recorder = tracer.Recorder()
            with recorder.installed():
                traced.append(sum(self.runner.run_pass(self.workload, recorder=recorder)))
            summaries.append(recorder.summary(commands))
            recorders.append(recorder)
        per_pass = [self.layer_metrics(s) for s in summaries]
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        latencies = latency(untraced)
        metrics["cli.import_s"] = statistics.median(probe_import() for _ in range(IMPORT_PROBES))
        metrics["cli.cmd_p50_ms"] = latencies["cmd_p50_ms"]
        metrics["cli.cmd_p99_ms"] = latencies["cmd_p99_ms"]
        metrics["trace.overhead_ratio"] = min(traced) / min(sum(p) for p in untraced)
        metrics["effect_audit.hockey_stick_exponent"] = self.exponent_pass()
        metrics["hacksim.peak_alloc_mb"] = self.alloc_pass()
        self.write_spans(recorders)
        samples = {
            "traced_passes": len(traced),
            "untraced_passes": len(untraced),
            "commands": latencies["commands"],
            "spans": sum(s.spans for s in summaries),
            "setups": len(self.setup_s),
        }
        per_command = [
            {
                "argv": c.argv,
                "spans_s": {
                    name: statistics.median(s.by_command[name][i] for s in summaries)
                    for name in tracer.SPAN_NAMES
                    if any(s.by_command[name][i] for s in summaries)
                },
            }
            for i, c in enumerate(self.workload.commands)
        ]
        return metrics, {"samples": samples, "per_command": per_command}

    def layer_metrics(self, s: tracer.Summary) -> dict:
        commands = self.workload.commands
        metrics = {f"{name}_s": s.total_s[name] for name in tracer.SPAN_NAMES}
        metrics["cli.self_s"] = s.self_s["cli.main"]
        metrics["effect_audit.audit_self_s"] = s.self_s["effect_audit.audit"]
        metrics["hacksim.run_simulation_self_s"] = s.self_s["hacksim.run_simulation"]
        metrics["effect_audit.p_from_ratio_ci_calls"] = s.calls["effect_audit.p_from_ratio_ci"]
        metrics["statkernel.std_normal_quantile_calls"] = s.calls["statkernel.std_normal_quantile"]
        points = sum(c.points for c in commands)
        metrics["effect_audit.conversions_per_point"] = (
            s.conversions_in_audit / points if points else 0.0
        )
        # Draws are the workload's fixed count (its argv); records are counted
        # from what run_simulation returned.
        draws = sum(c.draws for c in commands)
        run_s = s.total_s["hacksim.run_simulation"]
        metrics["hacksim.draws"] = draws
        metrics["hacksim.draws_per_s"] = draws / run_s if run_s else 0.0
        k1 = [i for i, c in enumerate(commands) if c.k == 1]
        k1_run = sum(s.by_command["hacksim.run_simulation"][i] for i in k1)
        k1_setup = sum(s.by_command["hacksim.substream"][i] for i in k1)
        metrics["hacksim.substream_share_k1"] = k1_setup / k1_run if k1_run else 0.0
        metrics.update(s.counters)
        return metrics

    def exponent_pass(self) -> float:
        """log2 of hockey_stick_fit time at n over n/2, in a pass of its own."""
        full = self.workload.largest_audit
        if full is None:
            return 0.0
        base = self.base / "exponent"
        half = base / "half.csv"
        base.mkdir(parents=True)
        n = checks.effect_rows(full)[0]
        with open(full, encoding="utf-8", newline="") as src, \
                open(half, "w", encoding="utf-8", newline="") as dst:
            reader, writer = csv.reader(src), csv.writer(dst, lineterminator="\n")
            writer.writerow(next(reader))
            kept = 0
            for row in reader:
                if kept == n // 2:
                    break
                writer.writerow(row)
                kept += row[-1].strip() != "1"
        fit_s = {full: [], half: []}
        spent = 0.0
        while len(fit_s[full]) < EXPONENT_MIN_RUNS or spent < EXPONENT_MIN_S:
            for path, samples in fit_s.items():
                argv = ["audit", "--input", str(path), "--output", str(base / path.stem)]
                recorder = tracer.Recorder()
                with recorder.installed(only={"effect_audit.hockey_stick_fit"}):
                    elapsed, error = self.runner.command(argv)
                if error is not None:
                    self.runner.failures.append(f"{' '.join(argv)}: {error}")
                    return 0.0
                samples.append(recorder.summary(1).total_s["effect_audit.hockey_stick_fit"])
                spent += elapsed
        return math.log(min(fit_s[full]) / min(fit_s[half])) / math.log(n / (n // 2))

    def alloc_pass(self) -> float:
        """Peak traced allocation inside run_simulation, in MiB, in a pass of its own."""
        peaks = []

        def make(fn):
            def measured(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            return measured

        if not any(c.draws for c in self.workload.commands):
            return 0.0
        patches = tracer.patch("metaudit.hacksim", "run_simulation", make)
        try:
            self.runner.run_pass(self.workload)
        finally:
            tracer.restore(patches)
        return max(peaks, default=0) / 2**20

    def write_spans(self, recorders: list[tracer.Recorder]) -> None:
        columns = {
            f"pass{i}_{key}": column
            for i, r in enumerate(recorders)
            for key, column in r.columns().items()
        }
        np.savez_compressed(self.base / "spans.npz", **columns)
        (self.base / "spans.json").write_text(json.dumps({
            "arrays": "pass<i>_<column> in spans.npz; times are perf_counter_ns",
            "names": recorders[0].names,
            "commands": [c.argv for c in self.workload.commands],
        }, indent=1) + "\n", encoding="utf-8")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    """Import metaudit.cli from this checkout's src/, or exit non-zero."""
    if not (SRC / "metaudit" / "cli.py").is_file():
        sys.exit(f"perfbench: no metaudit source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import metaudit.cli

    if not Path(metaudit.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported metaudit from {metaudit.cli.__file__}, not {SRC}")
    return metaudit.cli


def main(argv: list[str] | None = None, scale: float = 1.0) -> int:
    """Run one workload and print its metrics; ``scale`` < 1 is for the smoke test."""
    args = parse_args(argv)
    cli = import_cli()
    with Runner(cli) as runner:
        bench = Bench(runner, args.workload, args.seed, scale)
        if args.trace:
            values, detail = bench.traced(args.seconds)
        else:
            values, detail = bench.untraced(args.seconds)
    declared = spec()["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "inputs_sha256": bench.workload.inputs,
        "work_items_per_pass": bench.workload.items,
        "work_item": bench.workload.item_unit,
        **detail,
        "failures": runner.failures[:20],
        "result": result,
    }
    (bench.base / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for message in runner.failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"# metaudit benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {json.dumps(detail['samples'])}")
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
