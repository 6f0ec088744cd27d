"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload, untraced and traced, at a small fraction of its size
and asserts that each metric BENCHMARK.json names is printed with its
unit and that no command failed.  Then it damages outputs and asserts
that the checker counts each damaged one as a failure: a corrupted
report.json, a truncated sim_results.csv, and a report.md whose bytes
differ from the checked pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import run
import workloads

SCALE = 0.02
SECONDS = "0.3"


def printed(argv: list[str]) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, scale=SCALE)
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue().splitlines()


def check_metrics(lines: list[str], declared: list[dict]) -> None:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert list(result["metrics"]) == [m["name"] for m in declared]
    table = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"], (m, value)
        assert isinstance(value["value"], (int, float)), (m, value)
        assert table.get(m["name"]) == m["unit"], f"{m['name']} not printed with its unit"


def check_rejects(cli, cmd: workloads.Command, damage) -> None:
    with run.Runner(cli) as runner:
        _, error = runner.command(cmd.argv)
        assert error is None, error
        assert runner.verify(0, cmd, full=True) is None
        damage()
        error = runner.verify(0, cmd, full=True)
    assert error is not None, f"damaged output of {cmd.argv[0]} passed the check"
    print(f"rejected as expected: {error.splitlines()[0][:100]}")


def main() -> None:
    spec = run.spec()
    for name in workloads.NAMES:
        for trace in ("0", "1"):
            lines = printed(["--workload", name, "--seed", "7", "--seconds", SECONDS, "--trace", trace])
            check_metrics(lines, spec["per_layer" if trace == "1" else "end_to_end"])
            print(f"ok: {name} trace {trace}")

    cli = run.import_cli()
    base = run.OUT / "smoke"
    shutil.rmtree(base, ignore_errors=True)
    mixture = workloads.build("audit-mixture", 7, base / "mixture", SCALE)
    sweep = workloads.build("simulate-sweep", 7, base / "sweep", SCALE)
    audit, report = mixture.commands[0], mixture.commands[0].outputs[0]
    simulate, sim_csv = sweep.commands[0], sweep.commands[0].outputs[0]

    def reverse_pvalues():
        doc = json.loads(report.read_text(encoding="utf-8"))
        p = [rec["p"] for rec in doc["pvalues"]]
        for rec, value in zip(doc["pvalues"], reversed(p)):
            rec["p"] = value
        report.write_text(json.dumps(doc), encoding="utf-8")

    def truncate():
        lines = sim_csv.read_bytes().splitlines(keepends=True)
        sim_csv.write_bytes(b"".join(lines[: len(lines) // 2]))

    check_rejects(cli, audit, reverse_pvalues)
    check_rejects(cli, simulate, truncate)
    # A later pass must write the checked pass's bytes.
    with run.Runner(cli) as runner:
        runner.run_pass(mixture, full_check=True)
        assert not runner.failures, runner.failures
        with open(audit.outputs[2], "a", encoding="utf-8") as md:
            md.write("\n")
        assert runner.verify(0, audit, full=False) is not None
    print("rejected as expected: changed report.md bytes")
    print("smoke test passed")


if __name__ == "__main__":
    main()
