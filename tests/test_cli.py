"""End-to-end tests for the command-line interface."""

import argparse
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from metaudit import cli, fileio
from metaudit.cli import main
from metaudit.fileio import COUNTS_HEADER, EFFECTS_HEADER, bundled_data_path, json_dumps
from metaudit.hacksim import SimConfig, run_simulation
from tests.conftest import CORPUS_ROWS, CORPUS_SUMMARY

GOLDEN_DIR = Path(__file__).parent / "golden"
COUNTS = str(bundled_data_path("nawrot_counts.csv"))
EFFECTS = str(bundled_data_path("example_effects.csv"))


def run_space(tmp_path, *extra):
    outdir = tmp_path / "space"
    code = main(["space", "--input", COUNTS, "--output", str(outdir), *extra])
    return code, outdir


class TestCmdSpace:
    def test_reproduces_all_study_rows(self, tmp_path):
        code, outdir = run_space(tmp_path)
        assert code == 0
        lines = (outdir / "spaces.csv").read_text(encoding="utf-8").splitlines()
        parsed = {
            cells[0]: tuple(int(c) for c in cells[5:])
            for cells in (line.split(",") for line in lines[1:])
        }
        for study_id, *_, space1, space2, space3 in CORPUS_ROWS:
            assert parsed[study_id] == (space1, space2, space3)

    def test_summary_matches_frozen_quantiles(self, tmp_path):
        code, outdir = run_space(tmp_path)
        assert code == 0
        summary = json.loads((outdir / "space_summary.json").read_text(encoding="utf-8"))
        assert summary["schema"] == "metaudit/2"
        for name, expected in CORPUS_SUMMARY.items():
            got = summary[name]
            assert (
                got["minimum"],
                got["lower_quartile"],
                got["median"],
                got["upper_quartile"],
                got["maximum"],
            ) == pytest.approx(expected)

    def test_idempotent_outputs(self, tmp_path):
        _, first = run_space(tmp_path)
        second = tmp_path / "space2"
        main(["space", "--input", COUNTS, "--output", str(second)])
        for name in ("spaces.csv", "space_summary.json", "spaces.md"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["space", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["spaces.csv", "space_summary.json", "spaces.md"])
    def test_matches_golden_bytes(self, tmp_path, name):
        _, outdir = run_space(tmp_path)
        assert (outdir / name).read_bytes() == (GOLDEN_DIR / "space_nawrot" / name).read_bytes()

    def test_overflow_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "wide.csv"
        bad.write_text(
            "study_id,outcomes,predictors,lags,covariates\nwide,1,1,1,63\n",
            encoding="utf-8",
        )
        code = main(["space", "--input", str(bad), "--output", str(tmp_path / "o")])
        assert code == 3
        assert "wide" in capsys.readouterr().err


class TestCmdAudit:
    def test_report_json_with_counts(self, tmp_path):
        outdir = tmp_path / "audit"
        code = main(
            ["audit", "--input", EFFECTS, "--counts", COUNTS, "--output", str(outdir)]
        )
        assert code == 0
        document = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        assert document["schema"] == "metaudit/2"
        assert document["plot"]["n"] == 12
        assert document["plot"]["excluded_ns_count"] == 2
        assert document["multiplicity"]["m"] == 6784.0
        assert document["multiplicity"]["adjusted_alpha"] == pytest.approx(0.05 / 6784)
        assert len(document["spaces"]) == 14
        assert len(document["inputs_digest"]) == 2
        assert document["tests"]["uniformity"]["method"] == "ks-uniform"

    def test_report_without_counts_omits_multiplicity(self, tmp_path):
        outdir = tmp_path / "audit"
        main(["audit", "--input", EFFECTS, "--output", str(outdir)])
        document = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        assert document["multiplicity"] is None
        assert document["spaces"] is None

    @pytest.mark.parametrize(
        "golden",
        [
            None,
            "example_report.json",
            "ties/report.json",
            "sim_k10_censor/audit/report.json",
            "sim_k10_censor/sim_summary.json",
            "sim_random_k4/sim_summary.json",
            "space_nawrot/space_summary.json",
        ],
        ids=lambda golden: golden or "audit_with_counts",
    )
    def test_json_reserialization_is_byte_identical(self, tmp_path, golden):
        if golden is None:
            outdir = tmp_path / "audit"
            main(["audit", "--input", EFFECTS, "--counts", COUNTS, "--output", str(outdir)])
            path = outdir / "report.json"
        else:
            path = GOLDEN_DIR / golden
        raw = path.read_text(encoding="utf-8")
        assert json_dumps(json.loads(raw)) == raw

    def test_plot_csv_round_trips(self, tmp_path):
        outdir = tmp_path / "audit"
        main(["audit", "--input", EFFECTS, "--output", str(outdir)])
        raw = (outdir / "plot_data.csv").read_text(encoding="utf-8")
        lines = raw.splitlines()
        rebuilt = [lines[0]]
        for line in lines[1:]:
            rank, p, ref = line.split(",")
            rebuilt.append(f"{int(rank)},{float(p)!r},{float(ref)!r}")
        assert "\n".join(rebuilt) + "\n" == raw

    def test_single_record_reports_insufficient_data(self, tmp_path):
        effects = tmp_path / "one.csv"
        effects.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\n"
            "solo,only record,1.2,1.05,1.3714285714285714,0.95,0\n",
            encoding="utf-8",
        )
        outdir = tmp_path / "audit"
        code = main(["audit", "--input", str(effects), "--output", str(outdir)])
        assert code == 0
        document = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        assert document["tests"]["uniformity"]["verdict"] == "insufficient data"
        assert document["tests"]["bilinearity"] is None
        assert document["tests"]["hockey_stick"] is None

    @pytest.mark.parametrize("command", ["audit", "space"])
    def test_oversized_cell_exits_2(self, tmp_path, capsys, command):
        header = EFFECTS_HEADER if command == "audit" else COUNTS_HEADER
        path = tmp_path / "big.csv"
        path.write_text(
            ",".join(header) + '\n"' + "x" * (csv.field_size_limit() + 1) + '",1\n',
            encoding="utf-8",
        )
        assert main([command, "--input", str(path), "--output", str(tmp_path / "o")]) == 2
        assert "field larger than field limit" in capsys.readouterr().err

    def test_duplicate_ids_warn_and_keep_the_bytes(self, tmp_path, capsys):
        rows = ["a,x,1.1,1.0,1.21,0.95,0", "b,x,1.2,1.0,1.44,0.95,0", "c,x,,,,0.95,1"]
        clean = tmp_path / "clean.csv"
        clean.write_text("\n".join([",".join(EFFECTS_HEADER), *rows]) + "\n", encoding="utf-8")
        dup = tmp_path / "dup.csv"
        dup.write_text(
            "\n".join([",".join(EFFECTS_HEADER), "# note", *rows, rows[0], "b,x,,,,0.95,1"]) + "\n",
            encoding="utf-8",
        )
        assert main(["audit", "--input", str(clean), "--output", str(tmp_path / "clean")]) == 0
        assert "warning" not in capsys.readouterr().err
        for command, out in (("audit", "dup"), ("plot", "dup.svg")):
            assert main([command, "--input", str(dup), "--output", str(tmp_path / out)]) == 0
            err = capsys.readouterr().err
            assert "warning: 2 duplicate study ids (first: 'a', rows 3 and 6)" in err
        # Every row is still ranked.
        document = json.loads((tmp_path / "dup" / "report.json").read_text(encoding="utf-8"))
        assert sorted(rec["study_id"] for rec in document["pvalues"]) == ["a", "a", "b"]
        assert document["plot"]["excluded_ns_count"] == 2

    @pytest.mark.parametrize("command", ["space", "audit"])
    def test_duplicate_counts_ids_warn_and_keep_every_row(self, tmp_path, capsys, command):
        rows = ["a,1,2,1,3", "b,2,2,1,0", "c,1,1,1,1"]
        counts = tmp_path / "counts.csv"
        counts.write_text(
            "\n".join([",".join(COUNTS_HEADER), *rows, rows[1], "c,3,1,1,2"]) + "\n",
            encoding="utf-8",
        )
        argv = ["space", "--input", str(counts)]
        if command == "audit":
            argv = ["audit", "--input", EFFECTS, "--counts", str(counts)]
        assert main([*argv, "--output", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err
        assert f"warning: {counts}: 2 duplicate study ids (first: 'b', rows 3 and 5)" in err
        if command == "space":
            lines = (tmp_path / "o" / "spaces.csv").read_text(encoding="utf-8").splitlines()
            assert [line.split(",")[0] for line in lines[1:]] == ["a", "b", "c", "b", "c"]
        else:
            document = json.loads((tmp_path / "o" / "report.json").read_text(encoding="utf-8"))
            assert [s["study_id"] for s in document["spaces"]] == ["a", "b", "c", "b", "c"]

    def test_unique_counts_ids_do_not_warn(self, tmp_path, capsys):
        assert main(["audit", "--input", EFFECTS, "--counts", COUNTS, "--output", str(tmp_path)]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_all_ns_exits_4(self, tmp_path, capsys):
        effects = tmp_path / "ns.csv"
        effects.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\nns1,x,,,,0.95,1\n",
            encoding="utf-8",
        )
        code = main(["audit", "--input", str(effects), "--output", str(tmp_path / "o")])
        assert code == 4

    @pytest.mark.parametrize("alpha", ["5", "0", "1", "-0.1", "nan", "x"])
    def test_alpha_out_of_range_exits_2_without_counts(self, tmp_path, capsys, alpha):
        outdir = tmp_path / "audit"
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--input", EFFECTS, "--alpha", alpha, "--output", str(outdir)])
        assert exc.value.code == 2
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not outdir.exists()


    @pytest.mark.parametrize("name", ["report.json", "plot_data.csv", "report.md"])
    def test_matches_golden_bytes(self, tmp_path, name):
        outdir = tmp_path / "audit"
        main(["audit", "--input", EFFECTS, "--counts", COUNTS, "--output", str(outdir)])
        assert (outdir / name).read_bytes() == (GOLDEN_DIR / f"example_{name}").read_bytes()

    @pytest.mark.parametrize("name", ["report.json", "plot_data.csv", "report.md"])
    def test_tie_heavy_input_matches_golden_bytes(self, tmp_path, name):
        # P_FLOOR clamps, p = 1.0 rows and exact ties whose ids sort against
        # file order, every level form, ns rows and a multi-line label.
        outdir = tmp_path / "audit"
        effects = GOLDEN_DIR / "ties" / "effects.csv"
        assert main(["audit", "--input", str(effects), "--counts", COUNTS, "--output", str(outdir)]) == 0
        assert (outdir / name).read_bytes() == (GOLDEN_DIR / "ties" / name).read_bytes()

    @pytest.mark.parametrize("name", ["report.json", "plot_data.csv", "report.md"])
    def test_simulated_effects_match_golden_bytes(self, tmp_path, name):
        # The README pipeline's shape: simulate --emit-effects, then audit.
        outdir = tmp_path / "audit"
        effects = GOLDEN_DIR / "sim_k10_censor" / "sim_effects.csv"
        assert main(["audit", "--input", str(effects), "--output", str(outdir)]) == 0
        assert (outdir / name).read_bytes() == (GOLDEN_DIR / "sim_k10_censor" / "audit" / name).read_bytes()

    @pytest.mark.parametrize("effects", ["ties/effects.csv", "sim_k10_censor/sim_effects.csv"])
    def test_pvalues_hold_the_whole_plot(self, tmp_path, effects):
        # pvalues is the one ranked table: the plot's points and its
        # reference line i/(n+1) are rebuilt from it and plot.n.
        outdir = tmp_path / "audit"
        assert main(["audit", "--input", str(GOLDEN_DIR / effects), "--output", str(outdir)]) == 0
        document = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        with open(outdir / "plot_data.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        n = document["plot"]["n"]
        assert [row["rank"] for row in document["pvalues"]] == list(range(1, n + 1))
        assert [row["p"] for row in document["pvalues"]] == [float(row["p"]) for row in rows]
        assert [float(row["reference"]) for row in rows] == [i / (n + 1) for i in range(1, n + 1)]
        assert list(document["plot"]) == ["n", "excluded_ns_count"]

    def test_control_character_in_study_id_gives_valid_json(self, tmp_path):
        effects = tmp_path / "tab.csv"
        effects.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\n"
            "tab\there,x,1.2,1.05,1.3714285714285714,0.95,0\n"
            "plain,y,1.1,1.0,1.21,0.95,0\n",
            encoding="utf-8",
        )
        outdir = tmp_path / "audit"
        assert main(["audit", "--input", str(effects), "--output", str(outdir)]) == 0
        document = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        assert {rec["study_id"] for rec in document["pvalues"]} == {"tab\there", "plain"}

    def test_quoted_newline_in_label_audits(self, tmp_path):
        effects = tmp_path / "multiline.csv"
        effects.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\n"
            'a,"cohort A,\nmen",1.2,1.05,1.3714285714285714,0.95,0\n'
            "b,y,1.1,1.0,1.21,0.95,0\n",
            encoding="utf-8",
        )
        outdir = tmp_path / "audit"
        assert main(["audit", "--input", str(effects), "--output", str(outdir)]) == 0
        document = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        assert document["plot"]["n"] == 2


class TestCmdPlot:
    def test_matches_golden_bytes(self, tmp_path):
        target = tmp_path / "plot.svg"
        code = main(["plot", "--input", EFFECTS, "--output", str(target)])
        assert code == 0
        assert target.read_bytes() == (GOLDEN_DIR / "pvalue_plot.svg").read_bytes()

    def test_tie_heavy_input_matches_golden_bytes(self, tmp_path):
        target = tmp_path / "plot.svg"
        assert main(["plot", "--input", str(GOLDEN_DIR / "ties" / "effects.csv"), "--output", str(target)]) == 0
        assert target.read_bytes() == (GOLDEN_DIR / "ties" / "pvalue_plot.svg").read_bytes()

    def test_simulated_effects_match_golden_bytes(self, tmp_path):
        # The README pipeline's plot of simulate --emit-effects.
        golden = GOLDEN_DIR / "sim_k10_censor"
        target = tmp_path / "plot.svg"
        assert main(["plot", "--input", str(golden / "sim_effects.csv"), "--output", str(target)]) == 0
        assert target.read_bytes() == (golden / "pvalue_plot.svg").read_bytes()

    def test_directory_output_gets_default_name(self, tmp_path):
        outdir = tmp_path / "figs"
        code = main(["plot", "--input", EFFECTS, "--output", str(outdir)])
        assert code == 0
        assert (outdir / "pvalue_plot.svg").exists()

    def test_structural_counts(self, tmp_path):
        target = tmp_path / "plot.svg"
        effects = tmp_path / "three.csv"
        effects.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\n"
            "a,one,1.2,1.05,1.3714285714285714,0.95,0\n"
            "b,two,1.1,0.95,1.2736842105263158,0.95,0\n"
            "c,three,1.05,0.9,1.225,0.95,0\n",
            encoding="utf-8",
        )
        main(["plot", "--input", str(effects), "--output", str(target)])
        svg = target.read_text(encoding="utf-8")
        assert svg.count("<circle") == 3
        assert svg.count("stroke-dasharray") == 1

    def test_ns_only_exits_4(self, tmp_path):
        effects = tmp_path / "ns.csv"
        effects.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\nns1,x,,,,0.95,1\n",
            encoding="utf-8",
        )
        code = main(["plot", "--input", str(effects), "--output", str(tmp_path / "p.svg")])
        assert code == 4

    @pytest.mark.parametrize("alpha", ["5", "0", "1", "-0.1", "nan"])
    def test_alpha_out_of_range_exits_2(self, tmp_path, capsys, alpha):
        target = tmp_path / "plot.svg"
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--input", EFFECTS, "--alpha", alpha, "--output", str(target)])
        assert exc.value.code == 2
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not target.exists()


class TestCmdSimulate:
    def test_deterministic_reruns(self, tmp_path):
        args = ["simulate", "--k", "1", "--replicates", "1000", "--seed", "7"]
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        for name in ("sim_results.csv", "sim_summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_summary_echoes_resolved_config(self, tmp_path):
        outdir = tmp_path / "sim"
        main(
            [
                "simulate", "--k", "3", "--replicates", "200", "--seed", "11",
                "--rule", "report-random", "--censor", "--output", str(outdir),
            ]
        )
        summary = json.loads((outdir / "sim_summary.json").read_text(encoding="utf-8"))
        config = summary["config"]
        assert config["tests_per_study"] == 3
        assert config["seed"] == 11
        assert config["selection_rule"] == "report-random"
        assert config["censor_at_alpha"] is True
        assert summary["n_reported"] == summary["n_published"]

    def test_config_file_with_flag_override(self, tmp_path):
        config_file = tmp_path / "sim.cfg"
        config_file.write_text(
            "# scenario\ntests_per_study=5\nreplicates=300\nseed=9\ncensor_at_alpha=true\n",
            encoding="utf-8",
        )
        outdir = tmp_path / "sim"
        code = main(
            [
                "simulate", "--config", str(config_file),
                "--replicates", "150", "--output", str(outdir),
            ]
        )
        assert code == 0
        summary = json.loads((outdir / "sim_summary.json").read_text(encoding="utf-8"))
        assert summary["config"]["tests_per_study"] == 5
        assert summary["config"]["replicates"] == 150
        assert summary["config"]["censor_at_alpha"] is True

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config_file = tmp_path / "sim.cfg"
        config_file.write_text("tests=5\n", encoding="utf-8")
        code = main(["simulate", "--config", str(config_file), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,expected",
        [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)],
    )
    def test_config_booleans(self, tmp_path, text, expected):
        config_file = tmp_path / "sim.cfg"
        config_file.write_text(f"replicates=20\ncensor_at_alpha={text}\n", encoding="utf-8")
        outdir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_file), "--output", str(outdir)]) == 0
        summary = json.loads((outdir / "sim_summary.json").read_text(encoding="utf-8"))
        assert summary["config"]["censor_at_alpha"] is expected

    @pytest.mark.parametrize("text", ["ture", "on", "2", ""])
    def test_bad_config_boolean_exits_2(self, tmp_path, capsys, text):
        # Any other text once ran uncensored and exited 0.
        config_file = tmp_path / "sim.cfg"
        config_file.write_text(f"replicates=20\ncensor_at_alpha={text}\n", encoding="utf-8")
        outdir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_file), "--output", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert f"{config_file}: bad value for censor_at_alpha: {text!r} (row 2)" in err
        assert not outdir.exists()

    def test_repeated_config_key_exits_2(self, tmp_path, capsys):
        # The last value once won silently.
        config_file = tmp_path / "sim.cfg"
        config_file.write_text("seed=1\n# again\nreplicates=20\n seed = 2\n", encoding="utf-8")
        outdir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_file), "--output", str(outdir)]) == 2
        assert f"{config_file}: repeated config key 'seed' (row 4)" in capsys.readouterr().err
        assert not outdir.exists()

    def test_correlation_bound_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--correlation", "1.0", "--output", str(tmp_path / "o")]
        )
        assert code == 2
        assert "correlation must be < 1" in capsys.readouterr().err

    def test_markdown_format_is_rejected(self, tmp_path, capsys):
        # simulate has no markdown output; accepting md wrote nothing.
        outdir = tmp_path / "sim"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--replicates", "10", "--format", "md", "--output", str(outdir)])
        assert exc.value.code == 2
        assert "invalid choice: 'md'" in capsys.readouterr().err
        assert not outdir.exists()

    def test_emit_effects_feeds_audit(self, tmp_path):
        effects = tmp_path / "sim_effects.csv"
        main(
            [
                "simulate", "--k", "10", "--replicates", "300", "--seed", "5",
                "--censor", "--output", str(tmp_path / "sim"),
                "--emit-effects", str(effects),
            ]
        )
        outdir = tmp_path / "audit"
        code = main(["audit", "--input", str(effects), "--output", str(outdir)])
        assert code == 0
        document = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        # Censored selected p-values all clear the screen, so the blade
        # is everything and uniformity must reject hard.
        assert document["tests"]["uniformity"]["p_value"] < 1e-6

    def test_sim_results_cells_are_plain_floats(self, tmp_path):
        outdir = tmp_path / "sim"
        args = ["--k", "4", "--replicates", "400", "--seed", "13"]
        assert main(["simulate", *args, "--output", str(outdir)]) == 0
        result = run_simulation(SimConfig(tests_per_study=4, replicates=400, seed=13))
        with open(outdir / "sim_results.csv", newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        assert header == ["replicate", "study", "p", "estimate"]
        published = result.published
        assert [int(row[0]) for row in rows] == result.replicate[published].tolist()
        assert [float(row[2]) for row in rows] == result.p[published].tolist()
        assert [float(row[3]) for row in rows] == result.estimate[published].tolist()

    @pytest.mark.parametrize("effect", ["10000", "-10000"])
    def test_emit_off_the_ratio_scale_exits_2_writing_nothing(self, tmp_path, capsys, effect):
        outdir = tmp_path / "sim"
        effects = tmp_path / "effects.csv"
        code = main(
            [
                "simulate", "--replicates", "5", "--true-effect", effect,
                "--output", str(outdir), "--emit-effects", str(effects),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "ratio interval" in err[0]
        assert not outdir.exists() and not effects.exists()

    def test_config_file_with_byte_order_mark(self, tmp_path):
        config_file = tmp_path / "sim.cfg"
        config_file.write_text("\ufeffreplicates=40\nseed=3\n", encoding="utf-8")
        outdir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_file), "--output", str(outdir)]) == 0
        summary = json.loads((outdir / "sim_summary.json").read_text(encoding="utf-8"))
        assert summary["config"]["replicates"] == 40
        assert summary["config"]["seed"] == 3

    def test_emit_effects_into_a_new_nested_directory(self, tmp_path):
        effects = tmp_path / "new" / "nested" / "sim_effects.csv"
        code = main(
            [
                "simulate", "--replicates", "30", "--seed", "4",
                "--output", str(tmp_path / "sim"), "--emit-effects", str(effects),
            ]
        )
        assert code == 0
        assert len(effects.read_text(encoding="utf-8").splitlines()) == 31


# Golden directory -> simulate arguments.  Each directory holds the
# sim_results.csv, sim_summary.json and --emit-effects CSV bytes that the
# arguments must reproduce on every platform and NumPy version.
SIMULATE_GOLDEN = {
    "sim_k10_censor": ["--k", "10", "--replicates", "2000", "--seed", "42", "--censor"],
    "sim_random_k4": [
        "--n-studies", "3", "--k", "4", "--rule", "report-random",
        "--replicates", "200", "--seed", "7",
    ],
}


class TestSimulateGolden:
    @staticmethod
    def assert_golden(tmp_path, name):
        outdir = tmp_path / name
        effects = outdir / "sim_effects.csv"
        argv = ["simulate", *SIMULATE_GOLDEN[name], "--output", str(outdir)]
        assert main(argv + ["--emit-effects", str(effects)]) == 0
        for file in ("sim_results.csv", "sim_summary.json", "sim_effects.csv"):
            assert (outdir / file).read_bytes() == (GOLDEN_DIR / name / file).read_bytes(), file

    @pytest.mark.parametrize("name", sorted(SIMULATE_GOLDEN))
    def test_matches_golden_bytes(self, tmp_path, name):
        self.assert_golden(tmp_path, name)

    @pytest.mark.parametrize("chunk_rows", [1, 7])
    def test_chunk_size_does_not_change_bytes(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(fileio, "_CHUNK_ROWS", chunk_rows)
        for name in SIMULATE_GOLDEN:
            self.assert_golden(tmp_path, name)


# Command -> its input arguments, and the file each --format value writes.
FORMAT_OUTPUTS = {
    "space": (["--input", COUNTS], {"csv": "spaces.csv", "json": "space_summary.json", "md": "spaces.md"}),
    "audit": (["--input", EFFECTS], {"json": "report.json", "csv": "plot_data.csv", "md": "report.md"}),
    "simulate": (["--replicates", "20"], {"csv": "sim_results.csv", "json": "sim_summary.json"}),
}


@pytest.mark.parametrize(
    "command,kind",
    [(command, kind) for command, (_, files) in FORMAT_OUTPUTS.items() for kind in files],
)
def test_format_filter(tmp_path, capsys, monkeypatch, command, kind):
    monkeypatch.setenv("METAUDIT_NO_COLOR", "1")
    arguments, files = FORMAT_OUTPUTS[command]
    outdir = tmp_path / "out"
    assert main([command, *arguments, "--output", str(outdir), "--format", kind]) == 0
    assert sorted(path.name for path in outdir.iterdir()) == [files[kind]]
    assert capsys.readouterr().out.endswith(f" -> {outdir / files[kind]}\n")


class TestSummaryLine:
    """The one stdout line of each command, without styling."""

    @pytest.fixture(autouse=True)
    def no_color(self, monkeypatch):
        monkeypatch.setenv("METAUDIT_NO_COLOR", "1")

    def test_space(self, tmp_path, capsys):
        _, o = run_space(tmp_path)
        assert capsys.readouterr().out == (
            f"space: 14 studies -> {o / 'spaces.csv'}, {o / 'space_summary.json'}, {o / 'spaces.md'}\n"
        )

    def test_audit(self, tmp_path, capsys):
        o = tmp_path / "audit"
        assert main(["audit", "--input", EFFECTS, "--counts", COUNTS, "--output", str(o)]) == 0
        assert capsys.readouterr().out == (
            f"audit: 12 p-values (2 excluded) -> "
            f"{o / 'report.json'}, {o / 'plot_data.csv'}, {o / 'report.md'}\n"
        )

    @pytest.mark.parametrize(
        "output,svg", [("figs", "figs/pvalue_plot.svg"), ("figs/p.SVG", "figs/p.SVG")]
    )
    def test_plot(self, tmp_path, capsys, output, svg):
        assert main(["plot", "--input", EFFECTS, "--output", str(tmp_path / output)]) == 0
        target = tmp_path / svg
        assert capsys.readouterr().out == f"plot: 12 points -> {target}\n"
        assert target.read_bytes() == (GOLDEN_DIR / "pvalue_plot.svg").read_bytes()

    def test_simulate(self, tmp_path, capsys):
        o = tmp_path / "sim"
        effects = tmp_path / "effects" / "sim_effects.csv"
        argv = ["simulate", *SIMULATE_GOLDEN["sim_random_k4"], "--output", str(o)]
        assert main([*argv, "--emit-effects", str(effects)]) == 0
        assert capsys.readouterr().out == (
            f"simulate: 34/600 published -> "
            f"{o / 'sim_results.csv'}, {o / 'sim_summary.json'}, {effects}\n"
        )


class TestNoCarryOver:
    """An option of one main() call does not reach the next."""

    def test_censor_then_plain_simulate(self, tmp_path):
        configs = []
        for extra in (["--censor"], []):
            outdir = tmp_path / str(len(configs))
            assert main(["simulate", "--replicates", "20", "--output", str(outdir), *extra]) == 0
            summary = json.loads((outdir / "sim_summary.json").read_text(encoding="utf-8"))
            configs.append(summary["config"]["censor_at_alpha"])
        assert configs == [True, False]

    def test_format_then_plain_audit(self, tmp_path):
        written = []
        for extra in (["--format", "json"], []):
            outdir = tmp_path / str(len(written))
            assert main(["audit", "--input", EFFECTS, "--output", str(outdir), *extra]) == 0
            written.append(sorted(path.name for path in outdir.iterdir()))
        assert written == [["report.json"], ["plot_data.csv", "report.json", "report.md"]]


class FakeTtyStream(io.StringIO):
    def isatty(self):
        return True


class TestStyling:
    def test_no_color_env_disables_ansi(self, monkeypatch, tmp_path):
        monkeypatch.setenv("METAUDIT_NO_COLOR", "1")
        stream = FakeTtyStream()
        monkeypatch.setattr(sys, "stderr", stream)
        main(["space", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path)])
        assert "\x1b[" not in stream.getvalue()

    def test_tty_gets_ansi_without_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("METAUDIT_NO_COLOR", raising=False)
        stream = FakeTtyStream()
        monkeypatch.setattr(sys, "stderr", stream)
        main(["space", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path)])
        assert "\x1b[31m" in stream.getvalue()


PARSER_ARGVS = [
    [], ["-h"], ["--help"], ["-h", "audit"], ["nope"], ["--foo", "audit"], ["-1", "audit"],
    ["-", "audit"], ["--", "audit"],
    *([command, "-h"] for command in ("space", "audit", "plot", "simulate")),
    ["space", "--output", "o"], ["space", "--input", "a", "--output", "b", "--format", "xml"],
    ["audit"], ["audit", "--input", "x"], ["audit", "--input", "x", "--output", "o", "--alpha", "2"],
    ["audit", "--input", "x", "--output", "o", "--bogus"],
    ["plot", "--input", "x"], ["simulate"], ["simulate", "--output", "o", "--rule", "bad"],
]


def parse_outcome(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_per_command_parser_reads_as_the_full_parser(argv, capsys, monkeypatch):
    # main keeps one full parser for every command of the process.  After it
    # has read every argv list twice, it must read argv as a freshly built
    # parser does: help, usage errors and exit codes.
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    fresh = parse_outcome(argv, capsys)
    for other in PARSER_ARGVS * 2:
        parse_outcome(other, capsys)
    assert parse_outcome(argv, capsys) == fresh
    assert fresh[0] in (0, 2)


def test_a_second_main_builds_no_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["space", "--input", COUNTS, "--output", str(tmp_path / "a")]) == 0
    assert len(built) == 5  # metaudit and its four commands
    built.clear()
    assert main(["simulate", "--replicates", "5", "--output", str(tmp_path / "b")]) == 0
    assert built == []


def test_config_fields_are_simulate_flags():
    # _build_sim_config reads each field's flag by the field's name.
    args = cli.build_parser().parse_args(["simulate", "--output", "o"])
    assert {name: getattr(args, name) for name in cli._CONFIG_FIELDS} == dict.fromkeys(
        cli._CONFIG_FIELDS
    )


def test_build_parser_without_a_command_builds_every_command():
    parser = cli.build_parser()
    for argv in (
        ["space", "--input", "c.csv", "--output", "o"],
        ["audit", "--input", "e.csv", "--output", "o", "--counts", "c.csv", "--alpha", "0.1"],
        ["plot", "--input", "e.csv", "--output", "p.svg"],
        ["simulate", "--output", "o", "--k", "3", "--censor", "--emit-effects", "e.csv"],
    ):
        args = parser.parse_args(argv)
        assert args.func is getattr(cli, f"cmd_{argv[0]}")


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "metaudit", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "space" in result.stdout
    assert "simulate" in result.stdout
