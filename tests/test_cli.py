from __future__ import annotations

import json
import subprocess
import sys

import pytest

from ptqlaw import (
    PtqConfig,
    default_space,
    load_params_file,
    min_cost_config,
    predict,
)
from ptqlaw.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBeff:
    def test_published_examples(self, capsys):
        code, out, _ = run_cli(capsys, "beff", "-w", "2", "-g", "32")
        assert code == 0
        assert out == "2.5625 (2.56)\n"
        code, out, _ = run_cli(capsys, "beff", "-w", "3", "-g", "128")
        assert code == 0
        assert out == "3.1484375 (3.15)\n"

    def test_symmetric_without_scale(self, capsys):
        code, out, _ = run_cli(capsys, "beff", "-w", "4", "-g", "64", "--symmetric", "--b-s", "0")
        assert code == 0
        assert out == "4.0 (4.00)\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "beff", "-w", "4", "-g", "128", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"b_eff": 4.15625, "display": "4.16"}

    def test_invalid_group_size(self, capsys):
        code, _, err = run_cli(capsys, "beff", "-w", "4", "-g", "0")
        assert code == 2
        assert "g" in err


class TestPredict:
    def test_matches_library(self, capsys, registry):
        code, out, _ = run_cli(
            capsys, "predict", "--preset", "opt-general",
            "-n", "6.7e9", "--cb", "128", "-g", "128", "-w", "4",
        )
        assert code == 0
        cfg = PtqConfig(n_params=6.7e9, w_base=4, c_b=128, g=128)
        assert float(out) == predict(registry.get("opt-general"), cfg)
        assert out.startswith("0.360")

    def test_constant_only_params_file_echoes_c(self, capsys, tmp_path):
        path = tmp_path / "const.params"
        path.write_text("task = custom\nmask = none\nc = 0.42\n")
        code, out, _ = run_cli(
            capsys, "predict", "--params-file", str(path),
            "-n", "1e9", "--cb", "128", "-g", "64", "-w", "4",
        )
        assert code == 0
        assert float(out) == 0.42

    def test_mem_scales_faster_than_util(self, capsys):
        # elasticity on model size: 0.2373 for memorization vs 0.0862 for
        # utilization, so the mem ratio across two sizes must be larger
        def accuracy(preset, n):
            code, out, _ = run_cli(
                capsys, "predict", "--preset", preset,
                "-n", n, "--cb", "128", "-g", "128", "-w", "4",
            )
            assert code == 0
            return float(out)

        mem_ratio = accuracy("opt-mem", "13e9") / accuracy("opt-mem", "1.3e9")
        util_ratio = accuracy("opt-util", "13e9") / accuracy("opt-util", "1.3e9")
        assert mem_ratio > util_ratio > 1.0

    def test_preset_and_params_file_mutually_exclusive(self, capsys, tmp_path):
        path = tmp_path / "p.params"
        path.write_text("c = 0.1\n")
        code, _, _ = run_cli(
            capsys, "predict", "--preset", "opt-general", "--params-file", str(path),
            "-n", "1e9", "--cb", "128", "-g", "64", "-w", "4",
        )
        assert code == 2

    def test_missing_source_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "predict", "-n", "1e9", "--cb", "128", "-g", "64", "-w", "4"
        )
        assert code == 2
        assert "--preset" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(
            capsys, "predict", "--preset", "nope",
            "-n", "1e9", "--cb", "128", "-g", "64", "-w", "4",
        )
        assert code == 2
        assert "available" in err

    def test_out_of_range_warning_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "big.params"
        path.write_text("mask = none\nc = 1.5\n")
        code, out, err = run_cli(
            capsys, "predict", "--params-file", str(path),
            "-n", "1e9", "--cb", "128", "-g", "64", "-w", "4", "--json",
        )
        assert code == 0
        assert "exceeds 1" in err
        assert json.loads(out)["exceeds_one"] is True


class TestFit:
    def test_report_is_replayable(self, capsys, tmp_path, fixture_csv_path):
        report = tmp_path / "fit.params"
        code, out, err = run_cli(
            capsys, "fit", str(fixture_csv_path), "-o", str(report)
        )
        assert code == 0
        assert out == ""  # data went to the file
        assert "converged=True" in err
        params = load_params_file(report)
        assert 0.08 < params.alpha < 0.12
        code, out, _ = run_cli(
            capsys, "predict", "--params-file", str(report),
            "-n", "6.7e9", "--cb", "128", "-g", "128", "-w", "4",
        )
        assert code == 0
        assert 0.2 < float(out) < 0.6

    def test_json_payload(self, capsys, fixture_csv_path):
        code, out, _ = run_cli(capsys, "fit", str(fixture_csv_path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mask"] == "n,c_b,g,b_eff"
        assert payload["converged"] == "true"
        assert payload["n_observations"] == 384

    def test_scope_and_mask_flags(self, capsys, fixture_csv_path):
        code, out, _ = run_cli(
            capsys, "fit", str(fixture_csv_path),
            "--scope", "memorization", "--mask", "n,b_eff", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["task"] == "memorization"
        assert payload["mask"] == "n,b_eff"
        assert "gamma" not in payload

    def test_where_slice(self, capsys, fixture_csv_path):
        code, out, _ = run_cli(
            capsys, "fit", str(fixture_csv_path),
            "--where", "w_base=2", "--mask", "n,c_b,g", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_observations"] == 96
        assert payload["gamma"] < 0

    def test_fix_pins_an_exponent(self, capsys, fixture_csv_path):
        code, out, _ = run_cli(
            capsys, "fit", str(fixture_csv_path), "--fix", "g=-0.0035", "--json"
        )
        assert code == 0
        assert json.loads(out)["gamma"] == -0.0035

    def test_options_file_with_flag_override(self, capsys, tmp_path, fixture_csv_path):
        options = tmp_path / "fit.options"
        options.write_text("max_iter = 1\ntol_step = 1e-14\ntol_cost = 1e-16\n")
        code, out, _ = run_cli(
            capsys, "fit", str(fixture_csv_path), "--options-file", str(options), "--json"
        )
        assert code == 0
        assert json.loads(out)["iterations"] == 1
        code, out, _ = run_cli(
            capsys, "fit", str(fixture_csv_path),
            "--options-file", str(options), "--max-iter", "50", "--json",
        )
        assert code == 0
        assert json.loads(out)["iterations"] > 1

    def test_where_value_not_a_number_exits_2(self, capsys, fixture_csv_path):
        code, out, err = run_cli(capsys, "fit", str(fixture_csv_path), "--where", "w_base=abc")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "w_base=abc" in err
        assert len(err.splitlines()) == 1

    def test_options_file_bad_value_exits_2(self, capsys, tmp_path, fixture_csv_path):
        options = tmp_path / "fit.options"
        options.write_text("max_iter = abc\n")
        code, out, err = run_cli(
            capsys, "fit", str(fixture_csv_path), "--options-file", str(options)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "max_iter" in err
        assert len(err.splitlines()) == 1

    def test_non_utf8_dataset_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"\xff\xfe" + b"model_family,n_params\n")
        code, out, err = run_cli(capsys, "fit", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "latin.csv" in err
        assert len(err.splitlines()) == 1

    def test_degenerate_mask_exits_1(self, capsys, fixture_csv_path):
        code, _, err = run_cli(
            capsys, "fit", str(fixture_csv_path), "--where", "c_b=128",
            "--mask", "n,c_b,b_eff",
        )
        assert code == 1
        assert "c_b" in err

    def test_missing_file_exits(self, capsys):
        code, _, err = run_cli(capsys, "fit", "/nonexistent.csv")
        assert code == 1
        assert "error" in err


class TestAblate:
    @pytest.mark.parametrize("line", ["5", '{"model_family": null}'])
    def test_bad_jsonl_line_exits_2(self, capsys, tmp_path, line):
        valid = {
            "model_family": "opt", "n_params": 125000000, "w_base": 2, "c_b": 8, "g": 32,
            "benchmark": "hellaswag", "task_category": "utilization", "accuracy": 0.3,
        }
        bad = line if line == "5" else json.dumps({**valid, "model_family": None})
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(valid) + "\n" + bad + "\n")
        code, out, err = run_cli(capsys, "ablate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: row 2")
        assert len(err.splitlines()) == 1

    def test_text_table(self, capsys, fixture_csv_path):
        code, out, err = run_cli(capsys, "ablate", str(fixture_csv_path))
        assert code == 0
        for mask in ("n,c_b,g,b_eff", "n,b_eff", "n,g,b_eff", "n,c_b,b_eff"):
            assert mask in out
        assert "fingerprint" in err

    def test_json_lines(self, capsys, fixture_csv_path):
        code, out, _ = run_cli(capsys, "ablate", str(fixture_csv_path), "--json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 4
        assert all("adjusted_r_squared" in row for row in rows)
        values = [row["adjusted_r_squared"] for row in rows]
        assert values == sorted(values, reverse=True)

    def test_custom_masks(self, capsys, fixture_csv_path):
        code, out, _ = run_cli(
            capsys, "ablate", str(fixture_csv_path), "--masks", "n,b_eff;n", "--json"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert {row["mask"] for row in rows} == {"n,b_eff", "n"}


class TestAdvise:
    def test_full_table(self, capsys):
        code, out, _ = run_cli(capsys, "advise", "--preset", "opt-general")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "n_params,w_base,c_b,g,b_eff,predicted_accuracy,storage_bits,"
            "frontier_flag,extrapolation_flag"
        )
        assert len(lines) == 1 + 384
        assert any(line.split(",")[7] == "1" for line in lines[1:])

    def test_frontier_only(self, capsys):
        code, out, _ = run_cli(capsys, "advise", "--preset", "opt-general", "--frontier")
        assert code == 0
        lines = out.splitlines()[1:]
        assert 0 < len(lines) < 384
        storages = [float(line.split(",")[6]) for line in lines]
        assert storages == sorted(storages)
        assert all(line.split(",")[7] == "1" for line in lines)

    def test_target_matches_library(self, capsys, registry):
        code, out, _ = run_cli(
            capsys, "advise", "--preset", "opt-general", "--target", "0.35", "--json"
        )
        assert code == 0
        row = json.loads(out)
        best = min_cost_config(registry.get("opt-general"), default_space(), 0.35)
        assert row["storage_bits"] == best.storage_bits
        assert row["predicted_accuracy"] == best.predicted_accuracy

    def test_infeasible_target(self, capsys):
        code, out, err = run_cli(
            capsys, "advise", "--preset", "opt-general", "--target", "0.99"
        )
        assert code == 0  # infeasibility is a value, not an error
        assert len(out.splitlines()) == 1  # header only
        assert "no configuration" in err

    def test_empty_space_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "advise", "--preset", "opt-general", "--n-params", ""
        )
        assert code == 2
        assert "empty" in err

    @pytest.mark.filterwarnings("ignore::ptqlaw.ExtrapolationWarning")
    def test_extrapolation_needs_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "advise", "--preset", "opt-general", "--n-params", "70e9"
        )
        assert code == 2
        assert "extrapolation" in err
        code, out, _ = run_cli(
            capsys, "advise", "--preset", "opt-general",
            "--n-params", "70e9", "--allow-extrapolation",
        )
        assert code == 0
        assert all(line.split(",")[8] == "1" for line in out.splitlines()[1:])


class TestPlotdata:
    def test_gs_curve_is_monotone_decreasing(self, capsys):
        code, out, _ = run_cli(
            capsys, "plotdata", "--figure", "gs-curve", "--preset", "opt-2bit"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n_params,w_base,c_b,g,accuracy"
        series: dict[str, list[tuple[int, float]]] = {}
        for line in lines[1:]:
            n, _, _, g, accuracy = line.split(",")
            series.setdefault(n, []).append((int(g), float(accuracy)))
        assert len(series) == 6
        for points in series.values():
            points.sort()
            accuracies = [a for _, a in points]
            assert accuracies == sorted(accuracies, reverse=True)

    def test_beff_curve_is_monotone_increasing(self, capsys):
        code, out, _ = run_cli(
            capsys, "plotdata", "--figure", "beff-curve", "--preset", "opt-general"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n_params,w_base,g,c_b,b_eff,accuracy"
        series: dict[str, list[tuple[float, float]]] = {}
        for line in lines[1:]:
            n, _, _, _, beff, accuracy = line.split(",")
            series.setdefault(n, []).append((float(beff), float(accuracy)))
        for points in series.values():
            assert points == sorted(points)  # emitted sorted by b_eff
            accuracies = [a for _, a in points]
            assert accuracies == sorted(accuracies)

    def test_cb_curve_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "plotdata", "--figure", "cb-curve", "--preset", "opt-general",
            "--n-params", "6.7e9",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n_params,w_base,g,c_b,accuracy"
        assert len(lines) == 1 + 4 * 4  # four widths x four calibration sizes

    def test_surface_2bit_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "plotdata", "--figure", "surface-2bit", "--preset", "opt-2bit"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n_params,g,c_b,accuracy"
        assert len(lines) == 1 + 6 * 4 * 4

    def test_sensitivity_series(self, capsys):
        code, out, err = run_cli(capsys, "plotdata", "--figure", "sensitivity")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "factor,value,task,accuracy,relative_gain_pct"
        rows = [line.split(",") for line in lines[1:]]
        assert {row[0] for row in rows} == {"n", "c_b", "b_eff"}
        assert {row[2] for row in rows} == {"memorization", "utilization"}
        assert "more_sensitive" in err or "memorization" in err

    def test_empty_grid_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "plotdata", "--figure", "gs-curve", "--preset", "opt-2bit", "--g", ""
        )
        assert code == 2


class TestSynth:
    def test_deterministic_output(self, capsys):
        argv = ("synth", "--preset", "opt-general", "--noise-sigma", "0.05", "--seed", "11")
        code, first, err = run_cli(capsys, *argv)
        assert code == 0
        assert "generated 2304 records" in err
        code, second, _ = run_cli(capsys, *argv)
        assert first == second
        code, third, _ = run_cli(
            capsys, "synth", "--preset", "opt-general", "--noise-sigma", "0.05", "--seed", "12"
        )
        assert third != first

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_exits_2(self, capsys, sigma):
        code, out, err = run_cli(
            capsys, "synth", "--preset", "opt-general", "--noise-sigma", sigma
        )
        assert (code, out) == (2, "")
        assert "noise_sigma" in err

    def test_jsonl_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "synth", "--preset", "opt-general", "--json",
            "--n-params", "1e9", "--w-base", "4", "--cb", "128", "--g", "64",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 6
        assert {row["benchmark"] for row in rows} == {
            "lama-conceptnet", "lama-squad", "hellaswag", "winogrande", "arc-e", "arc-c"
        }


class TestOutputHandling:
    def test_file_output_matches_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "beff", "-w", "2", "-g", "32")
        path = tmp_path / "nested"
        path.mkdir()
        target = path / "out.txt"
        code2, out2, _ = run_cli(capsys, "beff", "-w", "2", "-g", "32", "-o", str(target))
        assert code == code2 == 0
        assert out2 == ""
        assert target.read_text() == out

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "beff", "-w", "2", "-g", "32", "--frobnicate")
        assert code == 2

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "ptqlaw", "beff", "-w", "2", "-g", "32"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout == "2.5625 (2.56)\n"
