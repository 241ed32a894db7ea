"""The scripts under scripts/, and the shipped sweep config that replaced one, run end to end
against the package's current API."""

import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fedprune.cli import main
from fedprune.nn import LayerLayout
from fedprune.tables import computed_row

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, *argv, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


def test_synth_sweep_row_matches_computed_row(tmp_path):
    raw = json.loads((ROOT / "configs" / "synth_sweep.json").read_text())
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**raw, "codenames": ["1111223344"], "rounds": 1, "seeds": [1]}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as f:
        (row,) = list(csv.DictReader(f))
    # the sweep's model: 20 synthetic features, one hidden layer of 32, 10 classes
    amt, gamma = computed_row("WP", "1111223344", LayerLayout((20, 32, 10)))
    assert row == {
        "codename": "1111223344",
        "family": "WP",
        "gamma_min": str(gamma),
        "params_amortized": str(round(amt.params_mean)),
        "params_ratio": str(amt.params_ratio),
        "flops_amortized": str(round(amt.flops_mean)),
        "flops_ratio": str(amt.flops_ratio),
        "acc_mean": row["acc_mean"],
        "acc_std": "0.0",
    }
    assert 0.0 <= float(row["acc_mean"]) <= 1.0


@pytest.mark.parametrize("workload", ["small_np", "account_grid"])
def test_ab_rounds_reports_the_benchmark_metrics_of_both_checkouts(tmp_path, workload):
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    proc = run_script("ab_rounds.py", str(ROOT), str(ROOT), "--workload", workload, "--pairs", "1",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    pair, *summary = proc.stdout.splitlines()
    number = r"\d[\d.e+-]*"
    side = " ".join(f"{m['name']} {number}" for m in end_to_end)
    assert re.fullmatch(f"pair 0: parent {side}, change {side}", pair)
    # the summary names BENCHMARK.json's end-to-end metrics, in order, with their units
    assert [line.split(":")[0] for line in summary] == [m["name"] for m in end_to_end]
    for line, metric in zip(summary, end_to_end):
        median = rf"{number} {metric['unit']} \(Q1 {number}, Q3 {number}\)"
        assert re.fullmatch(rf"{metric['name']}: parent {median}, change {median}, "
                            r"change lower in [01]/1 pairs", line)


def test_ab_rounds_needs_at_least_one_pair(tmp_path):
    proc = run_script("ab_rounds.py", str(ROOT), str(ROOT), "--pairs", "0", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: --pairs must be at least 1\n")
    assert proc.stdout == ""
