"""The scripts under scripts/, and the shipped sweep config that replaced one, run end to end
against the package's current API."""

import csv
import json
import re
import subprocess
import sys
from pathlib import Path

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


def test_ab_rounds_times_both_trees_in_alternating_processes(tmp_path):
    src = str(SCRIPTS.parent / "src")
    proc = run_script("ab_rounds.py", src, src, "--workload", "small_np", "--pairs", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:6]] == [
        "pair 0", "pair 1", "parent", "change", "parent VmHWM", "change VmHWM"
    ]
    assert all(" MB, ratio " in line for line in lines[:2])
    for line in lines[4:6]:
        assert re.fullmatch(r"\w+ VmHWM: median [\d.]+ MB \(Q1 [\d.]+, Q3 [\d.]+\)", line)
    assert re.fullmatch(r"change faster in [0-2]/2 pairs", lines[6])
    assert re.fullmatch(r"change lower in [0-2]/2 pairs", lines[7])
    assert len(lines) == 8
