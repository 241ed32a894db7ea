"""Tests of the benchmark itself: its definition, its output checks and its tracer.

    python3 -m pytest perfbench/tests -q

The smoke runs start real fedprune commands; the account_grid ones take one
full grid pass per command.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def copy_checkout(dest: Path, with_src: bool = True) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".work", "tests")
    shutil.copytree(BENCH, dest / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc, result = bench("--workload", workload, "--seed", str(DEFAULT_SEED),
                         "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_tampered_digest_fails_the_run(tmp_path):
    copy_checkout(tmp_path)
    reference = tmp_path / "perfbench" / "reference.json"
    stored = json.loads(reference.read_text())
    digest = stored["sha256"][str(run.BLAS_THREADS)]["small_np"]
    digest["csv"] = "0" * 64
    reference.write_text(json.dumps(stored))
    proc, result = bench("--workload", "small_np", "--seed", str(DEFAULT_SEED),
                         "--seconds", "1", cwd=tmp_path)
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "FAILED CHECK: csv bytes differ from the stored digest" in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    proc, result = bench("--workload", "small_np", "--seed", "1", "--seconds", "1",
                         cwd=tmp_path)
    assert proc.returncode != 0 and result is None and proc.stdout == ""


def test_tracer_restores_the_originals_and_reports_absent_names(tmp_path):
    import fedprune.cli

    config = {**WORKLOADS["small_np"].run_config(1), "rounds": 1, "out_dir": str(tmp_path)}
    (tmp_path / "config.json").write_text(json.dumps(config))
    targets = tracer.TARGETS + (("federation.gone", "fedprune.federation", "no_such_name"),)
    originals = {t: getattr(*tracer._resolve(t[1], t[2])) for t in tracer.TARGETS}
    with tracer.Tracer("federation.round", targets) as t:
        assert all(getattr(*tracer._resolve(m, p)) is not originals[(n, m, p)]
                   for n, m, p in tracer.TARGETS)
        assert fedprune.cli.main(["run", "--config", str(tmp_path / "config.json")]) == 0
    assert t.absent == ["fedprune.federation.no_such_name"]
    assert all(getattr(*tracer._resolve(m, p)) is originals[(n, m, p)]
               for n, m, p in tracer.TARGETS)
    names = {s[0] for s in t.spans}
    assert {"cli", "federation.round", "nn.grad", "nn.step", "federation.decompose"} <= names
    assert "federation.gone" not in names
