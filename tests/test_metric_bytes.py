"""Byte pins for the metrics files of small end-to-end runs.

Each case runs `fedprune run` on a quickstart-sized config (5 rounds,
seeds 0 and 3) and compares the sha256 of every CSV and JSONL it writes
with the digest recorded when the case was added. One more case runs two
codenames as one `codenames` config and pins each codename's metrics
files and `sweep.csv`. A refactor of the round
engine must leave these bytes as they are; a digest that changes is a
change of results, not of code.
"""

import hashlib
import json

import pytest

import fedprune.lanes
from fedprune.cli import main

# OpenBLAS kernels round differently in the last bits: the digests hold on this one
BLAS_NOTE = f"digests recorded on OpenBLAS kernel SkylakeX, run on {fedprune.lanes.BLAS_KERNEL}"

BASE = {
    "codename": "1111223344",
    "family": "WP",
    "num_clients": 20,
    "participation_ratio": 0.5,
    "rounds": 5,
    "local_epochs": 5,
    "local_batch": 10,
    "learning_rate": 0.1,
    "momentum": 0.5,
    "partition": "iid",
    "hidden_layers": [32],
    "dataset": "synthetic",
    "synth_classes": 10,
    "synth_samples_per_class": 100,
    "synth_dim": 20,
    "synth_spread": 0.3,
    "synth_test_samples_per_class": 50,
    "seeds": [0, 3],
}

CASES = {
    "wp": {},
    "wp_freeze2": {"freeze_after_round": 2},
    "np": {"family": "NP"},
    "np_freeze2": {"family": "NP", "freeze_after_round": 2},
    "fs": {"family": "FS"},
    "fs_freeze2": {"family": "FS", "freeze_after_round": 2},
    "np_label_skew": {"family": "NP", "codename": "1234556677", "partition": "label-skew"},
    # no slot keeps S4: a quarter of W1 is uncovered every round and keeps its value
    "wp_uncovered_s4": {"codename": "5555566666"},
    # 1000 examples over 30 clients: shards of 33 and 34 rows train in separate chunks
    "wp_two_shard_lengths": {"num_clients": 30, "participation_ratio": 0.34},
}

# cases whose rounds warn that some parameters are covered by no slot
UNCOVERED = {"wp_uncovered_s4"}

# case -> file -> sha256
DIGESTS = {
    "fs": {
        "metrics_seed0.csv": "66a0e4d71a758911fd04647caca545f3ba398d5baaec4be27ab182cdd9b6cb23",
        "metrics_seed0.jsonl": "3464caa1d48cf13aaf111a7e1a82773d04245ab246b2c5cef3917217867b896d",
        "metrics_seed3.csv": "41a4850d6c3835532e54d1b8ebf655af21b99b833e01a5019c94286c394a5e6d",
        "metrics_seed3.jsonl": "4c04b1140576a4bb85c4de706a224f976085f10d32f0707d29df0ce7cfaa05f6",
    },
    "fs_freeze2": {
        "metrics_seed0.csv": "66a0e4d71a758911fd04647caca545f3ba398d5baaec4be27ab182cdd9b6cb23",
        "metrics_seed0.jsonl": "3464caa1d48cf13aaf111a7e1a82773d04245ab246b2c5cef3917217867b896d",
        "metrics_seed3.csv": "41a4850d6c3835532e54d1b8ebf655af21b99b833e01a5019c94286c394a5e6d",
        "metrics_seed3.jsonl": "4c04b1140576a4bb85c4de706a224f976085f10d32f0707d29df0ce7cfaa05f6",
    },
    "np": {
        "metrics_seed0.csv": "ebe03b28a6307ff434670d72957faae9f2bb8679b994770e9b3ad42235d4f8b2",
        "metrics_seed0.jsonl": "d2909815ffc3a9dde309aaef1bebcd3f56a2cab3314eb889f8ed24044b244034",
        "metrics_seed3.csv": "09f0cf665a0eb6c6d1c7494fd7979a285cafd3b42960b2bd9336a3df8efe8e3d",
        "metrics_seed3.jsonl": "30049532aa06113dae296679f7d14f67a44f64ad40fc02ab41e3173d26ee58d4",
    },
    "np_freeze2": {
        "metrics_seed0.csv": "1359be31e5d4efd9a110b80ed6c1438444a3ad055691ad805182a0c64ebf8793",
        "metrics_seed0.jsonl": "950548464513ebebe60e9242ecd00604d067686d088404483096684953350571",
        "metrics_seed3.csv": "3806a09d149db2c9a65e9167bc2195bf1b8e6829b4a9ea3d97e4f9cf2dae4a3b",
        "metrics_seed3.jsonl": "2b09d63f241ae0339c5c03a4840b18c05becc7a042fc2687df263f0597ea34f3",
    },
    "np_label_skew": {
        "metrics_seed0.csv": "694c21bd4b5ce07380aea6cf3d24b438eefe6326248176424696cbad151ba083",
        "metrics_seed0.jsonl": "424f4aff58f9af89b1cd925b643d71dfddc825eedd10c308272dbf6ed0d23c7e",
        "metrics_seed3.csv": "49d0f4ccf02f181ed160f7e213d8fff4cf1bab1d48c4687fc6cea91d03f72372",
        "metrics_seed3.jsonl": "397455d5289b56bb97b3db07c31e1ab4b4b104c526cb00d6212dc0f30e7df1b2",
    },
    "wp_two_shard_lengths": {
        "metrics_seed0.csv": "e0667436b11071aad9dd391b9b20d7028495223516d01f2bea85882d4f28d2a2",
        "metrics_seed0.jsonl": "35d576cf74f54e8d2dc8eb8ae29ef9aad653c8fb49b1986a3b8172c0b478d024",
        "metrics_seed3.csv": "5d86de876e8cd84e3819c47d73e3a0fb18af16ad15022a4bb8fbea204299f5b9",
        "metrics_seed3.jsonl": "e36e75f654a4fff27170376f4a7aab47a7d00d444392f787689584a04cbcf004",
    },
    "wp_uncovered_s4": {
        "metrics_seed0.csv": "1331085277efa714b1f6299c9a9acdfd7a0da26bc373be92237e1d1e54cf28dd",
        "metrics_seed0.jsonl": "37f49a8d4de76b41c438488870a7cc4fefff89f707e42bdb3a3c82d1e532d6ac",
        "metrics_seed3.csv": "97f95126fdcc12106be2a4a9bf4ee88a3e785b30aa88e8f92faf17554ef561e6",
        "metrics_seed3.jsonl": "613efac06489e486e71b4bb2a6c18fe5da43953ae95dbf61ee64124cb54c5481",
    },
    "wp": {
        "metrics_seed0.csv": "d17bdecacc5d9a71da91e7533d4a02c0f07ac3f00a11d4f3d5fcde1275d23f86",
        "metrics_seed0.jsonl": "04e1edb5c07497d7890ebf553854bece89102afc2b494ceeb2af059ca6af6033",
        "metrics_seed3.csv": "6519cce5fa81b8358ce2a9bc365f24f559efe17aec9dddfb1b5a91a40bf705cb",
        "metrics_seed3.jsonl": "c745bd44d443340aa4df4484d0debf9a382759324c7723b3cca45aa95854cfd8",
    },
    "wp_freeze2": {
        "metrics_seed0.csv": "3bc24ba52d6633578865590523e7ef32aff7037eeef4921ffb4902031975779a",
        "metrics_seed0.jsonl": "27b715a5ee94d9d083afc02a049b562e89f6eab7a1f07e20edd22e57aa34648c",
        "metrics_seed3.csv": "776fb85a557f38901380318e07e38268bd1ebb9d1ad1a17ee19e7335ac385d4b",
        "metrics_seed3.jsonl": "42ba1dde8e12432b3c702050d00d6f0b56c3ec619b53cc19296ff4e489b6a740",
    },
}


# the files of `out/<codename>/` (sweep cases) or of `out/` (single cases)
METRICS = [f"metrics_seed{seed}.{ext}" for seed in BASE["seeds"] for ext in ("csv", "jsonl")]

# a `codenames` config of BASE: one covered mix and one that leaves S4 unkept
SWEEP_CODENAMES = ["1111223344", "5555566666"]

# file under out/ -> sha256
SWEEP_DIGESTS = {
    "1111223344/metrics_seed0.csv": "d17bdecacc5d9a71da91e7533d4a02c0f07ac3f00a11d4f3d5fcde1275d23f86",
    "1111223344/metrics_seed0.jsonl": "04e1edb5c07497d7890ebf553854bece89102afc2b494ceeb2af059ca6af6033",
    "1111223344/metrics_seed3.csv": "6519cce5fa81b8358ce2a9bc365f24f559efe17aec9dddfb1b5a91a40bf705cb",
    "1111223344/metrics_seed3.jsonl": "c745bd44d443340aa4df4484d0debf9a382759324c7723b3cca45aa95854cfd8",
    "5555566666/metrics_seed0.csv": "1331085277efa714b1f6299c9a9acdfd7a0da26bc373be92237e1d1e54cf28dd",
    "5555566666/metrics_seed0.jsonl": "37f49a8d4de76b41c438488870a7cc4fefff89f707e42bdb3a3c82d1e532d6ac",
    "5555566666/metrics_seed3.csv": "97f95126fdcc12106be2a4a9bf4ee88a3e785b30aa88e8f92faf17554ef561e6",
    "5555566666/metrics_seed3.jsonl": "613efac06489e486e71b4bb2a6c18fe5da43953ae95dbf61ee64124cb54c5481",
    "sweep.csv": "25e5933a2025c7e6c9beb7f4ad10b7407e58c7728a074c6496014998bf0e99b3",
}


def run_case(tmp_path, config: dict, names: list[str]) -> dict[str, str]:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("case", sorted(CASES))
def test_metrics_bytes_are_pinned(tmp_path, capsys, recwarn, case):
    got = run_case(tmp_path, {**BASE, **CASES[case]}, METRICS)
    capsys.readouterr()
    assert got == DIGESTS[case], BLAS_NOTE
    warned = any("gamma_min = 0" in str(w.message) for w in recwarn)
    assert warned == (case in UNCOVERED)


def test_codenames_run_bytes_are_pinned(tmp_path, capsys, recwarn):
    config = {k: v for k, v in BASE.items() if k != "codename"} | {"codenames": SWEEP_CODENAMES}
    names = [f"{c}/{name}" for c in SWEEP_CODENAMES for name in METRICS] + ["sweep.csv"]
    got = run_case(tmp_path, config, names)
    capsys.readouterr()
    assert got == SWEEP_DIGESTS, BLAS_NOTE
