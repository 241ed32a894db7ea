"""Byte pins for the data a run trains and tests on.

The digests were recorded from the straightforward builds (one class block
at a time, one set after the other). The synthetic sets and the federated
data must keep these bytes whatever the build does to be fast, and
whatever number of lanes it runs on.
"""

import gzip
import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from file_formats import write_idx

import fedprune.lanes
from fedprune.data import Dataset, IdxFormatError, synth_blobs
from fedprune.federation import FederationConfig, IdxSpec, SynthSpec, build_federated_data

ROOT = Path(__file__).resolve().parents[1]


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# (classes, samples per class, dim, spread, seed) -> sha256 of inputs, of labels
SYNTH = {
    "mnist_wp_train": ((10, 600, 784, 1.0, 0), (
        "b3e87f4650d1db33012f77ee9d9a1c87faae5970dcecd9f23b1b3261276b8e07",
        "8c68ab395f0f981d48f4c72a1c9d336742159c522f96cc3fdb2037b95c2ad1ba",
    )),
    "mnist_wp_test": ((10, 1000, 784, 1.0, 1), (
        "af7bb14b3951eb260a1798b4dcb58325ee5c97082ac92253fb3b14de51851003",
        "c5575395e636cadcdfe5764ffc8d56f56d234a4dc687096f8fc2d975dd6a5597",
    )),
    "quickstart_train": ((10, 100, 20, 0.3, 0), (
        "279539fda4f22b9527eea42ce77c62cd373a0e0b05bad5217a7a8a0e768b3d6e",
        "bbdaed34ddb84891085b7279daa6e45d3336e5e8925f5fc218042c671c4f0e10",
    )),
    "quickstart_test": ((10, 50, 20, 0.3, 1), (
        "f4a4ee8b5fcf422327d9b167d13086cd525df2da4baf4521a17efb7c0df21604",
        "ba00b684429f2175128ed64579f6d29618e7ac1b7c7f8ce8ce1189b38908a239",
    )),
    # spread 0 gives +0.0 off the class axis; a -0.0 would change these bytes
    "zero_spread": ((3, 7, 5, 0.0, 2), (
        "cb8bee873fdb853c513d37b2c3046c4945047f71051a7a1367217bb7d2049439",
        "8b30717502c5845bb4d1edb894e7f16f20edb7c610fc3c9eff58ca5d61052236",
    )),
}


@pytest.mark.parametrize("name", sorted(SYNTH))
def test_synth_blobs_bytes(name):
    spec, (inputs_sha, labels_sha) = SYNTH[name]
    data = synth_blobs(*spec)
    assert data.inputs.dtype == np.float64 and data.labels.dtype == np.int64
    assert (sha(data.inputs), sha(data.labels)) == (inputs_sha, labels_sha)


def federated_sha(data) -> str:
    return sha(data.train.inputs, data.train.labels, data.test.inputs, data.test.labels,
               *data.shards)


@pytest.mark.parametrize("lane_count", [1, 2])
def test_synthetic_federated_data_bytes_on_one_and_two_lanes(monkeypatch, lane_count):
    # both sets hold at least MIN_WORK values, so they are built on lane_count lanes
    monkeypatch.setattr(fedprune.lanes, "LANES", lane_count)
    widths = []
    on_lanes = fedprune.lanes.on_lanes
    monkeypatch.setattr(fedprune.lanes, "on_lanes",
                        lambda items, work, count, commit=None:
                        widths.append(count) or on_lanes(items, work, count, commit))
    config = FederationConfig(
        codename="1111223344", num_clients=20, participation_ratio=0.5, seed=5,
        dataset=SynthSpec(classes=10, samples_per_class=200, dim=784, spread=1.0,
                          test_samples_per_class=128, data_seed=3),
    )
    data = build_federated_data(config)
    assert widths == [lane_count]
    assert federated_sha(data) == "fb155c52f7b310c5589992768c38f35c41bf621e426513ce0fbf66d1965c5e3b"


def write_idx_sets(tmp_path, test_classes=4):
    """Train and test IDX files (16 pixels, 4 classes); two of the four are gzipped."""
    rng = np.random.default_rng(7)

    def digits(n, classes):
        return Dataset(rng.integers(0, 256, (n, 16)) / 255.0, rng.integers(0, classes, n), classes)

    write_idx(digits(80, 4), tmp_path / "ti", tmp_path / "tl")
    write_idx(digits(40, test_classes), tmp_path / "vi", tmp_path / "vl")
    for name in ("ti", "vl"):
        with open(tmp_path / name, "rb") as src, gzip.open(tmp_path / f"{name}.gz", "wb") as dst:
            shutil.copyfileobj(src, dst)
    return [str(tmp_path / name) for name in ("ti.gz", "tl", "vi", "vl.gz")]


def idx_config(paths, **subsets) -> FederationConfig:
    return FederationConfig(
        codename="1144", num_clients=8, participation_ratio=0.5, hidden_layers=(8,), seed=4,
        dataset=IdxSpec(*paths, **subsets),
    )


@pytest.mark.parametrize("lane_count", [1, 2])
def test_idx_federated_data_bytes_on_one_and_two_lanes(tmp_path, use_lanes, lane_count):
    use_lanes(lane_count)
    config = idx_config(write_idx_sets(tmp_path), train_subset=60, test_subset=30, subset_seed=2)
    data = build_federated_data(config)
    assert data.train.num_classes == data.test.num_classes == 4
    assert federated_sha(data) == "7ea88d74e338a84feab799179f82a0756c48677ef738bf1bf290c3d060963076"


@pytest.mark.parametrize("lane_count", [1, 2])
def test_idx_test_labels_beyond_the_train_classes_are_rejected(tmp_path, use_lanes, lane_count):
    use_lanes(lane_count)
    paths = write_idx_sets(tmp_path, test_classes=6)
    want = f"test labels {paths[3]} reach 6 classes, but train labels {paths[1]} have 4"
    with pytest.raises(IdxFormatError, match=f"^{re.escape(want)}$"):
        build_federated_data(idx_config(paths))


@pytest.mark.parametrize("lane_count", [1, 2])
def test_idx_train_set_error_is_reported_before_a_missing_test_file(tmp_path, use_lanes,
                                                                     lane_count):
    # one after the other, a bad train file fails before the test files are opened
    use_lanes(lane_count)
    paths = write_idx_sets(tmp_path)
    Path(paths[0]).write_bytes(b"not an IDX file")
    os.remove(paths[2])
    with pytest.raises(IdxFormatError, match="ti.gz"):
        build_federated_data(idx_config(paths))


def test_building_quickstart_data_starts_no_thread_pool():
    script = (
        "import sys, threading\n"
        "from fedprune.cli import load_run_config\n"
        "from fedprune.federation import build_federated_data\n"
        "build_federated_data(load_run_config('configs/quickstart.json').federation)\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
