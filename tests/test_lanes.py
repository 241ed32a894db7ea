import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import fedprune.lanes
from fedprune.data import synth_blobs
from fedprune.lanes import on_lanes, width
from fedprune.nn import LayerLayout, ParamVector, evaluate

SRC = Path(__file__).resolve().parents[1] / "src"


BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_metrics_bytes_do_not_depend_on_the_blas_thread_environment(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "codename": "1111223344", "family": "WP", "num_clients": 10,
        "participation_ratio": 1.0, "rounds": 1, "local_epochs": 1, "local_batch": 10,
        "learning_rate": 0.1, "momentum": 0.5, "hidden_layers": [200],
        "dataset": "synthetic", "synth_classes": 10, "synth_samples_per_class": 20,
        "synth_dim": 784, "synth_spread": 0.3, "synth_test_samples_per_class": 30,
        "seeds": [0],
    }))
    outputs = {}
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        if threads is not None:
            env.update(dict.fromkeys(BLAS_ENV, threads))
        out = tmp_path / f"blas-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "fedprune.cli", "run", "--config", str(config), "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=dict(env, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = [(out / f"metrics_seed0.{ext}").read_bytes() for ext in ("csv", "jsonl")]
    assert outputs["1"] == outputs[None] and outputs["2"] == outputs[None]


def test_importing_lanes_sets_blas_to_one_thread_and_a_lane_per_cpu():
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        pytest.skip("numpy has no bundled OpenBLAS")
    script = (
        "import ctypes, os\n"
        "import fedprune.lanes\n"
        f"threads = ctypes.CDLL({str(libs[0])!r}).scipy_openblas_get_num_threads64_()\n"
        "assert threads == 1, threads\n"
        "assert fedprune.lanes.LANES == len(os.sched_getaffinity(0)), fedprune.lanes.LANES\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC), **dict.fromkeys(BLAS_ENV, "2")),
    )
    assert proc.returncode == 0, proc.stderr


def test_width_is_one_inside_a_lane_and_for_small_work(use_lanes, monkeypatch):
    use_lanes(3)
    assert width(0) == 3
    seen = []
    on_lanes(range(3), lambda item, lane: seen.append(width(10**9)), 3)
    assert seen == [1, 1, 1]
    monkeypatch.setattr(fedprune.lanes, "MIN_WORK", 100)
    assert width(99) == 1 and width(100) == 3


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_lane_j_takes_items_j_j_plus_l_in_order(use_lanes, lanes):
    use_lanes(lanes)
    calls = []
    items = list("abcdefg")
    on_lanes(items, lambda item, lane: calls.append((item, lane, threading.get_ident())), lanes)
    by_lane = {}
    for item, lane, thread in calls:
        by_lane.setdefault(lane, []).append((item, thread))
    assert sorted(by_lane) == list(range(lanes))
    for lane, done in by_lane.items():
        assert [item for item, _ in done] == items[lane::lanes]
        assert len({thread for _, thread in done}) == 1
    assert by_lane[0][0][1] == threading.get_ident()  # lane 0 runs in the caller
    assert all(by_lane[j][0][1] != threading.get_ident() for j in range(1, lanes))


def test_a_failure_waits_for_every_lane_and_the_first_in_lane_order_is_raised(use_lanes):
    use_lanes(3)
    finished = []

    def work(item, lane):
        if item == 1:
            raise ValueError("lane 1")
        if item == 2:
            time.sleep(0.05)
            finished.append(item)
            raise KeyError("lane 2")
        finished.append(item)

    with pytest.raises(ValueError, match="lane 1"):
        on_lanes(range(6), work, 3)
    assert sorted(finished) == [0, 2, 3]  # lanes 1 and 2 stopped at their failures
    finished.clear()
    with pytest.raises(ValueError, match="lane 1"):
        on_lanes([1, 2], work, 2)  # lane 0 fails first and lane 1 still finishes
    assert finished == [2]
    finished.clear()
    on_lanes([0, 3, 6], work, 3)
    assert sorted(finished) == [0, 3, 6]


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_commits_run_in_item_order_on_the_lane_that_did_the_work(use_lanes, lanes):
    use_lanes(lanes)
    events = []

    def work(item, lane):
        events.append(("start", item, lane, threading.get_ident()))
        time.sleep(0.003 * (7 - item))  # later items finish first
        events.append(("work", item, lane, threading.get_ident()))

    def commit(item, lane):
        events.append(("commit", item, lane, threading.get_ident()))

    on_lanes(range(8), work, lanes, commit=commit)
    commits = [event for event in events if event[0] == "commit"]
    assert [item for _, item, _, _ in commits] == list(range(8))
    for _, item, lane, thread in commits:
        assert lane == item % lanes
        done = events.index(("work", item, lane, thread))  # same lane, same thread
        assert done < events.index(("commit", item, lane, thread))
        if item + lanes < 8:  # a lane moves on only after its own commit
            nxt = ("start", item + lanes, lane, thread)
            assert events.index(("commit", item, lane, thread)) < events.index(nxt)


@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("phase", ["work", "commit"])
@pytest.mark.parametrize("k", [0, 4])
def test_a_failure_in_work_or_commit_releases_the_waiting_lanes(use_lanes, lanes, phase, k):
    use_lanes(lanes)
    committed = []
    outcome = []

    def work(item, lane):
        if phase == "work" and item == k:
            raise ValueError(f"item {item}")
        time.sleep(0.002 * (9 - item))

    def commit(item, lane):
        if phase == "commit" and item == k:
            raise ValueError(f"item {item}")
        committed.append(item)

    def call():
        try:
            on_lanes(range(9), work, lanes, commit=commit)
        except ValueError as exc:
            outcome.append(exc)

    watchdog = threading.Thread(target=call, daemon=True)
    watchdog.start()
    watchdog.join(timeout=10)
    assert not watchdog.is_alive(), "on_lanes did not return after a failure"
    assert [str(exc) for exc in outcome] == [f"item {k}"]
    assert committed == list(range(len(committed))) and len(committed) <= k
    if phase == "commit":  # item k commits only after items 0..k-1
        assert committed == list(range(k))


def test_a_helper_lane_keeps_the_callers_errstate(use_lanes):
    use_lanes(2)

    def overflow(item, lane):
        if lane == 1:
            np.float64(1e308) * np.float64(10.0)

    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            on_lanes(range(2), overflow, 2)
    with np.errstate(all="ignore"):
        on_lanes(range(2), overflow, 2)


def test_one_lane_never_makes_the_pool(monkeypatch):
    monkeypatch.setattr(fedprune.lanes, "_pool", None)
    on_lanes(range(5), lambda item, lane: None, 1)
    assert fedprune.lanes._pool is None


@pytest.mark.parametrize("phase", ["work", "commit"])
def test_one_lane_failure_stops_all_later_commits(phase):
    committed = []

    def work(item, lane):
        if phase == "work" and item == 3:
            raise ValueError("item 3")

    def commit(item, lane):
        if phase == "commit" and item == 3:
            raise ValueError("item 3")
        committed.append(item)

    with pytest.raises(ValueError, match="item 3"):
        on_lanes(range(7), work, 1, commit=commit)
    assert committed == [0, 1, 2]


def test_importing_the_cli_and_checking_the_table_start_no_thread_pool():
    script = (
        "import sys, threading\n"
        "import fedprune.cli\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1\n"
        "assert fedprune.cli.main(['account', '--check-table']) == 0\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr


def test_more_lanes_than_cores_under_fast_thread_switching_give_the_one_lane_bits(use_lanes):
    layout = LayerLayout((20, 32, 10))
    params = ParamVector(np.random.default_rng(3).normal(0, 0.5, layout.total), layout)
    data = synth_blobs(10, 80, 20, 0.5, 3)
    use_lanes(1)
    want = evaluate(params, data, 16)
    use_lanes(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            got = evaluate(params, data, 16)
            assert np.float64(got[0]).view(np.int64) == np.float64(want[0]).view(np.int64)
            assert got[1] == want[1]
            assert np.array_equal(got[2].view(np.int64), want[2].view(np.int64))
    finally:
        sys.setswitchinterval(interval)
