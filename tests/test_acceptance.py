"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The real-MNIST trend check needs the four IDX files under
$MNIST_DIR (or ./data/mnist), plain or gzipped; it is skipped when the
files are absent because this sandbox cannot download them.
"""

import csv
import itertools
import json
import os
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from reference_impl import (
    brute_force_signatures,
    coverage_counts,
    reference_fedavg_rounds,
    reference_neuron_blocks,
)

from fedprune.cli import load_run_config, main
from fedprune.data import load_idx
from fedprune.federation import (
    CoverageError,
    FederationConfig,
    SynthSpec,
    aggregate,
    build_federated_data,
    codename_facts,
    init_state,
    model_layout,
    run,
    run_round,
)
from fedprune.metrics import TheoryConstants, theorem1_rhs, theorem2_rhs
from fedprune.nn import LayerLayout, ParamVector, init_params, loss_and_grad
from fedprune.pruning import (
    apply_mask,
    codename_coverage,
    pruning_noise,
    round_masks,
    segment_fill,
    segment_index_sets,
)
from fedprune.selfcheck import brute_force_aggregate
from fedprune.tables import TABLE_ROWS, check_tables

ROOT = Path(__file__).resolve().parents[1]


def kept_mask(layout, family, units, kept):
    """The mask that keeps the segments `kept` of the ranking `units`: the writer's 0/1 case."""
    per_segment = [int(s in kept) for s in (1, 2, 3, 4)]
    return segment_fill(layout, family, units, per_segment, np.ones(layout.total, np.uint8))


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


# ---------------------------------------------------------------------------
# 1. table accounting
# ---------------------------------------------------------------------------

GAMMA_MIN_FLOOR = {
    "1111111111": 10,
    "1111114444": 6,
    "1111223344": 8,
    "1111234567": 7,
    "1111556677": 6,
    "1114556677": 5,
    "1234556677": 5,
    "2233445677": 5,
    "1111444444": 4,
}


def test_criterion_1_table_accounting():
    with criterion("criterion 1 (table accounting, exact, <1s)"):
        start = time.perf_counter()
        problems = check_tables()
        for codename, expected in GAMMA_MIN_FLOOR.items():
            _, gamma = codename_coverage(codename)
            assert gamma == expected, f"{codename}: gamma {gamma} != {expected}"
        elapsed = time.perf_counter() - start
        assert problems == [], problems
        assert len(TABLE_ROWS) == 37  # 13 WP + 14 NP + 10 FS consistent cost cells
        assert elapsed < 1.0, f"accounting took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. gradient correctness
# ---------------------------------------------------------------------------


def finite_difference(params, inputs, labels, h=1e-6):
    grad = np.zeros(params.layout.total)
    for i in range(len(grad)):
        up, down = params.values.copy(), params.values.copy()
        up[i] += h
        down[i] -= h
        lu, _ = loss_and_grad(ParamVector(up, params.layout), inputs, labels)
        ld, _ = loss_and_grad(ParamVector(down, params.layout), inputs, labels)
        grad[i] = (lu - ld) / (2 * h)
    return grad


def test_criterion_2_gradient_correctness():
    with criterion("criterion 2 (gradients vs finite differences, 100 nets)"):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(100):
            depth = int(rng.integers(2, 4))
            sizes = tuple(int(rng.integers(2, 6)) for _ in range(depth))
            layout = LayerLayout(sizes)
            assert layout.total <= 100
            params = ParamVector(rng.normal(0, 1, layout.total), layout)
            n = int(rng.integers(1, 6))
            inputs, labels = rng.normal(size=(n, sizes[0])), rng.integers(0, sizes[-1], n)
            _, analytic = loss_and_grad(params, inputs, labels)
            numeric = finite_difference(params, inputs, labels)
            err = float(np.abs(analytic - numeric).max()) / max(1.0, float(np.abs(numeric).max()))
            worst = max(worst, err)
        assert worst < 1e-5, f"worst relative gradient error {worst:.3g}"


# ---------------------------------------------------------------------------
# 3. aggregation / region oracles
# ---------------------------------------------------------------------------


def test_criterion_3_region_and_aggregation_oracles():
    with criterion("criterion 3 (region/aggregation brute-force oracles, 1000 instances)"):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            n_params = int(rng.integers(2, 65))
            n_slots = int(rng.integers(1, 7))
            bits = rng.integers(0, 2, (n_slots, n_params), dtype=np.uint8)
            masks = list(bits)
            counts = coverage_counts(masks, [1] * n_slots)

            expected_signatures = brute_force_signatures(bits)
            assert len(counts) == n_params
            for i in range(n_params):
                assert counts[i] == len(expected_signatures[i])

            layout = LayerLayout((n_params - 1, 1))
            prev = rng.normal(size=n_params)
            # local models +0.0 off their masks, as `apply_mask` leaves them
            local_values = [
                apply_mask(ParamVector(rng.normal(size=n_params), layout), mask)
                for mask in masks
            ]
            local_sum = np.zeros(n_params)  # a round's sum: from +0.0, in ascending slot order
            for row in local_values:
                np.add(local_sum, row, out=local_sum)
            got = aggregate(ParamVector(prev, layout), local_sum, counts).values
            assert np.array_equal(got, brute_force_aggregate(prev, local_values, bits))


# ---------------------------------------------------------------------------
# 4. FedAvg reduction
# ---------------------------------------------------------------------------


def test_criterion_4_fedavg_reduction_bitwise():
    with criterion("criterion 4 (all-'1' codename == straight-line FedAvg, 5 rounds)"):
        config = FederationConfig(
            codename="1" * 10, num_clients=20, participation_ratio=0.5,
            rounds=5, local_epochs=5, local_batch=10, learning_rate=0.1, momentum=0.0,
            family="WP", seed=11, hidden_layers=(32,),
            dataset=SynthSpec(10, 30, 20, 0.3, 10),
        )
        data = build_federated_data(config)
        reference = reference_fedavg_rounds(config, data, 5)
        layout = model_layout(config, data)
        state, facts = init_state(config, layout), codename_facts(config, layout)
        for q in range(5):
            state, _ = run_round(state, config, data, facts)
            assert np.array_equal(state.params.values, reference[q]), f"round {q+1} diverged"


# ---------------------------------------------------------------------------
# 5. coverage necessity
# ---------------------------------------------------------------------------


def test_criterion_5_coverage_necessity():
    with criterion("criterion 5 (uncovered quartile frozen at theta_0, flagged, abortable)"):
        config = FederationConfig(
            codename="4444444444", num_clients=20, participation_ratio=0.5,
            rounds=6, local_epochs=3, local_batch=10, learning_rate=0.1, momentum=0.5,
            family="FS", seed=5, hidden_layers=(32,),
            dataset=SynthSpec(10, 50, 20, 0.3, 20),
        )
        data = build_federated_data(config)
        layout = model_layout(config, data)
        theta0 = init_params(layout, config.init_seed).values.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            history, final = run(config, data)
        blocks = reference_neuron_blocks(layout)
        uncovered = np.concatenate(blocks[3 * len(blocks) // 4 :])  # S4 neurons, fixed under FS
        assert all(r.gamma_min == 0 for r in history)
        assert np.array_equal(final.values[uncovered], theta0[uncovered])
        trained = np.setdiff1d(np.arange(layout.total), uncovered)
        assert not np.array_equal(final.values[trained], theta0[trained])

        strict = FederationConfig(
            codename="4444444444", num_clients=20, participation_ratio=0.5,
            rounds=1, local_epochs=3, local_batch=10, learning_rate=0.1, momentum=0.5,
            family="FS", seed=5, hidden_layers=(32,),
            dataset=SynthSpec(10, 50, 20, 0.3, 20),
            uncovered_region_action="error",
        )
        with pytest.raises(CoverageError):
            run(strict, data)


# ---------------------------------------------------------------------------
# 6. desk-scale convergence and the gamma_min trend
# ---------------------------------------------------------------------------


def test_criterion_6a_desk_scale_convergence():
    with criterion("criterion 6a (desk-scale blobs: acc > 0.90, grad norm drops 10x)"):
        config = FederationConfig(
            codename="1111223344", num_clients=20, participation_ratio=0.5,
            rounds=30, local_epochs=5, local_batch=10, learning_rate=0.1, momentum=0.5,
            family="WP", seed=1, hidden_layers=(32,),
            dataset=SynthSpec(10, 100, 20, 0.3, 50),
        )
        history, _ = run(config, build_federated_data(config))
        final_acc = history[-1].acc_global
        g_first, g_last = history[0].grad_norm_sq, history[-1].grad_norm_sq
        assert final_acc > 0.90, f"final accuracy {final_acc:.4f}"
        assert g_last * 10.0 <= g_first, f"grad norm only dropped {g_first / g_last:.1f}x"


def run_codenames(tmp_path, name, **changes):
    """Run the shipped codenames config `name`, with `changes`, through `fedprune run`.

    Returns each codename's summary.json and the rows of sweep.csv.
    """
    raw = json.loads((ROOT / "configs" / name).read_text()) | changes
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    config = load_run_config(path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    summaries = {c: json.loads((out / c / "summary.json").read_text()) for c in config.codenames}
    with open(out / "sweep.csv", newline="") as f:
        return summaries, list(csv.DictReader(f))


def test_criterion_6b_trend_stand_in_synthetic(tmp_path):
    # always-run stand-in matching the benchmark protocol shape (N=100,
    # c=0.1, label-skewed shards): the synthetic sweep's two equal-cost mixes;
    # the pinned MNIST variant follows below
    with criterion("criterion 6b (gamma_min 8 vs 4 ordering, synthetic stand-in)"):
        mixes = ["1111223344", "1111444444"]
        summaries, rows = run_codenames(tmp_path, "synth_sweep.json", codenames=mixes)
        high, low = (summaries[c]["final_accuracy_mean"] for c in mixes)
        assert high >= low - 0.005, f"gamma_min=8 mean {high:.4f} vs gamma_min=4 mean {low:.4f}"
        with open(ROOT / "runs" / "synth_sweep.csv", newline="") as f:
            committed = {row["codename"]: row for row in csv.DictReader(f)}
        assert rows == [committed[c] for c in mixes]


def _find_mnist():
    candidates = []
    if os.environ.get("MNIST_DIR"):
        candidates.append(Path(os.environ["MNIST_DIR"]))
    candidates.append(Path("data/mnist"))
    names = {
        "train_images": "train-images-idx3-ubyte",
        "train_labels": "train-labels-idx1-ubyte",
        "test_images": "t10k-images-idx3-ubyte",
        "test_labels": "t10k-labels-idx1-ubyte",
    }
    for root in candidates:
        found = {}
        for key, stem in names.items():
            for suffix in ("", ".gz"):
                path = root / (stem + suffix)
                if path.exists():
                    found[key] = str(path)
                    break
        if len(found) == len(names):
            return found
    return None


def test_criterion_6c_trend_on_mnist_subset(tmp_path):
    files = _find_mnist()
    if files is None:
        pytest.skip(
            "MNIST IDX files not available (no network in this sandbox); "
            "place them under $MNIST_DIR or ./data/mnist to run the pinned trend check"
        )
    with criterion("criterion 6c (gamma_min 8 vs 4 ordering, 2000-sample MNIST subset)"):
        train = load_idx(files["train_images"], files["train_labels"])
        assert train.inputs.shape == (60000, 784)
        summaries, _ = run_codenames(tmp_path, "mnist_trend.json", **files)
        high, low = summaries["1111223344"], summaries["1111444444"]
        assert high["final_accuracy_mean"] >= low["final_accuracy_mean"] - 0.005, (
            f"gamma_min=8 mean {high['final_accuracy_mean']:.4f} {high['final_accuracy_per_seed']}"
            f" vs gamma_min=4 mean {low['final_accuracy_mean']:.4f} {low['final_accuracy_per_seed']}"
        )


# ---------------------------------------------------------------------------
# 7. pruning-noise properties
# ---------------------------------------------------------------------------


def test_criterion_7_pruning_noise_properties():
    with criterion("criterion 7 (noise in [0,1); WP optimal; inclusion-monotone)"):
        rng = np.random.default_rng(707)
        layout = LayerLayout((5, 8, 3))
        # delta^2 in [0, 1) for every generated mask
        for _ in range(200):
            family = ("WP", "NP", "FS")[int(rng.integers(3))]
            digit = str(rng.integers(1, 8))
            params = ParamVector(rng.normal(0, 1, layout.total), layout)
            mask = round_masks(digit, family, layout, segment_index_sets(params, family))[digit]
            noise = pruning_noise(params, [mask])[0]
            assert 0.0 <= noise < 1.0

        # WP minimizes noise over all equal-sparsity masks (16 first-layer weights)
        wp_layout = LayerLayout((4, 4, 2))
        params = ParamVector(rng.normal(0, 1, wp_layout.total), wp_layout)
        for kept_segments, kept_count in (
            (frozenset({1}), 4),
            (frozenset({1, 2}), 8),
            (frozenset({1, 2, 3}), 12),
        ):
            wp_mask = kept_mask(wp_layout, "WP", segment_index_sets(params, "WP"), kept_segments)
            wp_noise = pruning_noise(params, [wp_mask])[0]
            for keep in itertools.combinations(range(16), kept_count):
                bits = np.ones(wp_layout.total, dtype=np.uint8)
                bits[:16] = 0  # W1 comes first in the flat vector
                bits[list(keep)] = 1
                assert wp_noise <= pruning_noise(params, [bits])[0] + 1e-15

        # monotone under segment inclusion, 100 random instances
        for _ in range(100):
            family = ("WP", "NP", "FS")[int(rng.integers(3))]
            params = ParamVector(rng.normal(0, 1, layout.total), layout)
            chosen = rng.choice(4, size=int(rng.integers(2, 5)), replace=False) + 1
            larger = frozenset(int(s) for s in chosen)
            smaller = frozenset(int(s) for s in sorted(chosen)[:-1]) or frozenset({int(chosen[0])})
            units = segment_index_sets(params, family)
            noise_larger, noise_smaller = pruning_noise(
                params, [kept_mask(layout, family, units, kept) for kept in (larger, smaller)]
            )
            assert noise_larger <= noise_smaller + 1e-15


# ---------------------------------------------------------------------------
# 8. theorem-bound calculators
# ---------------------------------------------------------------------------


def test_criterion_8_theorem_calculators():
    with criterion("criterion 8 (bound calculators: 5 fixed sets at 1e-12 + monotonicity)"):
        fixed = [
            # (constants, expected theorem1, expected theorem2)
            (
                TheoryConstants(L=1, G=1, sigma_sq=0, K=1, N=1, T=1, Q=4,
                                gamma_star=1, delta_sq=0, avg_theta_norm_sq=5, f0=1),
                2.75,
                (4 + 0) / 2.0 + 3 / 4.0,  # same constants through the non-IID form
            ),
            (
                TheoryConstants(L=1, G=1, sigma_sq=1, K=1, N=1, T=1, Q=1,
                                gamma_star=1, delta_sq=0, avg_theta_norm_sq=0, f0=1),
                10.0 + 3.0,
                13.0,
            ),
            (
                TheoryConstants(L=2, G=3, sigma_sq=0.5, K=4, N=8, T=5, Q=20,
                                gamma_star=2, delta_sq=0.25, avg_theta_norm_sq=8, f0=1.5),
                105.0,
                401.4,
            ),
            (
                TheoryConstants(L=3, G=2, sigma_sq=0, K=7, N=5, T=2, Q=8,
                                gamma_star=4, delta_sq=0, avg_theta_norm_sq=100, f0=2),
                2.0 + 67.5 / 8.0,
                2.0 + 270.0 / 8.0,
            ),
            (
                TheoryConstants(L=1, G=1, sigma_sq=1, K=3, N=2, T=4, Q=9,
                                gamma_star=2, delta_sq=0.5, avg_theta_norm_sq=2, f0=0.25),
                4.0,
                95.0 / 6.0,
            ),
        ]
        for consts, want1, want2 in fixed:
            assert abs(theorem1_rhs(consts) - want1) < 1e-12
            assert abs(theorem2_rhs(consts) - want2) < 1e-12

        rng = np.random.default_rng(808)
        for _ in range(50):
            c = TheoryConstants(
                L=rng.uniform(0.1, 5), G=rng.uniform(0.1, 5), sigma_sq=rng.uniform(0, 3),
                K=rng.uniform(1, 20), N=rng.uniform(1, 50), T=rng.uniform(1, 10),
                Q=rng.uniform(1, 1000), gamma_star=rng.uniform(0.5, 10),
                delta_sq=rng.uniform(0, 0.5), avg_theta_norm_sq=rng.uniform(0, 100),
                f0=rng.uniform(0.1, 5),
            )
            wider = TheoryConstants(**{**c.__dict__, "gamma_star": c.gamma_star * 2})
            noisier = TheoryConstants(**{**c.__dict__, "delta_sq": min(c.delta_sq * 2, 0.99)})
            assert theorem1_rhs(wider) <= theorem1_rhs(c) + 1e-12
            assert theorem1_rhs(noisier) >= theorem1_rhs(c) - 1e-12


# ---------------------------------------------------------------------------
# 9. determinism of the CLI pipeline
# ---------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    with criterion("criterion 9 (byte-identical CSV across identical runs)"):
        config = {
            "codename": "1111223344",
            "num_clients": 20,
            "participation_ratio": 0.5,
            "rounds": 3,
            "local_epochs": 3,
            "local_batch": 10,
            "learning_rate": 0.1,
            "momentum": 0.5,
            "family": "WP",
            "hidden_layers": [16],
            "dataset": "synthetic",
            "synth_classes": 10,
            "synth_samples_per_class": 30,
            "synth_dim": 20,
            "synth_spread": 0.3,
            "synth_test_samples_per_class": 10,
            "seeds": [7],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(path), "--out", str(out_b)]) == 0
        assert (out_a / "metrics_seed7.csv").read_bytes() == (out_b / "metrics_seed7.csv").read_bytes()
        assert (out_a / "metrics_seed7.jsonl").read_bytes() == (out_b / "metrics_seed7.jsonl").read_bytes()
