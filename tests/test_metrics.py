import dataclasses
import io
import json
import math

import numpy as np
import pytest
from file_formats import read_metrics_csv
from hypothesis import given, settings, strategies as st
from reference_impl import reference_computed_row

from fedprune.data import synth_blobs
from fedprune.metrics import (
    CSV_HEADER,
    ModelAccount,
    RoundMetrics,
    TheoryConstants,
    account,
    amortized,
    emit_csv,
    emit_jsonl,
    full_account,
    theorem1_rhs,
    theorem2_rhs,
    weighted_accuracy,
)
from fedprune.nn import LayerLayout, ParamVector, evaluate, forward, init_params
from fedprune.pruning import round_masks, segment_index_sets
from fedprune.spec import DIGIT_SEGMENTS, parse_codename, theory_learning_rate
from fedprune.tables import TABLE_ROWS, computed_row

MNIST_LAYOUT = LayerLayout((784, 200, 10))


def constants(**overrides):
    base = dict(
        L=1.0, G=1.0, sigma_sq=1.0, K=1.0, N=1.0, T=1.0, Q=1.0,
        gamma_star=1.0, delta_sq=0.0, avg_theta_norm_sq=0.0, f0=1.0,
    )
    base.update(overrides)
    return TheoryConstants(**base)


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------


def test_full_mlp_account():
    acct = full_account(MNIST_LAYOUT)
    assert (acct.params_total, acct.flops_total) == (159010, 158800)


@pytest.mark.parametrize(
    "family,kept,expected",
    [
        ("WP", {1, 2, 3}, (119810, 119600)),
        ("WP", {1, 2}, (80610, 80400)),
        ("NP", {1, 2, 3}, (119260, 119100)),
        ("NP", {1, 2}, (79510, 79400)),
        ("FS", {1, 2, 3}, (119260, 119100)),
    ],
)
def test_policy_account_values(family, kept, expected):
    acct = account(MNIST_LAYOUT, family, frozenset(kept))
    assert (acct.params_total, acct.flops_total) == expected


@pytest.mark.parametrize("family", ["WP", "NP", "FS"])
@pytest.mark.parametrize("digit", list("1234567"))
def test_mask_and_policy_accounts_agree(family, digit):
    # dual route: analytic counting vs popcounts of a real generated mask
    params = init_params(MNIST_LAYOUT, 3)
    bits = round_masks(digit, family, MNIST_LAYOUT, segment_index_sets(params, family))[digit]
    popcounts = ModelAccount(
        int(bits.sum()), sum(int(bits[sl.weights].sum()) for sl in MNIST_LAYOUT.offsets)
    )
    assert account(MNIST_LAYOUT, family, DIGIT_SEGMENTS[digit]) == popcounts


def test_amortized_matches_reference_grid():
    full = full_account(MNIST_LAYOUT)

    def amortize(codename, family):
        return amortized([account(MNIST_LAYOUT, family, kept) for kept in parse_codename(codename)], full)

    all_full = amortize("1111111111", "WP")
    assert (all_full.params_mean, all_full.params_ratio) == (159010, 1.00)

    mixed = amortize("1111223344", "WP")
    assert (round(mixed.params_mean), round(mixed.flops_mean)) == (135490, 135280)
    assert (mixed.params_ratio, mixed.flops_ratio) == (0.85, 0.85)

    halves = amortize("1111556677", "WP")
    assert (round(halves.params_mean), halves.params_ratio) == (111970, 0.70)

    np_mix = amortize("1111114444", "NP")
    assert (round(np_mix.params_mean), round(np_mix.flops_mean)) == (143110, 142920)


def test_amortized_requires_slots():
    with pytest.raises(ValueError):
        amortized([], full_account(MNIST_LAYOUT))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**45), min_size=1, max_size=100),
       st.lists(st.integers(0, 2**45), min_size=1, max_size=100))
def test_amortized_means_are_the_bits_of_np_mean(params, flops):
    accounts = [ModelAccount(p, f) for p, f in zip(params, flops)]
    amt = amortized(accounts, ModelAccount(2**46, 2**46))
    want_p = float(np.mean([a.params_total for a in accounts]))
    want_f = float(np.mean([a.flops_total for a in accounts]))
    assert np.float64(amt.params_mean).view(np.int64) == np.float64(want_p).view(np.int64)
    assert np.float64(amt.flops_mean).view(np.int64) == np.float64(want_f).view(np.int64)


@pytest.mark.parametrize("row", TABLE_ROWS, ids=lambda r: f"{r.family}-{r.codename}")
def test_computed_row_equals_the_per_slot_reference_on_the_grid(row):
    assert computed_row(row.family, row.codename) == reference_computed_row(
        row.family, row.codename, MNIST_LAYOUT
    )


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["WP", "NP", "FS"]),
    st.text(alphabet="1234567", min_size=1, max_size=30),
    st.integers(2, 40),
    st.lists(st.integers(4, 60), min_size=1, max_size=3),
    st.integers(1, 12),
)
def test_computed_row_equals_the_per_slot_reference(family, codename, d_in, hidden, d_out):
    if family != "WP":
        hidden = hidden[:1]
    layout = LayerLayout((d_in, *hidden, d_out))
    assert computed_row(family, codename, layout) == reference_computed_row(
        family, codename, layout
    )


def test_computed_row_accounts_each_distinct_digit_once(monkeypatch):
    import fedprune.tables

    calls = []
    monkeypatch.setattr(fedprune.tables, "account", lambda *a: calls.append(a) or account(*a))
    computed_row("NP", "1111223344")
    assert [kept for _, _, kept in calls] == [DIGIT_SEGMENTS[d] for d in "1234"]


# ---------------------------------------------------------------------------
# weighted accuracy
# ---------------------------------------------------------------------------


def correct_and_count(params, dataset):
    """(correct argmax predictions, examples) of a model on a dataset."""
    hits = forward(params, dataset.inputs).argmax(axis=-1) == dataset.labels
    return int(hits.sum()), len(dataset.labels)


def test_weighted_accuracy_single_perfect_client():
    layout = LayerLayout((2, 2))
    params = ParamVector(np.array([5.0, 0.0, 0.0, 5.0, 0.0, 0.0]), layout)
    data = synth_blobs(2, 10, 2, 0.0, seed=0)
    assert weighted_accuracy([correct_and_count(params, data)]) == 1.0


def test_weighted_accuracy_mixes_linearly():
    layout = LayerLayout((2, 2))
    good = ParamVector(np.array([5.0, 0.0, 0.0, 5.0, 0.0, 0.0]), layout)
    bad = ParamVector(np.array([0.0, 5.0, 5.0, 0.0, 0.0, 0.0]), layout)  # labels flipped
    data = synth_blobs(2, 10, 2, 0.0, seed=0)
    mixed = [correct_and_count(good, data), correct_and_count(bad, data)]
    assert weighted_accuracy(mixed) == pytest.approx(0.5)


def test_uniform_weights_over_equal_shards_equal_global_accuracy():
    layout = LayerLayout((4, 8, 3))
    params = init_params(layout, 5)
    data = synth_blobs(3, 20, 4, 0.4, seed=6)
    shard_a, shard_b = data.subset(np.arange(30)), data.subset(np.arange(30, 60))
    per_client = weighted_accuracy(
        [correct_and_count(params, shard_a), correct_and_count(params, shard_b)]
    )
    _, global_acc, _ = evaluate(params, data)
    assert per_client == pytest.approx(global_acc, abs=1e-12)


# ---------------------------------------------------------------------------
# theorem calculators (hand-computed fixed sets, 1e-12)
# ---------------------------------------------------------------------------


def test_theorem1_spec_example():
    c = constants(Q=4.0, avg_theta_norm_sq=5.0, sigma_sq=0.0)
    # G0 = 4, sqrt(TQ) = 2, V0 = 3, V0/Q = 0.75; delta^2 = 0 kills the norm term
    assert theorem1_rhs(c) == pytest.approx(2.75, abs=1e-12)


def test_theorem2_spec_example():
    c = constants()
    # H0 = 4 + 6 = 10, U0 = 3, norm term zero
    assert theorem2_rhs(c) == pytest.approx(13.0, abs=1e-12)


def test_theorem_values_set_a():
    c = TheoryConstants(L=2, G=3, sigma_sq=0.5, K=4, N=8, T=5, Q=20,
                        gamma_star=2, delta_sq=0.25, avg_theta_norm_sq=8, f0=1.5)
    # t1: G0 = 6+48/4 = 18 -> 1.8; V0 = 288/2 -> 7.2; (96/2)*0.25*8 = 96
    assert theorem1_rhs(c) == pytest.approx(105.0, abs=1e-12)
    # t2: H0 = 6+24 = 30 -> 3; U0 = 288 -> 14.4; 0.5*96*8 = 384
    assert theorem2_rhs(c) == pytest.approx(401.4, abs=1e-12)
    # alternative reading replaces V0/Q by V0/sqrt(Q)
    assert theorem1_rhs(c, variant="alt") == pytest.approx(
        1.8 + 144.0 / math.sqrt(20.0) + 96.0, abs=1e-12
    )
    assert theorem2_rhs(c, variant="alt") == pytest.approx(
        3.0 + 144.0 / math.sqrt(20.0) + 96.0, abs=1e-12
    )


def test_theorem_values_set_b():
    c = TheoryConstants(L=3, G=2, sigma_sq=0.0, K=7, N=5, T=2, Q=8,
                        gamma_star=4, delta_sq=0.0, avg_theta_norm_sq=100, f0=2.0)
    assert theorem1_rhs(c) == pytest.approx(2.0 + 270.0 / 4.0 / 8.0, abs=1e-12)
    assert theorem2_rhs(c) == pytest.approx(2.0 + 270.0 / 8.0, abs=1e-12)


def test_theorem_values_set_c():
    c = TheoryConstants(L=1, G=1, sigma_sq=1.0, K=3, N=2, T=4, Q=9,
                        gamma_star=2, delta_sq=0.5, avg_theta_norm_sq=2, f0=0.25)
    assert theorem1_rhs(c) == pytest.approx(4.0, abs=1e-12)
    assert theorem2_rhs(c) == pytest.approx(95.0 / 6.0, abs=1e-12)


def test_theorem1_ignores_norms_when_delta_zero():
    low = constants(delta_sq=0.0, avg_theta_norm_sq=0.0)
    high = constants(delta_sq=0.0, avg_theta_norm_sq=1e9)
    assert theorem1_rhs(low) == theorem1_rhs(high)


def test_theorem_rejects_bad_variant_and_constants():
    with pytest.raises(ValueError):
        theorem1_rhs(constants(), variant="midpoint")
    with pytest.raises(ValueError, match="^variant must be 'main' or 'alt'$"):
        theorem2_rhs(constants(), variant="midpoint")
    for name in ("L", "G", "K", "N", "T", "Q", "f0"):
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"^{name} must be positive$"):
                constants(**{name: value})
    for name in ("sigma_sq", "avg_theta_norm_sq"):
        with pytest.raises(ValueError, match="^sigma_sq and avg_theta_norm_sq must be non-negative$"):
            constants(**{name: -1e-9})
    with pytest.raises(ValueError):
        constants(gamma_star=0.0)
    with pytest.raises(ValueError):
        constants(delta_sq=1.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_theorem1_monotone_in_gamma_and_delta(seed):
    rng = np.random.default_rng(seed)
    c = TheoryConstants(
        L=rng.uniform(0.1, 5), G=rng.uniform(0.1, 5), sigma_sq=rng.uniform(0, 3),
        K=rng.uniform(1, 20), N=rng.uniform(1, 50), T=rng.uniform(1, 10),
        Q=rng.uniform(1, 1000), gamma_star=rng.uniform(0.5, 10),
        delta_sq=rng.uniform(0, 0.5), avg_theta_norm_sq=rng.uniform(0, 100),
        f0=rng.uniform(0.1, 5),
    )
    doubled_gamma = TheoryConstants(**{**c.__dict__, "gamma_star": 2 * c.gamma_star})
    assert theorem1_rhs(doubled_gamma) <= theorem1_rhs(c) + 1e-12
    more_noise = TheoryConstants(**{**c.__dict__, "delta_sq": min(c.delta_sq + 0.3, 0.99)})
    assert theorem1_rhs(more_noise) >= theorem1_rhs(c) - 1e-12


def test_bounds_shrink_to_residue_at_huge_q():
    c = constants(Q=1e8, delta_sq=0.0, avg_theta_norm_sq=0.0)
    lead1 = (4 * c.f0 + 6 * c.L * c.N * c.sigma_sq / c.gamma_star**2) / math.sqrt(c.T * c.Q)
    lead2 = (4 * c.f0 + 6 * c.L * c.K * c.sigma_sq) / math.sqrt(c.T * c.Q)
    assert theorem1_rhs(c) - lead1 < 1e-3
    assert theorem2_rhs(c) - lead2 < 1e-3


def test_theory_learning_rate():
    assert theory_learning_rate(5, 20) == pytest.approx(0.1)
    assert theory_learning_rate(5, 20, L=10.0) == pytest.approx(1 / 300)


# ---------------------------------------------------------------------------
# gradient norm (the full-batch gradient `evaluate` returns)
# ---------------------------------------------------------------------------


def grad_norm_sq(params, dataset):
    _, _, grad = evaluate(params, dataset)
    return float(grad @ grad)


def test_grad_norm_zero_at_symmetric_minimizer():
    # identical input with both labels equally likely: uniform logits optimal
    layout = LayerLayout((2, 2))
    params = ParamVector(np.zeros(layout.total), layout)

    class TwoPoint:
        inputs = np.array([[1.0, 2.0], [1.0, 2.0]])
        labels = np.array([0, 1])

    assert grad_norm_sq(params, TwoPoint) < 1e-12


def test_grad_norm_decomposes_over_layers():
    layout = LayerLayout((3, 4, 2))
    params = init_params(layout, 8)
    data = synth_blobs(2, 15, 3, 0.5, seed=9)
    total = grad_norm_sq(params, data)
    _, _, grad = evaluate(params, data)
    per_layer = sum(
        float(grad[sl.weights] @ grad[sl.weights]) + float(grad[sl.biases] @ grad[sl.biases])
        for sl in layout.offsets
    )
    assert total == pytest.approx(per_layer, rel=1e-12)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def record(round_no):
    rng = np.random.default_rng(round_no)
    return RoundMetrics(
        round=round_no,
        loss=float(rng.uniform(0, 3)),
        acc_global=float(rng.uniform(0, 1)),
        acc_local=float(rng.uniform(0, 1)),
        gamma_min=int(rng.integers(0, 11)),
        delta_sq_mean=float(rng.uniform(0, 0.5)),
        grad_norm_sq=float(rng.uniform(0, 2)),
        params_amortized=float(rng.uniform(1e5, 2e5)),
        flops_amortized=float(rng.uniform(1e5, 2e5)),
    )


def test_the_record_is_the_row():
    # the header is the fields' names, in the order the metrics files have always had them
    assert CSV_HEADER == ["round", "loss", "acc_global", "acc_local", "gamma_min", "delta_sq_mean",
                          "grad_norm_sq", "params_amortized", "flops_amortized"]
    rec = record(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.loss = 0.0
    sink = io.StringIO()
    emit_jsonl([rec], sink)
    assert list(json.loads(sink.getvalue())) == CSV_HEADER


def test_emit_header_only_for_empty_records():
    sink = io.StringIO()
    emit_csv([], sink)
    assert sink.getvalue().strip() == ",".join(CSV_HEADER)


def test_emit_one_record_two_lines():
    sink = io.StringIO()
    emit_csv([record(1)], sink)
    assert len(sink.getvalue().strip().splitlines()) == 2


def test_emit_csv_formats_by_value_type():
    # ints as they are, floats at 17 significant digits, whatever the column
    rec = RoundMetrics(3, 0.1, 0.5, 0.25, 8, 0.15000000000000002, 2.0, 135490.0, 1e-300)
    sink = io.StringIO()
    emit_csv([rec], sink)
    assert sink.getvalue().splitlines()[1] == (
        "3,0.10000000000000001,0.5,0.25,8,0.15000000000000002,2,135490,1e-300"
    )


def test_emit_round_trip_is_exact():
    records = [record(i) for i in range(1, 6)]
    csv_sink, jsonl_sink = io.StringIO(), io.StringIO()
    emit_csv(records, csv_sink)
    emit_jsonl(records, jsonl_sink)
    parsed = read_metrics_csv(io.StringIO(csv_sink.getvalue()))
    assert len(parsed) == len(records)
    for row, rec in zip(parsed, records):
        assert row["round"] == rec.round
        assert row["loss"] == rec.loss
        assert row["acc_global"] == rec.acc_global
        assert row["acc_local"] == rec.acc_local
        assert row["gamma_min"] == rec.gamma_min
        assert row["delta_sq_mean"] == rec.delta_sq_mean
        assert row["grad_norm_sq"] == rec.grad_norm_sq
        assert row["params_amortized"] == rec.params_amortized
        assert row["flops_amortized"] == rec.flops_amortized
    # the JSON twin carries the same values
    json_rows = [json.loads(line) for line in jsonl_sink.getvalue().splitlines()]
    assert [r["loss"] for r in json_rows] == [r.loss for r in records]
