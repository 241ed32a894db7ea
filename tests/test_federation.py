import io
import re
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from reference_impl import (
    brute_force_signatures,
    coverage_counts,
    reference_fedavg_rounds,
    reference_local_update,
    reference_masks,
    reference_neuron_blocks,
    reference_run,
)

import fedprune.federation
import fedprune.lanes
import fedprune.metrics
import fedprune.nn
import fedprune.pruning
import fedprune.tables
from fedprune.data import PARTITIONS, Dataset
from fedprune.federation import (
    CoverageError,
    FederationConfig,
    SynthSpec,
    aggregate,
    build_federated_data,
    codename_facts,
    init_state,
    local_rng,
    local_update,
    model_layout,
    run,
    run_round,
    sample_participants,
)
from fedprune.metrics import account, emit_csv, full_account
from fedprune.nn import LayerLayout, ParamVector, evaluate, init_params, loss_and_grad
from fedprune.pruning import (
    apply_mask,
    codename_coverage,
    pruning_noise,
    round_masks,
    segment_fill,
    segment_index_sets,
)
from fedprune.selfcheck import brute_force_aggregate
from fedprune.spec import FAMILIES


def flat_layout(n):
    return LayerLayout((n - 1, 1))


def masks_from(rows):
    return [np.asarray(r, dtype=np.uint8) for r in rows]


def codename_masks(codename, family, params):
    """The masks of a codename's slots, ranked from `params`: slot k's is its digit's."""
    masks = round_masks(codename, family, params.layout, segment_index_sets(params, family))
    return [masks[d] for d in codename]


def slot_counts(masks):
    """Coverage counts of one mask per slot."""
    return coverage_counts(masks, [1] * len(masks))


def slot_sum(rows):
    """The round's sum of local models: added from +0.0, in ascending slot order, as `run_round` does."""
    total = np.zeros(len(rows[0]))
    for row in rows:
        np.add(total, row, out=total)
    return total


def desk_config(**overrides):
    base = dict(
        codename="1111223344",
        num_clients=20,
        participation_ratio=0.5,
        rounds=3,
        local_epochs=5,
        local_batch=10,
        learning_rate=0.1,
        momentum=0.5,
        family="WP",
        seed=1,
        hidden_layers=(32,),
        dataset=SynthSpec(10, 50, 20, 0.3, 20),
    )
    base.update(overrides)
    return FederationConfig(**base)


# ---------------------------------------------------------------------------
# coverage counts
# ---------------------------------------------------------------------------


def test_decompose_two_mask_example():
    counts = slot_counts(masks_from([[1, 1, 0, 0], [1, 0, 1, 0]]))
    assert counts.tolist() == [2, 1, 1, 0]


def test_decompose_all_ones_single_region():
    assert slot_counts(masks_from([[1, 1, 1]] * 4)).tolist() == [4, 4, 4]


def test_decompose_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        slot_counts(masks_from([[1, 0], [1, 0, 1]]))


def test_coverage_counts_adds_each_mask_times_its_holders():
    masks = masks_from([[1, 1, 0, 0], [1, 0, 1, 0]])
    assert coverage_counts(masks, [3, 1]).tolist() == [4, 3, 1, 0]
    assert coverage_counts(masks, [3, 1]).tolist() == slot_counts(masks[:1] * 3 + masks[1:]).tolist()
    with pytest.raises(ValueError):
        coverage_counts(masks, [1])


def test_coverage_report_values():
    counts = slot_counts(masks_from([[1, 1, 0, 0], [1, 0, 1, 0]]))
    assert counts.min() == 0
    assert sorted(counts.tolist()) == [0, 1, 1, 2]

    assert slot_counts(masks_from([[1, 1]] * 10)).min() == 10


def test_codename_masks_reach_reference_gamma():
    layout = LayerLayout((8, 8, 4))
    params = init_params(layout, 0)
    for codename, expected in (("1111223344", 8), ("1111556677", 6), ("1111111111", 10)):
        assert slot_counts(codename_masks(codename, "WP", params)).min() == expected


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_decompose_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_params = int(rng.integers(2, 65))
    n_slots = int(rng.integers(1, 7))
    bits = rng.integers(0, 2, (n_slots, n_params), dtype=np.uint8)
    counts = slot_counts(masks_from(bits))
    signatures = brute_force_signatures(bits)
    assert len(counts) == n_params
    for i in range(n_params):
        assert counts[i] == len(signatures[i])


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_worked_example():
    layout = flat_layout(3)
    prev = ParamVector(np.array([9.0, 9.0, 9.0]), layout)
    locals_ = [np.array([1.0, 2.0, 0.0]), np.array([3.0, 0.0, 4.0])]
    masks = masks_from([[1, 1, 0], [1, 0, 1]])
    out = aggregate(prev, slot_sum(locals_), slot_counts(masks))
    assert out.values.tolist() == [2.0, 2.0, 4.0]


def test_aggregate_all_ones_is_fedavg_mean():
    layout = flat_layout(6)
    rng = np.random.default_rng(3)
    prev = ParamVector(rng.normal(size=6), layout)
    locals_ = [rng.normal(size=6) for _ in range(4)]
    masks = [np.ones(6, np.uint8) for _ in range(4)]
    out = aggregate(prev, slot_sum(locals_), slot_counts(masks))
    manual = np.zeros(6)
    for lv in locals_:
        manual += lv
    assert np.array_equal(out.values, manual / 4)


def test_aggregate_single_client_retains_uncovered():
    layout = flat_layout(4)
    prev = ParamVector(np.array([5.0, 6.0, 7.0, 8.0]), layout)
    locals_ = [np.array([1.0, 0.0, 3.0, 0.0])]
    masks = masks_from([[1, 0, 1, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 0/0 at uncovered indices must stay silent
        out = aggregate(prev, slot_sum(locals_), slot_counts(masks))
    assert out.values.tolist() == [1.0, 6.0, 3.0, 8.0]


def test_aggregate_rejects_a_row_or_counts_of_the_wrong_length():
    layout = flat_layout(3)
    prev = ParamVector(np.zeros(3), layout)
    for bad in (np.ones(4), np.ones(1), np.ones((2, 3))):  # (1,) would broadcast
        with pytest.raises(ValueError):
            aggregate(prev, bad, np.full(3, 2))
    for counts in (np.full(1, 2), np.full(4, 2)):  # (1,) would broadcast too
        with pytest.raises(ValueError):
            aggregate(prev, np.full(3, 2.0), counts)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_aggregate_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_params = int(rng.integers(2, 65))
    n_slots = int(rng.integers(1, 7))
    bits = rng.integers(0, 2, (n_slots, n_params), dtype=np.uint8)
    layout = flat_layout(n_params)
    prev = rng.normal(size=n_params)
    masks = masks_from(bits)
    # local models +0.0 off their masks, as `apply_mask` leaves them
    local_values = [apply_mask(ParamVector(rng.normal(size=n_params), layout), m) for m in masks]
    got = aggregate(ParamVector(prev, layout), slot_sum(local_values), slot_counts(masks)).values
    want = prev.copy()
    for i in range(n_params):
        covering = [s for s in range(n_slots) if bits[s, i]]
        if covering:
            want[i] = sum(local_values[s][i] for s in covering) / len(covering)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("family", ["WP", "NP", "FS"])
@pytest.mark.parametrize(
    ("codename", "uncovered"),
    [("1111223344", False), ("2233445677", False), ("55", True), ("5566", True)],
)
def test_aggregate_matches_brute_force_bitwise_on_generated_masks(family, codename, uncovered):
    # codenames with and without an uncovered quartile; signed zeros in the
    # previous model and in kept coordinates of the local models, compared bit
    # pattern for bit pattern (array_equal has -0.0 == 0.0); pruned
    # coordinates are +0.0, as `apply_mask` leaves them
    layout = LayerLayout((8, 8, 4))
    rng = np.random.default_rng(7)
    params = init_params(layout, 0)
    masks = codename_masks(codename, family, params)
    bits = np.stack(masks)
    signed_zeros = rng.random(layout.total) < 0.25
    prev = rng.normal(size=layout.total)
    prev[signed_zeros] = -0.0
    local_values = []
    for mask in masks:
        values = apply_mask(ParamVector(rng.normal(size=layout.total), layout), mask)
        values[signed_zeros & (mask != 0)] = -0.0
        local_values.append(values)
    got = aggregate(ParamVector(prev, layout), slot_sum(local_values), slot_counts(masks)).values
    want = brute_force_aggregate(prev, local_values, bits)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    counts = bits.sum(0)
    assert (counts == 0).any() == uncovered
    assert (signed_zeros & (counts > 0)).any()


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["WP", "NP", "FS"]),
    codename=st.text("1234567", min_size=1, max_size=6),
    hidden=st.lists(st.integers(4, 9), min_size=1, max_size=3),
    d_in=st.integers(1, 6),
    tied=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(family="FS", codename="4444444444", hidden=[32], d_in=20, tied=False, seed=0)
@example(family="WP", codename="55", hidden=[4, 5], d_in=1, tied=True, seed=1)
@example(family="NP", codename="67", hidden=[5], d_in=3, tied=True, seed=2)
def test_generated_coverage_is_the_codenames(family, codename, hidden, d_in, tied, seed):
    # the per-index brute force behind reading gamma_min and the never-trained
    # count from the codename: masks keep whole segments whatever the ranking,
    # so ties and deeper WP nets change which parameters, not how many
    layout = LayerLayout((d_in, *(hidden if family == "WP" else hidden[:1]), 3))
    rng = np.random.default_rng(seed)
    values = rng.integers(-2, 3, layout.total) if tied else rng.normal(size=layout.total)
    params = ParamVector(values.astype(float), layout)
    masks = round_masks(codename, family, layout, segment_index_sets(params, family))
    counts = coverage_counts(list(masks.values()), [codename.count(d) for d in masks])
    segments, gamma_min = codename_coverage(codename)
    # the engine's counts: the codename's per-segment coverage written over the ranking
    written = segment_fill(layout, family, segment_index_sets(params, family),
                           list(segments.values()), np.full(layout.total, len(codename)))
    assert written.dtype == counts.dtype and np.array_equal(written, counts)
    assert counts.min() == gamma_min
    kept = {s for s, n in segments.items() if n}
    never = full_account(layout).params_total - account(layout, family, kept).params_total
    assert (counts == 0).sum() == never


# ---------------------------------------------------------------------------
# participant sampling
# ---------------------------------------------------------------------------


def test_sampling_full_participation():
    config = desk_config(codename="1" * 10, num_clients=10, participation_ratio=1.0)
    data = build_federated_data(config)
    state = init_state(config, model_layout(config, data))
    chosen = sample_participants(state, config)
    assert sorted(chosen) == list(range(10))


def test_sampling_is_deterministic_and_distinct():
    config = desk_config(
        codename="1111223344", num_clients=100, participation_ratio=0.1,
        dataset=SynthSpec(10, 20, 20, 0.3, 10),
    )
    data = build_federated_data(config)
    state = init_state(config, model_layout(config, data))
    a = sample_participants(state, config)
    b = sample_participants(state, config)
    assert a == b
    assert len(a) == 10 == len(set(a))


def test_config_rejects_codename_length_mismatch():
    with pytest.raises(ValueError):
        desk_config(codename="111")


def test_config_rejects_bad_family_and_freeze_round():
    with pytest.raises(ValueError, match="unknown family 'XP'"):
        desk_config(family="XP")
    for freeze in (0, -1):
        with pytest.raises(ValueError, match="freeze_after_round must be >= 1"):
            desk_config(freeze_after_round=freeze)
    desk_config(freeze_after_round=1)


@pytest.mark.parametrize("key", ["seed", "init_seed"])
def test_config_rejects_a_negative_seed_naming_its_key(key):
    with pytest.raises(ValueError, match=f"^{key} must be non-negative, got -3$"):
        desk_config(**{key: -3})


def test_config_rejects_bad_ratio():
    with pytest.raises(ValueError):
        desk_config(participation_ratio=0.0)


@pytest.mark.parametrize("family", ["NP", "FS"])
@pytest.mark.parametrize("hidden", [(16, 8), (3,)], ids=["two-hidden", "three-neurons"])
def test_config_rejects_layouts_neuron_pruning_cannot_split(family, hidden):
    with pytest.raises(ValueError, match="exactly one hidden layer of at least 4 neurons"):
        desk_config(family=family, hidden_layers=hidden)
    desk_config(family="WP", hidden_layers=hidden)  # WP units are W1 entries: both are fine
    desk_config(family=family, hidden_layers=(4,))


def test_default_learning_rate_follows_analysis_schedule():
    config = desk_config(learning_rate=None, rounds=20)
    assert config.effective_learning_rate == pytest.approx(1.0 / np.sqrt(5 * 20))
    capped = desk_config(learning_rate=None, rounds=20, smoothness_L=10.0)
    assert capped.effective_learning_rate == pytest.approx(1.0 / (6 * 10.0 * 5))


# ---------------------------------------------------------------------------
# local updates
# ---------------------------------------------------------------------------


def trained_rows(params, masks, train, shards, config, rngs, take=None):
    """(copies of the rows `local_update` hands to `take`, indexed by slot, correct counts).

    Every slot's row must come exactly once, in ascending slot order; `take`,
    if given, sees each row too.
    """
    rows, order = [], []

    def keep(k, row):
        order.append(k)
        rows.append(row.copy())
        if take is not None:
            take(k, row)

    correct = local_update(params, masks, train, shards, config, rngs, keep)
    assert order == list(range(len(masks)))
    return rows, correct


def test_local_update_zero_lr_is_pruning_only():
    config = desk_config(learning_rate=0.0)
    data = build_federated_data(config)
    layout = model_layout(config, data)
    params = init_params(layout, 0)
    (mask,) = codename_masks("4", "WP", params)
    out, _ = trained_rows(params, [mask], data.train, [data.shards[0]], config, [local_rng(0, 1, 0)])
    assert len(out) == 1 and out[0].shape == (layout.total,)
    assert np.array_equal(out[0], apply_mask(params, mask))


def test_local_update_single_full_batch_step_oracle():
    config = desk_config(
        codename="1", num_clients=1, participation_ratio=1.0,
        local_epochs=1, local_batch=10**9, momentum=0.0, learning_rate=0.25,
        dataset=SynthSpec(10, 10, 20, 0.3, 5),
    )
    data = build_federated_data(config)
    layout = model_layout(config, data)
    params = init_params(layout, 4)
    shard = data.train.subset(data.shards[0])
    mask = np.ones(layout.total, np.uint8)
    got, _ = trained_rows(params, [mask], data.train, [data.shards[0]], config, [local_rng(4, 1, 0)])
    # one full-batch step over the same seed-shuffled epoch order
    order = local_rng(4, 1, 0).permutation(len(shard))
    _, grad = loss_and_grad(params, shard.inputs[order], shard.labels[order])
    assert np.array_equal(got[0], params.values - 0.25 * grad)


def test_local_update_matches_reference_with_momentum_bitwise():
    # 25-example shard, batch 10: every epoch ends on a short batch
    config = desk_config(local_epochs=3, momentum=0.5)
    data = build_federated_data(config)
    layout = model_layout(config, data)
    params = init_params(layout, 6)
    theta = params.values.copy()
    (mask,) = codename_masks("2", "WP", params)
    shard = data.train.subset(data.shards[2])
    assert len(shard) % config.local_batch != 0
    (got,), _ = trained_rows(params, [mask], data.train, [data.shards[2]], config, [local_rng(6, 1, 0)])
    want = reference_local_update(params, mask, shard, config, local_rng(6, 1, 0))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert not np.array_equal(got, apply_mask(params, mask))
    assert np.array_equal(params.values.view(np.int64), theta.view(np.int64))


def test_local_update_preserves_masked_zeros():
    config = desk_config()
    data = build_federated_data(config)
    layout = model_layout(config, data)
    params = init_params(layout, 5)
    (mask,) = codename_masks("5", "WP", params)
    (out,), _ = trained_rows(params, [mask], data.train, [data.shards[3]], config, [local_rng(5, 1, 0)])
    off = mask == 0
    assert (out[off] == 0.0).all()
    assert np.isfinite(out).all()


def test_local_update_rejects_empty_shard():
    config = desk_config()
    data = build_federated_data(config)
    layout = model_layout(config, data)
    params = init_params(layout, 0)
    full = np.ones(layout.total, np.uint8)
    empty = np.array([], dtype=np.int64)
    with pytest.raises(ValueError, match="empty"):
        local_update(params, [full], data.train, [empty], config, [local_rng(0, 1, 0)], lambda k, row: None)
    # one empty shard among non-empty ones is rejected too
    with pytest.raises(ValueError, match="empty"):
        local_update(
            params, [full, full], data.train, [data.shards[0], empty],
            config, [local_rng(0, 1, 0), local_rng(0, 1, 1)], lambda k, row: None,
        )
    with pytest.raises(ValueError, match="one mask, shard and rng per slot"):
        local_update(
            params, [full], data.train, [data.shards[0]] * 2, config, [local_rng(0, 1, 0)],
            lambda k, row: None,
        )


# A round's inputs to local_update: equal iid shards (one lockstep group of
# all ten slots), and label-skew shards of 23 and 24 examples (two groups,
# interleaved across slots). Every shard ends its epoch on a short batch.
LOCKSTEP_ROUNDS = {
    "iid-equal-shards": dict(
        partition="iid", hidden_layers=(32,), families=[("WP", "1111223344")],
        dataset=SynthSpec(10, 50, 20, 0.3, 20),
    ),
    # WP is the only family defined for more than one hidden layer
    "skew-two-hidden-WP": dict(
        partition="label-skew", hidden_layers=(16, 12), families=[("WP", "1111223344")],
        dataset=SynthSpec(10, 47, 20, 0.3, 20),
    ),
    "skew-WP-NP-FS": dict(
        partition="label-skew", hidden_layers=(32,),
        families=[("WP", "1234"), ("NP", "1234"), ("FS", "45")],
        dataset=SynthSpec(10, 47, 20, 0.3, 20),
    ),
}


def lockstep_round(case):
    """(config, global params, masks, train set, shards, fresh-rngs factory) for round 1 of a case."""
    spec = dict(LOCKSTEP_ROUNDS[case])
    families = spec.pop("families")
    config = desk_config(local_epochs=3, momentum=0.5, **spec)
    data = build_federated_data(config)
    layout = model_layout(config, data)
    state = init_state(config, layout)
    masks = []
    for family, digits in families:
        masks += codename_masks(digits, family, state.params)
    participants = sample_participants(state, config)
    shards = [data.shards[client] for client in participants]

    def rngs():
        return [local_rng(config.seed, 1, k) for k in range(len(participants))]

    return config, state.params, masks, data.train, shards, rngs


def chunk_order_is_not_slot_order(shards):
    """Whether some slot's shard length first appears after a later slot's: a chunk then
    finishes before an earlier slot's chunk, and its rows wait their turn."""
    lengths = [len(shard) for shard in shards]
    first = {n: lengths.index(n) for n in lengths}
    return sorted(range(len(lengths)), key=lambda k: first[lengths[k]]) != list(range(len(lengths)))


@pytest.mark.parametrize("case", sorted(LOCKSTEP_ROUNDS))
def test_lockstep_matches_reference_local_update_bitwise(case):
    config, params, masks, train, shards, rngs = lockstep_round(case)
    lengths = [len(shard) for shard in shards]
    assert all(n % config.local_batch for n in lengths)
    assert chunk_order_is_not_slot_order(shards) == case.startswith("skew")
    assert max(lengths.count(n) for n in lengths) > 1  # some slots do train together
    theta = params.values.copy()
    local_sum = np.zeros(params.layout.total)  # added as `run_round` adds

    def add(k, row):
        np.add(local_sum, row, out=local_sum)

    got, _ = trained_rows(params, masks, train, shards, config, rngs(), add)
    want_sum = np.zeros(params.layout.total)
    for k, (mask, shard, rng) in enumerate(zip(masks, shards, rngs())):
        want = reference_local_update(params, mask, train.subset(shard), config, rng)
        assert np.array_equal(got[k].view(np.int64), want.view(np.int64)), f"slot {k}"
        want_sum += want
    assert np.array_equal(local_sum.view(np.int64), want_sum.view(np.int64))
    assert np.array_equal(params.values.view(np.int64), theta.view(np.int64))


@pytest.mark.parametrize("case", sorted(LOCKSTEP_ROUNDS))
def test_lockstep_results_independent_of_chunk_size(monkeypatch, case):
    config, params, masks, train, shards, rngs = lockstep_round(case)
    want = np.stack(trained_rows(params, masks, train, shards, config, rngs())[0])
    lengths = [len(shard) for shard in shards]
    largest_group = max(lengths.count(n) for n in lengths)
    stack_sizes = []
    loss_and_grad_ = fedprune.federation.loss_and_grad

    def recorded(params, *args, **kwargs):
        stack_sizes.append(len(params.values))
        return loss_and_grad_(params, *args, **kwargs)

    monkeypatch.setattr(fedprune.federation, "loss_and_grad", recorded)
    for g in range(1, len(masks) + 1):
        monkeypatch.setattr(fedprune.federation, "_LOCKSTEP_BYTES", 8 * params.layout.total * g)
        stack_sizes.clear()
        got = np.stack(trained_rows(params, masks, train, shards, config, rngs())[0])
        assert max(stack_sizes) == min(g, largest_group), f"g = {g}"
        assert sum(stack_sizes) == config.local_epochs * sum(-(-n // config.local_batch) for n in lengths)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), f"g = {g}"


@pytest.mark.parametrize("case", sorted(LOCKSTEP_ROUNDS))
def test_each_chunk_calls_the_kernel_once_per_step_and_sets_up_its_views_once(monkeypatch, case):
    config, params, masks, train, shards, rngs = lockstep_round(case)
    chunks = {}  # id of a chunk's rows -> its record, which keeps the rows alive: no id is reused
    views = []
    loss_and_grad_ = fedprune.federation.loss_and_grad
    masked_sgd_step_ = fedprune.federation.masked_sgd_step
    unpack_ = LayerLayout.unpack

    def recorded_grad(rows, inputs, labels, out=None):
        chunk = chunks.setdefault(id(rows), dict(rows=rows, grad=0, step=0, batch_rows=0, outs=[]))
        chunk["grad"] += 1
        chunk["batch_rows"] += labels.shape[-1]
        if not any(o is out for o in chunk["outs"]):
            chunk["outs"].append(out)
        return loss_and_grad_(rows, inputs, labels, out=out)

    def recorded_step(rows, *args):
        chunks[id(rows)]["step"] += 1
        return masked_sgd_step_(rows, *args)

    def recorded_unpack(layout, values):
        views.append(values.shape)
        return unpack_(layout, values)

    monkeypatch.setattr(fedprune.federation, "loss_and_grad", recorded_grad)
    monkeypatch.setattr(fedprune.federation, "masked_sgd_step", recorded_step)
    monkeypatch.setattr(LayerLayout, "unpack", recorded_unpack)
    trained_rows(params, masks, train, shards, config, rngs())
    assert sum(len(chunk["rows"].values) for chunk in chunks.values()) == len(masks)
    for chunk in chunks.values():
        n = chunk["batch_rows"] // config.local_epochs  # the chunk's shard length
        steps = config.local_epochs * -(-n // config.local_batch)
        assert chunk["grad"] == chunk["step"] == steps
        (out,) = chunk["outs"]  # one gradient vector serves every step of the chunk
        assert isinstance(out, ParamVector) and out.values.shape == chunk["rows"].values.shape
    # per chunk: its rows and its gradient vector; `apply_mask` builds none
    assert len(views) == 2 * len(chunks)


@pytest.mark.parametrize("case", sorted(LOCKSTEP_ROUNDS))
def test_lockstep_keeps_masked_coordinates_at_positive_zero(case):
    config, params, masks, train, shards, rngs = lockstep_round(case)
    got, _ = trained_rows(params, masks, train, shards, config, rngs())
    assert any((mask == 0).any() for mask in masks)
    for k, mask in enumerate(masks):
        off = mask == 0
        assert (got[k][off].view(np.int64) == 0).all(), f"slot {k}"  # +0.0, not -0.0
        assert (got[k][~off] != apply_mask(params, mask)[~off]).any(), f"slot {k}"
    assert np.isfinite(got).all()


@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(LOCKSTEP_ROUNDS))
def test_local_update_is_independent_of_lanes_and_chunk_size(use_lanes, monkeypatch, case, lanes):
    config, params, masks, train, shards, rngs = lockstep_round(case)
    use_lanes(1)
    want = np.stack(trained_rows(params, masks, train, shards, config, rngs())[0])
    use_lanes(lanes)
    for g in range(1, len(masks) + 1):
        monkeypatch.setattr(fedprune.federation, "_LOCKSTEP_BYTES", 8 * params.layout.total * g)
        got = np.stack(trained_rows(params, masks, train, shards, config, rngs())[0])
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), f"g = {g}"


def test_an_error_in_a_helper_lane_reaches_the_caller(use_lanes, monkeypatch):
    config, params, masks, train, shards, rngs = lockstep_round("iid-equal-shards")
    want = np.stack(trained_rows(params, masks, train, shards, config, rngs())[0])
    use_lanes(2)
    monkeypatch.setattr(fedprune.federation, "_LOCKSTEP_BYTES", 8 * params.layout.total)
    labels = train.labels.copy()
    labels[shards[1][-1]] = train.num_classes  # no output unit for this label
    broken = Dataset(train.inputs, labels, train.num_classes + 1)  # chunk 1, one slot: lane 1 trains it
    with pytest.raises(ValueError, match="label out of range"):
        local_update(params, masks, broken, shards, config, rngs(), lambda k, row: None)
    got = np.stack(trained_rows(params, masks, train, shards, config, rngs())[0])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_local_update_peak_memory_holds_no_matrix_of_slots_or_shard_copies():
    # 784-100-10 (79,510 parameters): each chunk is one slot, and the round's
    # ten shards of 100 rows would take 6.3 MB as copies
    config = desk_config(
        codename="1111223344", num_clients=10, participation_ratio=1.0, local_epochs=1,
        hidden_layers=(100,), dataset=SynthSpec(10, 100, 784, 0.3, 1),
    )
    data = build_federated_data(config)
    layout = model_layout(config, data)
    n_slots = config.slots_per_round
    assert layout.total >= 10**4 and 8 * layout.total > fedprune.federation._LOCKSTEP_BYTES // 2
    state = init_state(config, layout)
    masks = codename_masks(config.codename, config.family, state.params)
    shards = [data.shards[client] for client in sample_participants(state, config)]
    rngs = [local_rng(config.seed, 1, k) for k in range(n_slots)]
    local_sum = np.zeros(layout.total)

    def add(k, row):
        np.add(local_sum, row, out=local_sum)

    tracemalloc.start()
    try:
        local_update(state.params, masks, data.train, shards, config, rngs, add)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_matrix = n_slots * layout.total * 8  # an (S, total) float64 matrix
    assert peak < one_matrix // 2, f"traced peak {peak} bytes"


# ---------------------------------------------------------------------------
# whole rounds
# ---------------------------------------------------------------------------


def test_engine_reduces_to_fedavg_bitwise():
    config = desk_config(
        codename="1" * 10, momentum=0.0, rounds=5, dataset=SynthSpec(10, 30, 20, 0.3, 10)
    )
    data = build_federated_data(config)
    reference = reference_fedavg_rounds(config, data, 5)
    layout = model_layout(config, data)
    state, facts = init_state(config, layout), codename_facts(config, layout)
    for q in range(5):
        state, _ = run_round(state, config, data, facts)
        assert np.array_equal(state.params.values, reference[q]), f"round {q + 1} diverged"


def test_round_results_independent_of_slot_execution_order():
    config = desk_config(rounds=1)
    data = build_federated_data(config)
    layout = model_layout(config, data)
    state = init_state(config, layout)
    new_state, _ = run_round(state, config, data, codename_facts(config, layout))

    # recompute local models in reverse slot order, then aggregate by slot
    participants = sample_participants(state, config)
    slot_masks = [None] * len(participants)
    slot_models = [None] * len(participants)
    for k in reversed(range(len(participants))):
        # the slot's mask on its own, straight from the index-set oracle
        (mask,), _ = reference_masks(config.codename[k], config.family, None, state.params, 1, {})
        slot_masks[k] = mask
        # each slot trains alone, so no lockstep group spans two slots
        (alone,), _ = trained_rows(
            state.params, [mask], data.train, [data.shards[participants[k]]],
            config, [local_rng(config.seed, 1, k)],
        )
        slot_models[k] = alone
    redone = aggregate(state.params, slot_sum(slot_models), slot_counts(slot_masks))
    assert np.array_equal(redone.values, new_state.params.values)


# Whole runs against `reference_run`: each family, a freeze, a codename that
# leaves S4 unkept, label-skew shards of 23 and 24 examples (two chunks per
# round, so chunk order is not slot order), and fixed participants.
REFERENCE_RUNS = {
    "WP": {},
    "NP": {"family": "NP"},
    "FS": {"family": "FS", "codename": "2233445677"},
    "WP-freeze2": {"freeze_after_round": 2},
    "NP-freeze2": {"family": "NP", "freeze_after_round": 2},
    "WP-uncovered-S4": {"codename": "5555566666"},
    "WP-skew-two-shard-lengths": {"partition": "label-skew", "dataset": SynthSpec(10, 47, 20, 0.3, 20)},
    "WP-static-slots": {"num_clients": 10, "participation_ratio": 1.0, "static_slots": True},
}


def csv_text(history):
    sink = io.StringIO()
    emit_csv(history, sink)
    return sink.getvalue()


# (case, lanes, slots per lockstep chunk; None keeps the engine's width). With
# 3 slots per chunk, 10 slots of one length make 4 chunks, so 3 lanes all
# train and lane 0 trains twice; with two shard lengths, rows wait for
# earlier slots in another chunk.
@pytest.mark.parametrize(
    ("case", "lanes", "width"),
    [pytest.param(case, lanes, None, id=f"{case}-{lanes}")
     for case in sorted(REFERENCE_RUNS) for lanes in (1, 2)]
    + [pytest.param("WP", 3, 3, id="WP-lockstep3-3"),
       pytest.param("WP-skew-two-shard-lengths", 2, 3, id="WP-skew-two-shard-lengths-lockstep3-2")],
)
def test_run_matches_the_straight_line_reference_run(monkeypatch, use_lanes, case, lanes, width):
    config = desk_config(local_epochs=2, **REFERENCE_RUNS[case])
    data = build_federated_data(config)
    if case.startswith("WP-skew"):
        assert len({len(shard) for shard in data.shards}) > 1
    if width is not None:
        total = model_layout(config, data).total
        monkeypatch.setattr(fedprune.federation, "_LOCKSTEP_BYTES", 8 * total * width)
    use_lanes(lanes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the uncovered codename warns once
        history, _ = run(config, data)
    assert csv_text(history) == csv_text(reference_run(config, data))


# Small drawn configs against `reference_run`: every family, partition and
# freeze round, fixed or sampled participants, one or two lanes, and one to
# four slots per lockstep chunk. Label skew over 4 classes of 6 examples gives
# shards of unequal length, so rows wait for earlier slots.
@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    codename=st.text("1234567", min_size=2, max_size=4),
    hidden=st.integers(4, 8),
    partition=st.sampled_from(PARTITIONS),
    rounds=st.integers(1, 3),
    freeze=st.sampled_from([None, 1, 2]),
    static_slots=st.booleans(),
    lanes=st.sampled_from([1, 2]),
    width=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_drawn_configs_match_the_straight_line_reference_run(
    family, codename, hidden, partition, rounds, freeze, static_slots, lanes, width, seed
):
    slots = len(codename)
    config = FederationConfig(
        codename=codename, num_clients=slots if static_slots else 2 * slots,
        participation_ratio=1.0 if static_slots else 0.5, rounds=rounds, local_epochs=2,
        local_batch=3, learning_rate=0.1, momentum=0.5, family=family,
        freeze_after_round=freeze, seed=seed, partition=partition, hidden_layers=(hidden,),
        static_slots=static_slots, dataset=SynthSpec(4, 6, 5, 0.5, 5),
    )
    data = build_federated_data(config)
    total = model_layout(config, data).total
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(fedprune.lanes, "LANES", lanes)
        mp.setattr(fedprune.lanes, "MIN_WORK", 0)
        mp.setattr(fedprune.federation, "_LOCKSTEP_BYTES", 8 * total * width)
        warnings.simplefilter("ignore")  # a codename that leaves a segment unkept warns once
        history, _ = run(config, data)
        assert csv_text(history) == csv_text(reference_run(config, data))


@pytest.mark.parametrize(
    "overrides",
    [
        {"family": "WP"},
        {"family": "NP"},
        {"family": "FS"},
        {"family": "WP", "freeze_after_round": 2},
        {"family": "NP", "freeze_after_round": 2},
        {"family": "WP", "codename": "5555566666"},  # S4 uncovered: counts hold zeros
        {"family": "WP", "num_clients": 30, "participation_ratio": 0.34},  # two shard lengths
    ],
    ids=["WP", "NP", "FS", "WP-freeze2", "NP-freeze2", "WP-uncovered-S4", "WP-two-shard-lengths"],
)
def test_aggregate_is_fed_what_local_update_returns(monkeypatch, overrides):
    # the precondition of `aggregate` (local models +0.0 off their masks),
    # checked on the rows real rounds train, with the masks they trained
    # under; the sum `aggregate` gets is their slot-ordered sum, bit for bit
    trained = []
    aggregated = []
    waited = []

    def spy_local_update(global_params, masks, train, shards, config, rngs, take):
        rows, correct = trained_rows(global_params, masks, train, shards, config, rngs, take)
        trained.append((np.stack(masks), rows))
        waited.append(chunk_order_is_not_slot_order(shards))
        return correct

    def spy_aggregate(previous_global, local_sum, counts):
        bits, rows = trained[-1]
        assert np.array_equal(counts, bits.sum(axis=0))
        assert counts.min() == codename_coverage(config.codename)[1]  # gamma_min
        assert (np.stack(rows)[bits == 0].view(np.int64) == 0).all()
        assert np.array_equal(local_sum.view(np.int64), slot_sum(rows).view(np.int64))
        got = aggregate(previous_global, local_sum, counts)
        want = brute_force_aggregate(previous_global.values, rows, bits)
        assert np.array_equal(got.values.view(np.int64), want.view(np.int64))
        aggregated.append(bits)
        return got

    monkeypatch.setattr(fedprune.federation, "local_update", spy_local_update)
    monkeypatch.setattr(fedprune.federation, "aggregate", spy_aggregate)
    config = desk_config(**overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the uncovered codename warns once
        run(config, build_federated_data(config))
    assert len(aggregated) == config.rounds
    assert any(waited) == ("num_clients" in overrides)  # rows waited their turn
    uncovered = any((bits.sum(axis=0) == 0).any() for bits in aggregated)
    assert uncovered == ("codename" in overrides)
    if config.freeze_after_round is not None:  # rounds 2 and 3 train under round 2's masks
        assert np.array_equal(aggregated[1], aggregated[2])


def test_round_names_the_slot_and_client_of_a_non_finite_local_model(use_lanes):
    config = desk_config(learning_rate=1e12, rounds=1)
    data = build_federated_data(config)
    layout = model_layout(config, data)
    state = init_state(config, layout)
    participants = sample_participants(state, config)
    masks = codename_masks(config.codename, config.family, state.params)
    shards = [data.shards[client] for client in participants]
    for lanes in (1, 2):
        use_lanes(lanes)
        with np.errstate(all="ignore"):
            local, _ = trained_rows(
                state.params, masks, data.train, shards, config,
                [local_rng(config.seed, 1, k) for k in range(len(participants))],
            )
            finite = np.isfinite(local).all(axis=1)
            assert not finite.all() and finite.any()
            k = int(np.flatnonzero(~finite)[0])
            message = (
                f"round 1: non-finite local model after local training in slot {k} "
                f"(client {participants[k]})"
            )
            with pytest.raises(FloatingPointError, match=re.escape(message)):
                run_round(state, config, data, codename_facts(config, layout))

    # shards of 16 and 17 rows: slot 0's length group trains first, so a later
    # slot of that group commits before an earlier slot of the other group
    config = desk_config(num_clients=30, participation_ratio=0.34, rounds=1)
    data = build_federated_data(config)
    participants = sample_participants(state, config)
    lengths = [len(data.shards[client]) for client in participants]
    late = next(k for k, n in enumerate(lengths) if n != lengths[0])  # in a later chunk
    early = next(k for k in range(late + 1, len(lengths)) if lengths[k] == lengths[0])
    inputs = data.train.inputs.copy()
    for k in (late, early):  # both train to non-finite models; `early`'s chunk commits first
        inputs[data.shards[participants[k]]] = 1e300
    poisoned = replace(data, train=Dataset(inputs, data.train.labels, data.train.num_classes))
    message = (
        f"round 1: non-finite local model after local training in slot {late} "
        f"(client {participants[late]})"
    )
    for lanes in (1, 2):
        use_lanes(lanes)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=re.escape(message)):
            run_round(state, config, poisoned, codename_facts(config, layout))


def test_round_names_an_aggregate_that_overflows(monkeypatch):
    # every local model is finite, but the sum of ten rows of 1.5e308 is not
    def huge_rows(global_params, masks, train, shards, config, rngs, take):
        for k in range(len(masks)):
            take(k, np.full(global_params.layout.total, 1.5e308))
        return np.zeros(len(masks), dtype=np.int64)

    config = desk_config(rounds=1)
    data = build_federated_data(config)
    layout = model_layout(config, data)
    state = init_state(config, layout)
    monkeypatch.setattr(fedprune.federation, "local_update", huge_rows)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=re.escape(
            "round 1: non-finite global parameters after aggregation")):
        run_round(state, config, data, codename_facts(config, layout))


@pytest.mark.parametrize(
    ("family", "codename", "freeze"),
    [("WP", "1111223344", None), ("NP", "1111223344", None), ("FS", "2233445677", None),
     ("WP", "1111556677", 2), ("NP", "2233445677", 2)],
)
def test_engine_ranks_once_per_round_and_uses_generate_mask_masks(
    monkeypatch, family, codename, freeze
):
    config = desk_config(family=family, codename=codename, freeze_after_round=freeze)
    data = build_federated_data(config)
    layout = model_layout(config, data)

    rank_calls, used, training_calls = [], [], []
    segment_index_sets = fedprune.pruning.segment_index_sets
    local_update_ = fedprune.federation.local_update

    def counted_ranking(*args):
        rank_calls.append(args)
        return segment_index_sets(*args)

    def recorded_local_update(params, masks, *rest):
        training_calls.append(params)
        used.extend(masks)
        return local_update_(params, masks, *rest)

    monkeypatch.setattr(fedprune.pruning, "segment_index_sets", counted_ranking)
    monkeypatch.setattr(fedprune.federation, "local_update", recorded_local_update)

    state, facts = init_state(config, layout), codename_facts(config, layout)
    frozen = {}  # the oracle's, slot -> mask
    for q in range(1, 5):
        theta = state.params.values.copy()
        rank_calls.clear()
        used.clear()
        training_calls.clear()
        new_state, _ = run_round(state, config, data, facts)
        assert len(training_calls) == 1 and training_calls[0] is state.params, f"round {q}"
        assert len(rank_calls) == (0 if freeze is not None and q > freeze else 1), f"round {q}"
        assert np.array_equal(state.params.values.view(np.int64), theta.view(np.int64))
        want, frozen = reference_masks(codename, family, freeze, state.params, q, frozen)
        assert len(used) == len(want)
        for k, mask in enumerate(want):
            assert np.array_equal(used[k], mask), f"round {q}, slot {k}"
        # the state freezes the ranking; the masks rebuilt from it are the oracle's frozen masks
        ranking = new_state.frozen_ranking
        assert len(frozen) == (0 if ranking is None else len(codename)), f"round {q}"
        if ranking is not None:
            rebuilt = round_masks(codename, family, layout, ranking)
            for k, mask in frozen.items():
                assert np.array_equal(rebuilt[codename[k]], mask), f"round {q}, slot {k}"
        state = new_state


def test_run_works_out_the_codename_facts_once_whatever_the_rounds(monkeypatch):
    # every fedprune binding of the three names is counted, with whether the
    # call came from inside a round
    config = desk_config(freeze_after_round=2)
    data = build_federated_data(config)
    calls, in_round = [], []
    run_round_ = fedprune.federation.run_round

    def tracked_run_round(*args):
        in_round.append(True)
        try:
            return run_round_(*args)
        finally:
            in_round.pop()

    def counted(where, name, fn):
        def wrapper(*args, **kwargs):
            calls.append((where, name, bool(in_round)))
            return fn(*args, **kwargs)
        return wrapper

    originals = {"computed_row": fedprune.tables.computed_row,
                 "codename_coverage": fedprune.pruning.codename_coverage,
                 "account": fedprune.metrics.account}
    for name, original in originals.items():
        for where, module in list(sys.modules.items()):
            if where.split(".")[0] == "fedprune" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(where, name, original))
    monkeypatch.setattr(fedprune.federation, "run_round", tracked_run_round)

    per_rounds = {}
    for rounds in (1, 2, 4):
        calls.clear()
        history, _ = run(replace(config, rounds=rounds), data)
        assert len(history) == rounds
        per_rounds[rounds] = list(calls)
    assert per_rounds[1] == per_rounds[2] == per_rounds[4]
    assert not any(inside for _, _, inside in calls)  # no account, no computed_row in a round
    engine = [name for where, name, _ in calls if where == "fedprune.federation"]
    assert sorted(engine) == ["codename_coverage", "computed_row"]
    # computed_row accounts once per distinct digit of 1111223344, outside the rounds
    assert [name for where, name, _ in calls if where == "fedprune.tables"].count("account") == 4


def test_round_reads_the_test_set_once_and_backprops_only_in_local_training(
    monkeypatch, use_lanes
):
    use_lanes(2)  # lockstep chunks and test-set chunks run on two lanes
    config = desk_config()
    data = build_federated_data(config)
    expected_history, expected_params = run(config, data)

    evals, grad_calls = [], []
    in_local_training = []
    local_update_ = fedprune.federation.local_update
    evaluate_ = fedprune.nn.evaluate

    def recorded_evaluate(params, dataset, *args, **kwargs):
        evals.append(dataset)
        return evaluate_(params, dataset, *args, **kwargs)

    def tracked_local_update(*args):
        in_local_training.append(True)
        try:
            return local_update_(*args)
        finally:
            in_local_training.pop()

    def counted(loss_and_grad_):
        def wrapper(*args, **kwargs):
            grad_calls.append(bool(in_local_training))
            return loss_and_grad_(*args, **kwargs)
        return wrapper

    # every name a fedprune module binds to evaluate, so no per-slot pass goes uncounted
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fedprune" and getattr(module, "evaluate", None) is evaluate_:
            monkeypatch.setattr(module, "evaluate", recorded_evaluate)
    monkeypatch.setattr(fedprune.federation, "local_update", tracked_local_update)
    monkeypatch.setattr(fedprune.federation, "loss_and_grad", counted(fedprune.federation.loss_and_grad))
    monkeypatch.setattr(fedprune.nn, "loss_and_grad", counted(fedprune.nn.loss_and_grad))

    history, params = run(config, data)
    assert len(evals) == config.rounds  # one test-set pass per round, no per-slot pass
    assert all(dataset is data.test for dataset in evals)
    assert grad_calls and all(grad_calls)
    assert history == expected_history
    assert np.array_equal(params.values.view(np.int64), expected_params.values.view(np.int64))


# Label-skew rounds with 23- and 24-example shards and test_batch 16, so every
# slot's shard spans two slices of the accuracy count. The blobs overlap
# (spread 1.5), so the slots' accuracies differ and their sum depends on its order.
LOCAL_ACCURACY_CONFIGS = {
    "WP": dict(family="WP", hidden_layers=(32,)),
    "NP-hidden-24": dict(family="NP", hidden_layers=(24,)),
}


@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(LOCAL_ACCURACY_CONFIGS))
def test_local_accuracy_equals_a_per_slot_evaluate_sum_bitwise(use_lanes, monkeypatch, case, lanes):
    config = desk_config(
        partition="label-skew", test_batch=16, local_epochs=2,
        dataset=SynthSpec(10, 47, 20, 1.5, 20), **LOCAL_ACCURACY_CONFIGS[case],
    )
    data = build_federated_data(config)
    layout = model_layout(config, data)
    trained, slice_rows = [], []
    forward_ = fedprune.federation.forward

    def recorded_local_update(params, masks, train, shards, *rest):
        rows, correct = trained_rows(params, masks, train, shards, *rest)
        trained.append((rows, [train.subset(shard) for shard in shards], correct))
        return correct

    def recorded_forward(params, inputs):
        slice_rows.append(inputs.shape[-2])
        return forward_(params, inputs)

    monkeypatch.setattr(fedprune.federation, "local_update", recorded_local_update)
    monkeypatch.setattr(fedprune.federation, "forward", recorded_forward)
    use_lanes(lanes)
    n_slots = config.slots_per_round
    for g in range(1, n_slots + 1):
        monkeypatch.setattr(fedprune.federation, "_LOCKSTEP_BYTES", 8 * layout.total * g)
        trained.clear()
        slice_rows.clear()
        history, _ = run(config, data)
        assert max(slice_rows) == config.test_batch, f"g = {g}"  # slices, not whole shards
        assert len(trained) == len(history) == config.rounds
        for record, (rows, shards, correct) in zip(history, trained):
            lengths = [len(shard) for shard in shards]
            assert min(lengths) > config.test_batch and len(set(lengths)) > 1
            want = 0.0  # one slot after another, in slot order
            for k, (row, shard) in enumerate(zip(rows, shards)):
                acc = evaluate(ParamVector(row, layout), shard, batch_size=config.test_batch)[1]
                assert correct[k] / len(shard) == acc, f"g = {g}, round {record.round}, slot {k}"
                want += (1.0 / n_slots) * acc
            got = np.float64(record.acc_local)
            assert got.view(np.int64) == np.float64(want).view(np.int64), f"g = {g}, round {record.round}"


def test_pretrained_freeze_in_engine():
    config = desk_config(freeze_after_round=2, rounds=4)
    data = build_federated_data(config)
    layout = model_layout(config, data)
    state, facts = init_state(config, layout), codename_facts(config, layout)
    states = [state]
    metrics = []
    for _ in range(4):
        state, record = run_round(state, config, data, facts)
        states.append(state)
        metrics.append(record)
    # round 2 freezes the ranking of the model it started from, and later rounds keep it
    assert states[0].frozen_ranking is None and states[1].frozen_ranking is None
    ranking = states[2].frozen_ranking  # one uint8 segment label per unit
    want = segment_index_sets(states[1].params, config.family)
    assert isinstance(ranking, np.ndarray) and ranking.dtype == np.uint8
    assert len(ranking) == layout.offsets[0].weight_len and np.array_equal(ranking, want)
    assert states[3].frozen_ranking is ranking and states[4].frozen_ranking is ranking
    frozen_masks = round_masks(config.codename, config.family, layout, ranking)
    assert list(frozen_masks) == ["1", "2", "3", "4"]

    # rounds 3 and 4 must reuse the round-2 masks even though theta moved
    for q in (3, 4):
        theta_before = states[q - 1].params
        adaptive_masks = codename_masks(config.codename, config.family, theta_before)  # no freeze
        frozen = [frozen_masks[d] for d in config.codename]
        expected = np.mean(pruning_noise(theta_before, frozen))
        assert metrics[q - 1].delta_sq_mean == pytest.approx(expected, abs=1e-15)
        if any(not np.array_equal(a, f) for a, f in zip(adaptive_masks, frozen)):
            assert metrics[q - 1].delta_sq_mean != pytest.approx(
                np.mean(pruning_noise(theta_before, adaptive_masks)), abs=1e-18
            )
    adaptive_masks = round_masks(config.codename, config.family, layout,
                                 segment_index_sets(states[3].params, config.family))
    assert any(
        not np.array_equal(adaptive, frozen_masks[d])
        for d, adaptive in adaptive_masks.items()
        if d != "1"
    )


def test_uncovered_quartile_warns_and_optionally_errors():
    config = desk_config(codename="4444444444", family="FS", rounds=1)
    data = build_federated_data(config)
    with pytest.warns(UserWarning, match="gamma_min = 0"):
        history, _ = run(config, data)
    assert [record.gamma_min for record in history] == [0]

    strict = desk_config(
        codename="4444444444", family="FS", rounds=1, uncovered_region_action="error"
    )
    with pytest.raises(CoverageError):
        run(strict, data)


def test_coverage_failure_names_the_uncovered_count_layer_and_segments():
    # FS keeps hidden neurons in natural order; digit 4 drops S4, the last 8 of
    # 32, each with 20 incoming weights, a bias and 10 outgoing weights
    expected = re.escape(
        "some parameters are covered by no participant (gamma_min = 0): "
        f"{8 * (20 + 1 + 10)} parameters are never trained; quartile segments of the FS "
        "units (hidden neurons) that no slot of codename 4444444444 keeps: S4"
    )
    config = desk_config(codename="4444444444", family="FS", rounds=1)
    data = build_federated_data(config)
    assert model_layout(config, data).layer_sizes == (20, 32, 10)
    with pytest.warns(UserWarning, match=expected):
        run(config, data)
    strict = desk_config(
        codename="4444444444", family="FS", rounds=1, uncovered_region_action="error"
    )
    with pytest.raises(CoverageError, match=expected):
        run(strict, data)


def test_wp_coverage_failure_counts_first_layer_weights():
    # 20 * 32 first-layer weights; no digit of 5555566666 keeps S4, their last quarter
    config = desk_config(codename="5555566666", uncovered_region_action="error")
    with pytest.raises(CoverageError, match=re.escape(
        "160 parameters are never trained; quartile segments of the WP units "
        "(first-layer weights) that no slot of codename 5555566666 keeps: S4"
    )):
        codename_facts(config, LayerLayout((20, 32, 10)))


@pytest.mark.parametrize("rounds", [1, 3])
def test_error_mode_raises_before_any_training(monkeypatch, rounds):
    def no_training(*args):
        raise AssertionError("local training ran in a run whose coverage fails")

    monkeypatch.setattr(fedprune.federation, "local_update", no_training)
    config = desk_config(
        codename="4444444444", family="FS", rounds=rounds, uncovered_region_action="error"
    )
    with pytest.raises(CoverageError, match="gamma_min = 0"):
        run(config, build_federated_data(config))


def test_warn_mode_warns_once_per_run():
    config = desk_config(codename="4444444444", family="FS", rounds=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        history, _ = run(config, build_federated_data(config))
    assert [record.gamma_min for record in history] == [0, 0, 0]
    assert sum("gamma_min = 0" in str(w.message) for w in caught) == 1


def test_uncovered_region_parameters_never_move():
    import warnings as warnings_module

    config = desk_config(codename="4444444444", family="FS", rounds=4)
    data = build_federated_data(config)
    layout = model_layout(config, data)
    state = init_state(config, layout)
    theta0 = state.params.values.copy()
    with warnings_module.catch_warnings():
        warnings_module.simplefilter("ignore")
        history, final = run(config, data)
    # S4 under FS = last quarter of hidden neurons, fixed across rounds
    blocks = reference_neuron_blocks(layout)
    s4 = np.concatenate(blocks[3 * len(blocks) // 4 :])
    assert all(r.gamma_min == 0 for r in history)
    assert np.array_equal(final.values[s4], theta0[s4])
    moved = np.setdiff1d(np.arange(layout.total), s4)
    assert not np.array_equal(final.values[moved], theta0[moved])


def test_a_run_has_at_least_one_round():
    for rounds in (0, -1):
        with pytest.raises(ValueError, match=re.escape(f"rounds must be >= 1, got {rounds}")):
            desk_config(rounds=rounds)


def test_run_is_bitwise_deterministic():
    config = desk_config(rounds=3)
    a_history, a_final = run(config, build_federated_data(config))
    b_history, b_final = run(config, build_federated_data(config))
    assert np.array_equal(a_final.values, b_final.values)
    for ra, rb in zip(a_history, b_history):
        assert ra == rb


def test_full_model_run_converges_on_blobs():
    config = desk_config(
        codename="1" * 10, rounds=30, dataset=SynthSpec(10, 100, 20, 0.3, 50)
    )
    history, _ = run(config, build_federated_data(config))
    assert history[-1].acc_global > 0.95
    assert history[-1].grad_norm_sq * 10 <= history[0].grad_norm_sq


def test_static_slot_binding():
    config = desk_config(
        codename="1111223344", num_clients=10, participation_ratio=1.0,
        static_slots=True, dataset=SynthSpec(10, 30, 20, 0.3, 10),
    )
    data = build_federated_data(config)
    state = init_state(config, model_layout(config, data))
    assert sample_participants(state, config) == list(range(10))
    with pytest.raises(ValueError):
        desk_config(static_slots=True)  # 20 clients vs 10 slots


def test_round_metrics_are_populated():
    config = desk_config(rounds=1)
    history, _ = run(config, build_federated_data(config))
    record = history[0]
    assert record.round == 1
    assert record.gamma_min == 8
    assert 0.0 < record.delta_sq_mean < 1.0
    # desk layout (20,32,10): 1002 params, WP 75% keeps 842; mix = 4 full + 6 pruned
    assert record.params_amortized == (4 * 1002 + 6 * 842) / 10
    assert 0.0 <= record.acc_global <= 1.0
    assert 0.0 <= record.acc_local <= 1.0


def test_neuron_pruning_family_end_to_end():
    config = desk_config(family="NP", rounds=2)
    history, final = run(config, build_federated_data(config))
    assert history[-1].gamma_min == 8
    # desk layout: each hidden neuron owns 20 + 1 + 10 = 31 params; 75% drops 8 neurons
    assert history[-1].params_amortized == (4 * 1002 + 6 * (1002 - 8 * 31)) / 10
    assert np.isfinite(final.values).all()
