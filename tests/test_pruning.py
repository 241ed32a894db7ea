import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_impl import coverage_counts, reference_masks, reference_segments

from fedprune.federation import (
    FederationConfig,
    SynthSpec,
    build_federated_data,
    codename_facts,
    init_state,
    model_layout,
    run_round,
)
from fedprune.nn import LayerLayout, ParamVector, init_params
from fedprune.pruning import apply_mask, pruning_noise, round_masks, segment_fill, segment_index_sets
from fedprune.spec import DIGIT_SEGMENTS, FAMILIES, codename_coverage, parse_codename, segment_sizes

MNIST_LAYOUT = LayerLayout((784, 200, 10))


def flat_params(values):
    values = np.asarray(values, dtype=float)
    return ParamVector(values, LayerLayout((len(values) - 1, 1)))


def one_mask(family, kept, params):
    """The mask that keeps the segments `kept` of the ranking of `params`: the writer's 0/1 case."""
    layout = params.layout
    return segment_fill(layout, family, segment_index_sets(params, family),
                        [int(s in kept) for s in (1, 2, 3, 4)], np.ones(layout.total, np.uint8))


def unit_ids(layout, family, segment):
    """The units of a `reference_segments` segment, ascending: a WP unit owns its W1 entry, a
    neuron its b1 entry."""
    w1 = layout.offsets[0]
    own = np.arange(layout.total)[w1.weights if family == "WP" else w1.biases]
    return np.flatnonzero(np.isin(own, segment)).tolist()


def ranking(params, family):
    """The units of S1, then S2, S3 and S4, each segment in ascending unit order."""
    return np.argsort(segment_index_sets(params, family), kind="stable").tolist()


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def test_wp_ranking_sorts_by_magnitude():
    params = flat_params([0.1, 0.9, 0.5, 0.7, 5.0])  # the bias is no unit
    assert ranking(params, "WP") == [1, 3, 2, 0]


def test_wp_ranking_breaks_ties_by_index():
    params = flat_params([-0.5, 0.5, 0.5, 0.1, 0.0])
    assert ranking(params, "WP") == [0, 1, 2, 3]


def test_fs_ranking_is_identity_over_neurons():
    layout = LayerLayout((2, 4, 1))
    params = ParamVector(np.random.default_rng(0).normal(size=layout.total), layout)
    assert segment_index_sets(params, "FS").tolist() == [0, 1, 2, 3]  # neuron j in S(j+1)


def test_np_ranking_prefers_heavier_neuron():
    # [2,4,1] net; incoming L1 norms per neuron: 2, 6, 0, 4
    layout = LayerLayout((2, 4, 1))
    values = np.zeros(layout.total)
    values[0:4] = [1.0, 3.0, 0.0, 2.0]    # W1 row 0
    values[4:8] = [1.0, -3.0, 0.0, -2.0]  # W1 row 1
    params = ParamVector(values, layout)
    assert ranking(params, "NP") == [1, 3, 0, 2]
    # S1 is neuron 1: its W1 column, its bias and its W2 row survive, and b2
    assert np.flatnonzero(one_mask("NP", {1}, params)).tolist() == [1, 5, 9, 13, 16]


def test_np_rejects_layout_without_hidden_layer():
    layout = LayerLayout((4, 2))
    params = ParamVector(np.zeros(layout.total), layout)
    for family in ("NP", "FS"):
        with pytest.raises(ValueError, match="exactly one hidden layer"):
            segment_index_sets(params, family)


def test_neuron_pruning_needs_four_neurons():
    layout = LayerLayout((4, 3, 2))
    params = ParamVector(np.ones(layout.total), layout)
    with pytest.raises(ValueError, match="at least 4 neurons"):
        one_mask("NP", {1}, params)
    with pytest.raises(ValueError, match="at least 4 entries"):
        one_mask("WP", {1}, flat_params([1.0, 2.0, 3.0, 0.0]))


def test_neuron_block_contents():
    layout = LayerLayout((2, 4, 1))
    params = init_params(layout, 0)
    # flat order: W1 (2x4), b1 (4), W2 (4x1), b2 (1); digit 2 drops S2 = neuron 1
    mask = one_mask("FS", DIGIT_SEGMENTS["2"], params)
    assert np.flatnonzero(mask == 0).tolist() == [1, 5, 9, 13]


def test_neuron_block_size_mnist():
    params = init_params(MNIST_LAYOUT, 0)
    mask = one_mask("FS", {1, 2, 3}, params)
    (w1, b1), (w2, b2) = MNIST_LAYOUT.unpack(1 - mask.astype(np.int64))
    pruned = w1.sum(axis=0) + b1 + w2.sum(axis=1)
    assert pruned.tolist() == [0] * 150 + [795] * 50
    assert not b2.any()


# ---------------------------------------------------------------------------
# quartiles
# ---------------------------------------------------------------------------


def test_quartiles_even_split():
    assert segment_sizes(8) == [2, 2, 2, 2]
    layout = LayerLayout((2, 8, 1))
    # FS splits the natural order: S1 holds neurons 0 and 1
    assert segment_index_sets(init_params(layout, 0), "FS").tolist() == [0, 0, 1, 1, 2, 2, 3, 3]


def test_quartiles_ceil_first_remainder():
    assert segment_sizes(6) == [2, 2, 1, 1]


def test_quartiles_reject_short_ranking():
    with pytest.raises(ValueError):
        segment_sizes(3)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 200), seed=st.integers(0, 2**31))
def test_quartiles_partition_property(n, seed):
    ranking = np.random.default_rng(seed).permutation(n)
    sizes = segment_sizes(n)
    assert sizes == [len(s) for s in np.array_split(ranking, 4)]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True)


# ---------------------------------------------------------------------------
# round_masks / apply_mask
# ---------------------------------------------------------------------------


def test_full_policy_gives_all_ones_for_every_family():
    for family in ("WP", "NP", "FS"):
        layout = LayerLayout((6, 8, 3))
        params = init_params(layout, 1)
        mask = one_mask(family, {1, 2, 3, 4}, params)
        assert mask.all()


def test_wp_75_percent_counts_on_mnist_mlp():
    params = init_params(MNIST_LAYOUT, 0)
    mask = one_mask("WP", {1, 2, 3}, params)
    assert int(mask[MNIST_LAYOUT.offsets[0].weights].sum()) == 117600
    assert int(mask.sum()) == 119810


def test_np_75_percent_counts_on_mnist_mlp():
    params = init_params(MNIST_LAYOUT, 0)
    mask = one_mask("NP", {1, 2, 3}, params)
    assert int(mask.sum()) == 159010 - 50 * 795 == 119260


def test_mask_keeps_non_maskable_indices():
    layout = LayerLayout((4, 4, 2))
    params = init_params(layout, 3)
    mask = one_mask("WP", {1}, params)
    assert mask[layout.offsets[0].weight_len :].all()
    assert int(mask[layout.offsets[0].weights].sum()) == 4


def test_pretrained_freeze_reuses_round3_mask():
    config = FederationConfig(
        "15", dataset=SynthSpec(3, 8, 6, 0.3, 4), num_clients=2, participation_ratio=1.0,
        rounds=7, local_epochs=3, learning_rate=0.5, hidden_layers=(8,), freeze_after_round=3,
    )
    data = build_federated_data(config)
    layout = model_layout(config, data)
    state, facts = init_state(config, layout), codename_facts(config, layout)
    history = []
    for round_no in range(1, 8):
        adaptive = round_masks(config.codename, config.family, layout,
                               segment_index_sets(state.params, config.family))
        if round_no == 3:
            round3 = adaptive  # the masks round 3 trains under, ranked from its model
        state, _ = run_round(state, config, data, facts)
        assert (state.frozen_ranking is not None) == (round_no >= 3)
        history.append(state.frozen_ranking)
    ranking = history[2]
    assert all(later is ranking for later in history[3:])
    # the masks rebuilt from the frozen ranking are round 3's
    frozen = round_masks(config.codename, config.family, layout, ranking)
    assert list(frozen) == ["1", "5"]
    for d in frozen:
        assert np.array_equal(frozen[d], round3[d])
    # the model drifted: masks ranked afresh would differ from the frozen ones
    assert not np.array_equal(adaptive["5"], frozen["5"])


def test_adaptive_mask_tracks_parameters():
    layout = LayerLayout((4, 8, 2))
    a = ParamVector(np.arange(layout.total, dtype=float), layout)
    b = ParamVector(np.arange(layout.total, dtype=float)[::-1].copy(), layout)
    assert not np.array_equal(one_mask("WP", {1}, a), one_mask("WP", {1}, b))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    family=st.sampled_from(FAMILIES),
    two_hidden=st.booleans(),
    freeze=st.sampled_from([None, 2]),
    first_round=st.integers(1, 3),
)
def test_round_masks_match_the_index_set_oracle(seed, family, two_hidden, freeze, first_round):
    # tied weights (five values) exercise the stable tie-break of both rankings;
    # two hidden layers are defined under WP only; a first round after the
    # freeze round has no frozen mask to reuse yet
    rng = np.random.default_rng(seed)
    hidden = rng.integers(4, 13, size=2 if two_hidden and family == "WP" else 1)
    layout = LayerLayout((int(rng.integers(1, 9)), *map(int, hidden), int(rng.integers(1, 6))))
    digits = list("1234567") + list(rng.choice(list("1234567"), size=int(rng.integers(0, 4))))
    codename = "".join(rng.permutation(digits))
    frozen_got, frozen_want = None, {}
    for round_no in range(first_round, first_round + 4):
        values = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=layout.total)
        params = ParamVector(values, layout)
        # the freeze rule of run_round: the ranking in use from round F on is kept
        units = segment_index_sets(params, family) if frozen_got is None else frozen_got
        frozen_got = units if freeze is not None and round_no >= freeze else None
        masks = round_masks(codename, family, layout, units)
        want, frozen_want = reference_masks(codename, family, freeze, params, round_no, frozen_want)
        got = [masks[d] for d in codename]
        assert len(got) == len(want) == len(codename)
        for k, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), f"round {round_no}, slot {k}"
        assert len(frozen_want) == (0 if frozen_got is None else len(codename))
        rebuilt = {} if frozen_got is None else round_masks(codename, family, layout, frozen_got)
        for k, w in frozen_want.items():
            assert np.array_equal(rebuilt[codename[k]], w), f"round {round_no}, slot {k}"


@settings(max_examples=100, deadline=None)
@given(
    quarters=st.integers(1, 12),
    remainder=st.sampled_from([0, 1, 2, 3]),
    family=st.sampled_from(FAMILIES),
    data=st.data(),
)
def test_selection_ranking_equals_the_stable_argsort_oracle(quarters, remainder, family, data):
    # few distinct magnitudes, both signed zeros: most units tie with others,
    # also at the segment boundaries; every n % 4 gives other segment sizes
    units = 4 * quarters + remainder
    layout = LayerLayout((units, 1, 2) if family == "WP" else (3, units, 2))
    values = data.draw(st.lists(
        st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
        min_size=layout.total, max_size=layout.total,
    ))
    params = ParamVector(np.array(values), layout)
    want, _ = reference_segments(params, family)
    got = segment_index_sets(params, family)
    assert got.dtype == np.uint8 and len(got) == units
    assert np.bincount(got, minlength=4).tolist() == segment_sizes(units)
    for s, w in enumerate(want):
        assert np.flatnonzero(got == s).tolist() == unit_ids(layout, family, w), f"S{s + 1}"
    masks = round_masks("1234567", family, layout, got)
    want, _ = reference_masks("1234567", family, None, params, 1, {})
    for k, (d, w) in enumerate(zip("1234567", want)):
        assert np.array_equal(masks[d], w), f"slot {k}"


def test_slots_with_one_policy_share_one_mask_and_its_measures():
    params = init_params(MNIST_LAYOUT, 0)
    codename = "1111223344"
    for family in FAMILIES:
        masks = round_masks(codename, family, MNIST_LAYOUT, segment_index_sets(params, family))
        assert list(masks) == ["1", "2", "3", "4"]  # one mask per distinct digit, first use first
        want = np.stack([masks[d] for d in codename]).sum(axis=0, dtype=np.int64)
        got = coverage_counts(list(masks.values()), [codename.count(d) for d in masks])
        assert np.array_equal(got, want)
        segments, _ = codename_coverage(codename)
        written = segment_fill(MNIST_LAYOUT, family, segment_index_sets(params, family),
                               list(segments.values()), np.full(MNIST_LAYOUT.total, len(codename)))
        assert np.array_equal(written, want)


def test_apply_mask_identity_and_zeroing():
    params = flat_params([4.0, 3.0, 2.0, 1.0])
    assert np.array_equal(apply_mask(params, np.ones(4, np.uint8)), params.values)
    masked = apply_mask(params, np.array([1, 1, 0, 0], dtype=np.uint8))
    assert masked.tolist() == [4.0, 3.0, 0.0, 0.0]


def test_apply_mask_writes_positive_zero_where_negative_values_are_pruned():
    params = flat_params([-4.0, -3.0, 2.0, -1.0])
    out = np.full(4, np.nan)
    masked = apply_mask(params, np.array([0, 1, 0, 0], dtype=np.uint8), out=out)
    assert masked is out
    assert out.tolist() == [0.0, -3.0, 0.0, 0.0]
    assert not np.signbit(out[[0, 2, 3]]).any()  # +0.0, not the -0.0 of -4.0 * 0


def test_apply_mask_rejects_length_mismatch():
    with pytest.raises(ValueError):
        apply_mask(flat_params([1.0, 2.0]), np.ones(3, np.uint8))
    # a 2-D mask of the right length would broadcast to a (total, total) product
    with pytest.raises(ValueError, match="mask length does not match parameter vector"):
        apply_mask(flat_params([1.0, 2.0, 3.0]), np.ones((3, 1), np.uint8))


def test_round_masks_are_read_only():
    params = init_params(LayerLayout((6, 8, 3)), 2)
    for family in FAMILIES:
        masks = round_masks("1234567", family, params.layout, segment_index_sets(params, family))
        for d, bits in masks.items():
            assert bits.dtype == np.uint8 and bits.shape == (params.layout.total,)
            with pytest.raises(ValueError, match="read-only"):
                bits[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                np.multiply(bits, 0, out=bits)


# ---------------------------------------------------------------------------
# pruning noise
# ---------------------------------------------------------------------------


def test_noise_zero_for_full_mask():
    params = flat_params([1.0, -2.0, 3.0])
    assert pruning_noise(params, [np.ones(3, np.uint8)])[0] == 0.0


def test_noise_arithmetic_top_two():
    params = flat_params([4.0, 3.0, 2.0, 1.0])
    mask = np.array([1, 1, 0, 0], dtype=np.uint8)
    assert pruning_noise(params, [mask])[0] == pytest.approx(5.0 / 30.0, abs=1e-15)


def test_noise_zero_norm_warns():
    params = flat_params([0.0, 0.0, 0.0])
    with pytest.warns(UserWarning):
        assert pruning_noise(params, [np.array([1, 0, 0], dtype=np.uint8)])[0] == 0.0
    with pytest.warns(UserWarning):
        assert pruning_noise(params, [np.ones(3, np.uint8), np.array([1, 0, 0], np.uint8)]) == (0.0, 0.0)


def test_noise_one_value_per_mask_in_order():
    params = flat_params([4.0, 3.0, 2.0, 1.0])
    rows = ([1, 1, 0, 0], [1, 1, 1, 1], [0, 0, 0, 1], [0, 1, 1, 0])
    masks = [np.array(r, dtype=np.uint8) for r in rows]
    noise = pruning_noise(params, masks)
    assert isinstance(noise, tuple)
    assert noise == (5.0 / 30.0, 0.0, 29.0 / 30.0, 17.0 / 30.0)
    assert noise == tuple(pruning_noise(params, [m])[0] for m in masks)
    assert pruning_noise(params, []) == ()


def test_noise_rejects_wrong_length_mask():
    params = flat_params([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pruning_noise(params, [np.ones(3, np.uint8), np.ones(4, np.uint8)])
    with pytest.raises(ValueError, match="mask length does not match parameter vector"):
        pruning_noise(params, [np.ones(3, np.uint8), np.ones((3, 1), np.uint8)])


def test_wp_mask_minimizes_noise_exhaustively():
    rng = np.random.default_rng(17)
    layout = LayerLayout((4, 4, 2))  # 16 first-layer weights, at indices 0..15
    params = ParamVector(rng.normal(0, 1, layout.total), layout)
    for kept_segments, kept_count in ((frozenset({1}), 4), (frozenset({1, 2}), 8)):
        wp_noise = pruning_noise(params, [one_mask("WP", kept_segments, params)])[0]
        for keep in itertools.combinations(range(16), kept_count):
            bits = np.ones(layout.total, dtype=np.uint8)
            bits[:16] = 0
            bits[list(keep)] = 1
            assert wp_noise <= pruning_noise(params, [bits])[0] + 1e-15


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_noise_monotone_under_segment_inclusion(seed):
    rng = np.random.default_rng(seed)
    layout = LayerLayout((5, 8, 3))
    params = ParamVector(rng.normal(0, 1, layout.total), layout)
    family = ("WP", "NP", "FS")[int(rng.integers(3))]
    segments = sorted(rng.choice(4, size=int(rng.integers(2, 5)), replace=False) + 1)
    smaller = frozenset(int(s) for s in segments[:-1]) or frozenset({int(segments[0])})
    larger = frozenset(int(s) for s in segments)
    noise_small = pruning_noise(params, [one_mask(family, smaller, params)])[0]
    noise_large = pruning_noise(params, [one_mask(family, larger, params)])[0]
    assert noise_large <= noise_small + 1e-15


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_segment_partition_and_sparsity_accounting(seed):
    rng = np.random.default_rng(seed)
    layout = LayerLayout((5, 8, 3))
    params = ParamVector(rng.normal(0, 1, layout.total), layout)
    family = ("WP", "NP", "FS")[int(rng.integers(3))]
    labels = segment_index_sets(params, family)
    units = 5 * 8 if family == "WP" else 8
    assert len(labels) == units and labels.max() <= 3  # every unit lies in one of S1..S4
    kept = frozenset(int(s) for s in rng.choice(4, size=int(rng.integers(1, 5)), replace=False) + 1)
    mask = one_mask(family, kept, params)
    kept_units = sum(int((labels == s - 1).sum()) for s in kept)
    # a WP unit is one parameter; an NP/FS unit is 5 incoming + 1 bias + 3 outgoing
    per_unit = 1 if family == "WP" else 5 + 1 + 3
    assert int((mask == 0).sum()) == (units - kept_units) * per_unit
    assert pruning_noise(params, [mask])[0] < 1.0  # delta^2 in [0, 1) for generated masks


# ---------------------------------------------------------------------------
# codenames
# ---------------------------------------------------------------------------


def test_parse_codename_all_full():
    kept = parse_codename("1111111111")
    assert isinstance(kept, tuple) and len(kept) == 10
    assert all(k == frozenset({1, 2, 3, 4}) for k in kept)


def test_parse_codename_mixed():
    kept = list(parse_codename("1111223344"))
    assert kept[:4] == [frozenset({1, 2, 3, 4})] * 4
    assert kept[4:6] == [frozenset({1, 3, 4})] * 2
    assert kept[6:8] == [frozenset({1, 2, 4})] * 2
    assert kept[8:] == [frozenset({1, 2, 3})] * 2


def test_parse_codename_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_codename("")
    with pytest.raises(ValueError):
        parse_codename("1111808")
    with pytest.raises(ValueError):
        parse_codename("12x4")


def test_digit_map_matches_reference_subsets():
    assert DIGIT_SEGMENTS["2"] == frozenset({1, 3, 4})
    assert DIGIT_SEGMENTS["3"] == frozenset({1, 2, 4})
    assert DIGIT_SEGMENTS["4"] == frozenset({1, 2, 3})


@pytest.mark.parametrize(
    "codename,expected",
    [
        ("1111111111", 10),
        ("1111223344", 8),
        ("1111234567", 7),
        ("1111556677", 6),
        ("1114556677", 5),
        ("1234556677", 5),
        ("2233445677", 5),
        ("1111444444", 4),
        ("4444444444", 0),
    ],
)
def test_codename_coverage(codename, expected):
    _, gamma = codename_coverage(codename)
    assert gamma == expected
