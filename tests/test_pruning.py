import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedprune.nn import LayerLayout, ParamVector, init_params
from fedprune.pruning import (
    DIGIT_SEGMENTS,
    Mask,
    MaskableSet,
    PruningPolicy,
    apply_mask,
    codename_coverage,
    default_maskable_set,
    generate_mask,
    neuron_blocks,
    parse_codename,
    pruning_noise,
    quartile_segments,
    rank_maskable,
    segment_index_sets,
)

MNIST_LAYOUT = LayerLayout((784, 200, 10))


def flat_params(values):
    values = np.asarray(values, dtype=float)
    return ParamVector(values, LayerLayout((len(values) - 1, 1)))


# ---------------------------------------------------------------------------
# maskable sets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("indices, message", [
    ([3, 1, 3], "duplicates"),
    ([0, 0], "duplicates"),
    ([2, -1, 5], "non-negative"),
    ([[0, 1], [2, 3]], "1-D"),
])
def test_maskable_set_rejects_invalid_indices(indices, message):
    with pytest.raises(ValueError, match=message):
        MaskableSet(np.array(indices))


def test_maskable_set_keeps_given_order():
    assert MaskableSet(np.array([5, 0, 3])).indices.tolist() == [5, 0, 3]
    assert len(MaskableSet(np.array([], dtype=np.int64))) == 0


@pytest.mark.parametrize("family", ["WP", "NP", "FS"])
def test_default_maskable_set_is_shared_per_layout_and_family(family):
    first = default_maskable_set(LayerLayout((6, 8, 3)), family)
    assert default_maskable_set(LayerLayout((6, 8, 3)), family) is first
    assert not first.indices.flags.writeable
    other = default_maskable_set(LayerLayout((6, 4, 3)), family)
    assert len(other) < len(first)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def test_wp_ranking_sorts_by_magnitude():
    params = flat_params([0.1, 0.9, 0.5, 0.7])
    order = rank_maskable(params, MaskableSet(np.arange(4)), "WP")
    assert order.tolist() == [1, 3, 2, 0]


def test_wp_ranking_breaks_ties_by_index():
    params = flat_params([-0.5, 0.5, 0.5, 0.1])
    order = rank_maskable(params, MaskableSet(np.arange(4)), "WP")
    assert order.tolist() == [0, 1, 2, 3]


def test_fs_ranking_is_identity_over_neurons():
    layout = LayerLayout((2, 4, 1))
    params = ParamVector(np.random.default_rng(0).normal(size=layout.total), layout)
    order = rank_maskable(params, default_maskable_set(layout, "FS"), "FS")
    assert order.tolist() == np.concatenate(neuron_blocks(layout)).tolist()


def test_np_ranking_prefers_heavier_neuron():
    # [2,2,1] net: neuron 0 incoming (1,1) -> L1 2; neuron 1 incoming (3,-3) -> L1 6
    layout = LayerLayout((2, 2, 1))
    values = np.zeros(layout.total)
    values[0], values[1] = 1.0, 3.0   # W1 row 0
    values[2], values[3] = 1.0, -3.0  # W1 row 1
    params = ParamVector(values, layout)
    order = rank_maskable(params, default_maskable_set(layout, "NP"), "NP")
    blocks = neuron_blocks(layout)
    assert order.tolist() == np.concatenate([blocks[1], blocks[0]]).tolist()


def test_np_rejects_layout_without_hidden_layer():
    layout = LayerLayout((4, 2))
    params = ParamVector(np.zeros(layout.total), layout)
    with pytest.raises(ValueError):
        rank_maskable(params, MaskableSet(np.arange(4)), "NP")


def test_neuron_block_contents():
    layout = LayerLayout((2, 2, 1))
    blocks = neuron_blocks(layout)
    # flat order: W1 (2x2), b1 (2), W2 (2x1), b2 (1)
    assert blocks[0].tolist() == [0, 2, 4, 6]
    assert blocks[1].tolist() == [1, 3, 5, 7]
    assert len(blocks[0]) == 2 + 1 + 1


def test_neuron_block_size_mnist():
    blocks = neuron_blocks(MNIST_LAYOUT)
    assert len(blocks) == 200
    assert all(len(b) == 795 for b in blocks)


# ---------------------------------------------------------------------------
# quartiles
# ---------------------------------------------------------------------------


def test_quartiles_even_split():
    segs = quartile_segments(np.arange(8))
    assert [len(s) for s in segs] == [2, 2, 2, 2]
    assert segs[0].tolist() == [0, 1]


def test_quartiles_ceil_first_remainder():
    segs = quartile_segments(np.arange(6))
    assert [len(s) for s in segs] == [2, 2, 1, 1]


def test_quartiles_reject_short_ranking():
    with pytest.raises(ValueError):
        quartile_segments(np.arange(3))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 200), seed=st.integers(0, 2**31))
def test_quartiles_partition_property(n, seed):
    ranking = np.random.default_rng(seed).permutation(n)
    segs = quartile_segments(ranking)
    joined = np.concatenate(segs)
    assert sorted(joined.tolist()) == sorted(ranking.tolist())
    assert max(len(s) for s in segs) - min(len(s) for s in segs) <= 1


# ---------------------------------------------------------------------------
# generate_mask / apply_mask
# ---------------------------------------------------------------------------


def test_full_policy_gives_all_ones_for_every_family():
    for family in ("WP", "NP", "FS"):
        layout = LayerLayout((6, 8, 3))
        params = init_params(layout, 1)
        mask = generate_mask(
            PruningPolicy(family, frozenset({1, 2, 3, 4})),
            params, default_maskable_set(layout, family), round_no=1,
        )
        assert mask.bits.all()
        assert mask.sparsity == 1.0


def test_wp_75_percent_counts_on_mnist_mlp():
    params = init_params(MNIST_LAYOUT, 0)
    maskable = default_maskable_set(MNIST_LAYOUT, "WP")
    mask = generate_mask(PruningPolicy("WP", frozenset({1, 2, 3})), params, maskable, 1)
    assert int(mask.bits[maskable.indices].sum()) == 117600
    assert int(mask.bits.sum()) == 119810


def test_np_75_percent_counts_on_mnist_mlp():
    params = init_params(MNIST_LAYOUT, 0)
    maskable = default_maskable_set(MNIST_LAYOUT, "NP")
    mask = generate_mask(PruningPolicy("NP", frozenset({1, 2, 3})), params, maskable, 1)
    assert int(mask.bits.sum()) == 159010 - 50 * 795 == 119260


def test_mask_keeps_non_maskable_indices():
    layout = LayerLayout((4, 4, 2))
    params = init_params(layout, 3)
    maskable = default_maskable_set(layout, "WP")
    mask = generate_mask(PruningPolicy("WP", frozenset({1})), params, maskable, 1)
    outside = np.setdiff1d(np.arange(layout.total), maskable.indices)
    assert mask.bits[outside].all()


def test_pretrained_freeze_reuses_round3_mask():
    layout = LayerLayout((6, 8, 3))
    maskable = default_maskable_set(layout, "WP")
    policy = PruningPolicy("WP", frozenset({1, 2}), freeze_after_round=3)
    rng = np.random.default_rng(9)
    params = init_params(layout, 2)
    frozen = None
    history = []
    for round_no in range(1, 8):
        mask = generate_mask(policy, params, maskable, round_no, frozen)
        if round_no >= 3 and frozen is None:
            frozen = mask
        history.append(mask)
        params = ParamVector(rng.normal(0, 1, layout.total), layout)  # drift
    for later in history[3:]:
        assert np.array_equal(later.bits, history[2].bits)


def test_adaptive_mask_tracks_parameters():
    layout = LayerLayout((4, 8, 2))
    maskable = default_maskable_set(layout, "WP")
    policy = PruningPolicy("WP", frozenset({1}))
    a = ParamVector(np.arange(layout.total, dtype=float), layout)
    b = ParamVector(np.arange(layout.total, dtype=float)[::-1].copy(), layout)
    mask_a = generate_mask(policy, a, maskable, 1)
    mask_b = generate_mask(policy, b, maskable, 1)
    assert not np.array_equal(mask_a.bits, mask_b.bits)


def test_empty_kept_segments_rejected():
    with pytest.raises(ValueError):
        PruningPolicy("WP", frozenset())


def test_apply_mask_identity_and_zeroing():
    params = flat_params([4.0, 3.0, 2.0, 1.0])
    assert np.array_equal(apply_mask(params, Mask.ones(4)).values, params.values)
    masked = apply_mask(params, Mask(np.array([1, 1, 0, 0], dtype=np.uint8)))
    assert masked.values.tolist() == [4.0, 3.0, 0.0, 0.0]


def test_apply_mask_rejects_length_mismatch():
    with pytest.raises(ValueError):
        apply_mask(flat_params([1.0, 2.0]), Mask.ones(3))


# ---------------------------------------------------------------------------
# pruning noise
# ---------------------------------------------------------------------------


def test_noise_zero_for_full_mask():
    params = flat_params([1.0, -2.0, 3.0])
    assert pruning_noise(params, [Mask.ones(3)])[0] == 0.0


def test_noise_arithmetic_top_two():
    params = flat_params([4.0, 3.0, 2.0, 1.0])
    mask = Mask(np.array([1, 1, 0, 0], dtype=np.uint8))
    assert pruning_noise(params, [mask])[0] == pytest.approx(5.0 / 30.0, abs=1e-15)


def test_noise_zero_norm_warns():
    params = flat_params([0.0, 0.0, 0.0])
    with pytest.warns(UserWarning):
        assert pruning_noise(params, [Mask(np.array([1, 0, 0], dtype=np.uint8))])[0] == 0.0
    with pytest.warns(UserWarning):
        assert pruning_noise(params, [Mask.ones(3), Mask(np.array([1, 0, 0], dtype=np.uint8))]) == (0.0, 0.0)


def test_noise_one_value_per_mask_in_order():
    params = flat_params([4.0, 3.0, 2.0, 1.0])
    rows = ([1, 1, 0, 0], [1, 1, 1, 1], [0, 0, 0, 1], [0, 1, 1, 0])
    masks = [Mask(np.array(r, dtype=np.uint8)) for r in rows]
    noise = pruning_noise(params, masks)
    assert isinstance(noise, tuple)
    assert noise == (5.0 / 30.0, 0.0, 29.0 / 30.0, 17.0 / 30.0)
    assert noise == tuple(pruning_noise(params, [m])[0] for m in masks)
    assert pruning_noise(params, []) == ()


def test_noise_rejects_wrong_length_mask():
    params = flat_params([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pruning_noise(params, [Mask.ones(3), Mask.ones(4)])


def test_wp_mask_minimizes_noise_exhaustively():
    rng = np.random.default_rng(17)
    layout = LayerLayout((4, 4, 2))  # 16 first-layer weights
    maskable = default_maskable_set(layout, "WP")
    params = ParamVector(rng.normal(0, 1, layout.total), layout)
    for kept_segments, kept_count in ((frozenset({1}), 4), (frozenset({1, 2}), 8)):
        wp_mask = generate_mask(PruningPolicy("WP", kept_segments), params, maskable, 1)
        wp_noise = pruning_noise(params, [wp_mask])[0]
        for keep in itertools.combinations(range(16), kept_count):
            bits = np.ones(layout.total, dtype=np.uint8)
            bits[maskable.indices] = 0
            bits[maskable.indices[list(keep)]] = 1
            assert wp_noise <= pruning_noise(params, [Mask(bits)])[0] + 1e-15


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_noise_monotone_under_segment_inclusion(seed):
    rng = np.random.default_rng(seed)
    layout = LayerLayout((5, 8, 3))
    params = ParamVector(rng.normal(0, 1, layout.total), layout)
    family = ("WP", "NP", "FS")[int(rng.integers(3))]
    maskable = default_maskable_set(layout, family)
    segments = sorted(rng.choice(4, size=int(rng.integers(2, 5)), replace=False) + 1)
    smaller = frozenset(int(s) for s in segments[:-1]) or frozenset({int(segments[0])})
    larger = frozenset(int(s) for s in segments)
    noise_small = pruning_noise(
        params, [generate_mask(PruningPolicy(family, smaller), params, maskable, 1)]
    )[0]
    noise_large = pruning_noise(
        params, [generate_mask(PruningPolicy(family, larger), params, maskable, 1)]
    )[0]
    assert noise_large <= noise_small + 1e-15


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_segment_partition_and_sparsity_accounting(seed):
    rng = np.random.default_rng(seed)
    layout = LayerLayout((5, 8, 3))
    params = ParamVector(rng.normal(0, 1, layout.total), layout)
    family = ("WP", "NP", "FS")[int(rng.integers(3))]
    maskable = default_maskable_set(layout, family)
    segments = segment_index_sets(params, maskable, family)
    joined = np.concatenate(segments)
    assert sorted(joined.tolist()) == sorted(maskable.indices.tolist())
    kept = frozenset(int(s) for s in rng.choice(4, size=int(rng.integers(1, 5)), replace=False) + 1)
    mask = generate_mask(PruningPolicy(family, kept), params, maskable, 1)
    expected_ones = sum(len(segments[s - 1]) for s in kept)
    assert int(mask.bits[maskable.indices].sum()) == expected_ones
    assert pruning_noise(params, [mask])[0] < 1.0  # delta^2 in [0, 1) for generated masks


# ---------------------------------------------------------------------------
# codenames
# ---------------------------------------------------------------------------


def test_parse_codename_all_full():
    assignment = parse_codename("1111111111")
    assert len(assignment) == 10
    assert all(p.kept_segments == frozenset({1, 2, 3, 4}) for p in assignment.per_slot_policies)


def test_parse_codename_mixed():
    assignment = parse_codename("1111223344", family="NP", freeze_after_round=3)
    kept = [p.kept_segments for p in assignment.per_slot_policies]
    assert kept[:4] == [frozenset({1, 2, 3, 4})] * 4
    assert kept[4:6] == [frozenset({1, 3, 4})] * 2
    assert kept[6:8] == [frozenset({1, 2, 4})] * 2
    assert kept[8:] == [frozenset({1, 2, 3})] * 2
    assert all(p.family == "NP" and p.freeze_after_round == 3 for p in assignment.per_slot_policies)


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
