import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_impl import reference_dataset_loss_and_grad, reference_evaluate

import fedprune.nn
from fedprune.data import synth_blobs
from fedprune.nn import (
    LayerLayout,
    ParamVector,
    _backward,
    _label_index,
    _log_softmax,
    _relu_gate,
    evaluate,
    forward,
    init_params,
    loss_and_grad,
    masked_sgd_step,
)


def finite_difference_grad(params, inputs, labels, h=1e-6):
    """Independent central-difference oracle for loss_and_grad."""
    grad = np.zeros(params.layout.total)
    for i in range(len(grad)):
        up = params.values.copy()
        up[i] += h
        down = params.values.copy()
        down[i] -= h
        loss_up, _ = loss_and_grad(ParamVector(up, params.layout), inputs, labels)
        loss_down, _ = loss_and_grad(ParamVector(down, params.layout), inputs, labels)
        grad[i] = (loss_up - loss_down) / (2 * h)
    return grad


def relative_grad_error(analytic, numeric):
    return float(np.abs(analytic - numeric).max()) / max(1.0, float(np.abs(numeric).max()))


class SmallDataset:
    def __init__(self, inputs, labels):
        self.inputs = np.asarray(inputs, dtype=float)
        self.labels = np.asarray(labels)


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


def test_layout_offsets_cover_everything():
    layout = LayerLayout((784, 200, 10))
    assert layout.total == 784 * 200 + 200 + 200 * 10 + 10 == 159010
    covered = np.zeros(layout.total, dtype=int)
    for sl in layout.offsets:
        covered[sl.weights] += 1
        covered[sl.biases] += 1
    assert (covered == 1).all()


def test_layout_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        LayerLayout((5,))
    with pytest.raises(ValueError):
        LayerLayout((5, 0, 2))


# ---------------------------------------------------------------------------
# init_params
# ---------------------------------------------------------------------------


def test_init_bounds_and_zero_bias():
    layout = LayerLayout((2, 1))
    params = init_params(layout, seed=7)
    bound = 1 / math.sqrt(2)
    assert np.abs(params.values[:2]).max() < bound
    assert params.values[2] == 0.0


def test_init_is_deterministic():
    layout = LayerLayout((5, 4, 3))
    a = init_params(layout, seed=42)
    b = init_params(layout, seed=42)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, init_params(layout, seed=43).values)


def test_init_mnist_mlp_length():
    assert len(init_params(LayerLayout((784, 200, 10)), 0).values) == 159010


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_zero_params_gives_zero_logits():
    layout = LayerLayout((4, 3, 2))
    params = ParamVector(np.zeros(layout.total), layout)
    logits = forward(params, np.random.default_rng(0).normal(size=(5, 4)))
    assert np.array_equal(logits, np.zeros((5, 2)))


def test_forward_single_affine():
    layout = LayerLayout((1, 1))
    params = ParamVector(np.array([2.5, -0.75]), layout)  # w, b
    logits = forward(params, [[3.0]])
    assert logits.shape == (1, 1)
    assert logits[0, 0] == pytest.approx(2.5 * 3.0 - 0.75, abs=1e-15)


def test_forward_matches_scalar_hand_calculation():
    # [3,2,2] net; expectations computed by hand (pre-implementation):
    #   x=[1,2,-1]: z1=(3.1, -2.2) -> h=(3.1, 0) -> logits (3.1, -2.8)
    #   x=[0,-1,0.5]: z1=(-1.15, 0.3) -> h=(0, 0.3) -> logits (0.6, 0.45)
    layout = LayerLayout((3, 2, 2))
    values = np.array(
        [0.5, -1.0, 1.0, 0.5, -0.5, 2.0,  # W1 rows
         0.1, -0.2,                        # b1
         1.0, -1.0, 2.0, 0.5,              # W2 rows
         0.0, 0.3]                         # b2
    )
    params = ParamVector(values, layout)
    logits = forward(params, [[1.0, 2.0, -1.0], [0.0, -1.0, 0.5]])
    assert np.allclose(logits, [[3.1, -2.8], [0.6, 0.45]], atol=1e-12)


def test_forward_rejects_shape_mismatch():
    layout = LayerLayout((3, 2))
    params = ParamVector(np.zeros(layout.total), layout)
    with pytest.raises(ValueError):
        forward(params, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# loss_and_grad
# ---------------------------------------------------------------------------


def test_uniform_logits_loss_is_log_c():
    layout = LayerLayout((6, 4))
    params = ParamVector(np.zeros(layout.total), layout)
    loss, _ = loss_and_grad(params, np.random.default_rng(1).normal(size=(8, 6)), np.arange(8) % 4)
    assert loss == pytest.approx(math.log(4), abs=1e-12)


def test_zero_weights_ignore_input_scaling():
    layout = LayerLayout((5, 3))
    params = ParamVector(np.zeros(layout.total), layout)
    rng = np.random.default_rng(2)
    inputs = rng.normal(size=(6, 5))
    labels = rng.integers(0, 3, 6)
    loss1, _ = loss_and_grad(params, inputs, labels)
    loss2, _ = loss_and_grad(params, inputs * 2.0, labels)
    assert loss1 == loss2 == pytest.approx(math.log(3), abs=1e-12)


def test_gradient_matches_finite_differences_on_432_net():
    layout = LayerLayout((4, 3, 2))
    rng = np.random.default_rng(3)
    params = ParamVector(rng.normal(0, 1, layout.total), layout)
    inputs, labels = rng.normal(size=(5, 4)), rng.integers(0, 2, 5)
    _, analytic = loss_and_grad(params, inputs, labels)
    numeric = finite_difference_grad(params, inputs, labels)
    assert relative_grad_error(analytic, numeric) < 1e-5


def test_empty_batch_rejected():
    layout = LayerLayout((2, 2))
    params = ParamVector(np.zeros(layout.total), layout)
    with pytest.raises(ValueError, match="empty batch"):
        loss_and_grad(params, np.zeros((0, 2)), np.zeros(0, dtype=int))


@pytest.mark.parametrize(
    "inputs,labels,message",
    [
        (np.zeros(3), np.zeros(3, dtype=int), "2-D"),
        (np.zeros((1, 3, 1)), np.zeros(1, dtype=int), "2-D"),
        (np.zeros((3, 3)), np.zeros(2, dtype=int), "match the batch size"),
        (np.zeros((3, 3)), np.zeros((3, 1), dtype=int), "match the batch size"),
        (np.zeros((2, 3)), np.array([0, 2]), "label out of range"),
        (np.zeros((2, 4)), np.array([0, 1]), "input dim"),
    ],
)
def test_loss_and_grad_rejects_malformed_batches(inputs, labels, message):
    layout = LayerLayout((3, 2))
    params = ParamVector(np.zeros(layout.total), layout)
    with pytest.raises(ValueError, match=message):
        loss_and_grad(params, inputs, labels)


@pytest.mark.parametrize("label", [-1, 3])
def test_loss_and_grad_rejects_out_of_range_labels(label):
    # -1 would otherwise index the last class and 3 would raise a bare IndexError
    layout = LayerLayout((2, 3))
    params = ParamVector(np.zeros(layout.total), layout)
    with pytest.raises(ValueError, match="label out of range"):
        loss_and_grad(params, np.zeros((2, 2)), np.array([0, label]))
    stacked = ParamVector(np.zeros((2, layout.total)), layout)
    with pytest.raises(ValueError, match="label out of range"):
        loss_and_grad(stacked, np.zeros((2, 1, 2)), np.array([[0], [label]]))


@pytest.mark.parametrize("label", [-1, 3])
def test_evaluate_rejects_out_of_range_labels(label):
    layout = LayerLayout((2, 3))
    params = ParamVector(np.zeros(layout.total), layout)
    dataset = SmallDataset(np.zeros((3, 2)), np.array([0, 1, label]))
    with pytest.raises(ValueError, match="label out of range"):
        evaluate(params, dataset, batch_size=2)


@pytest.mark.parametrize("labels", [np.zeros(2, dtype=int), np.zeros((3, 1), dtype=int)])
def test_evaluate_rejects_labels_that_do_not_match_the_rows(labels):
    layout = LayerLayout((2, 3))
    params = ParamVector(np.zeros(layout.total), layout)
    with pytest.raises(ValueError, match="^labels must be 1-D and match the batch size$"):
        evaluate(params, SmallDataset(np.zeros((3, 2)), labels), batch_size=2)


@pytest.mark.parametrize(
    "inputs,labels,out,message",
    [
        (np.zeros((2, 3)), np.zeros((2, 3), dtype=int), None, "3-D"),
        (np.zeros((3, 1, 3)), np.zeros((3, 1), dtype=int), None, "one batch per parameter vector"),
        (np.zeros((2, 1, 3)), np.zeros(2, dtype=int), None, "match the batch size"),
        (np.zeros((2, 0, 3)), np.zeros((2, 0), dtype=int), None, "empty batch"),
        (np.zeros((2, 1, 3)), np.zeros((2, 1), dtype=int),
         ParamVector(np.empty(8), LayerLayout((3, 2))), "gradient buffer"),
        (np.zeros((2, 1, 3)), np.zeros((2, 1), dtype=int),  # same total, other layers
         ParamVector(np.empty((2, 8)), LayerLayout((1, 4))), "gradient buffer"),
        (np.zeros((2, 1, 3)), np.zeros((2, 1), dtype=int), np.empty((2, 8)), "gradient buffer"),
    ],
)
def test_stacked_loss_and_grad_rejects_malformed_batches(inputs, labels, out, message):
    layout = LayerLayout((3, 2))
    params = ParamVector(np.zeros((2, layout.total)), layout)
    with pytest.raises(ValueError, match=message):
        loss_and_grad(params, inputs, labels, out=out)


def test_param_vector_takes_one_vector_or_a_stack():
    layout = LayerLayout((3, 2))
    assert ParamVector(np.zeros((4, layout.total)), layout).values.shape == (4, 8)
    for shape in [(7,), (2, 7), (2, 2, 8), ()]:
        with pytest.raises(ValueError, match="does not match layout total"):
            ParamVector(np.zeros(shape), layout)


@pytest.mark.parametrize("sizes", [(5, 3), (6, 7, 4), (4, 6, 5, 3)])
def test_stacked_kernel_rows_match_unstacked_calls_bitwise(sizes):
    """Row i of a stacked gradient and step has the bits of the unstacked call on row i."""
    layout = LayerLayout(sizes)
    rng = np.random.default_rng(len(sizes))
    g, batch = 4, 3
    values = rng.normal(0.0, 1.0, (g, layout.total))
    bits = rng.integers(0, 2, (g, layout.total)).astype(np.uint8)
    inputs = rng.normal(size=(g, batch, sizes[0]))
    labels = rng.integers(0, sizes[-1], (g, batch))
    buf = rng.normal(0.0, 1.0, (g, layout.total))
    want = []
    for i in range(g):
        row = ParamVector(values[i].copy(), layout)
        loss, grad = loss_and_grad(row, inputs[i], labels[i])
        row_buf = buf[i].copy()
        masked_sgd_step(row, grad, bits[i], row_buf, 0.5, 0.1)
        want.append((loss, row.values, row_buf))

    stacked = ParamVector(values, layout)
    grad = ParamVector(np.empty((g, layout.total)), layout)
    losses, got = loss_and_grad(stacked, inputs, labels, out=grad)
    assert got is grad.values
    masked_sgd_step(stacked, got, bits, buf, 0.5, 0.1)
    for i, (loss, row_values, row_buf) in enumerate(want):
        assert losses[i] == loss
        assert np.array_equal(values[i].view(np.int64), row_values.view(np.int64)), i
        assert np.array_equal(buf[i].view(np.int64), row_buf.view(np.int64)), i


def bit_floats(*words):
    return np.array(words, dtype=np.uint64).view(np.float64)


# NaNs of both signs (one with a payload), infinities, zeros of both signs, subnormals
ACT_SPECIALS = np.concatenate([[np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324],
                               bit_floats(0x7FF0000000000001, 0xFFF8000000000000)])
DELTA_SPECIALS = np.concatenate([[-0.0, 0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.nan, -np.nan,
                                  np.inf, -np.inf], bit_floats(0x7FF4000000000123)])
# (B, h) and stacked (g, B, h): a test-set chunk, then training batches of both kernels' shapes
RELU_SHAPES = [(128, 200), (37, 32), (10, 32), (1, 10, 200), (10, 10, 32), (3, 1, 7)]


def putmask_gate(delta, act):
    np.putmask(delta, act <= 0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(RELU_SHAPES), seed=st.integers(0, 2**32 - 1),
    act_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]), delta_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_relu_gate_in_backward_has_the_bits_of_putmask(shape, seed, act_share, delta_share):
    rng = np.random.default_rng(seed)

    def sprinkle(values, specials, share):
        hit = rng.random(values.shape) < share
        values[hit] = rng.choice(specials, size=int(hit.sum()))
        return values

    act = sprinkle(rng.normal(size=shape), ACT_SPECIALS, act_share)  # negatives too, not just ReLU's
    delta = sprinkle(rng.normal(size=shape), DELTA_SPECIALS, delta_share)
    want = delta.copy()
    putmask_gate(want, act)
    _relu_gate(delta, act)
    assert np.array_equal(delta.view(np.int64), want.view(np.int64))

    # the same activations as the hidden layer of a net: _backward's gradients take the bits
    # that a putmask gate gives them, so the delta it gates is putmask's too
    *lead, rows, hidden = shape
    layout = LayerLayout((3, hidden, 4))
    params = ParamVector(rng.normal(size=(*lead, layout.total)), layout)
    inputs = rng.normal(size=(*lead, rows, 3))
    logits = rng.normal(size=(*lead, rows, 4))
    pick = _label_index(rng.integers(0, 4, size=(*lead, rows)))
    gated = []

    def recorded_putmask_gate(delta, act):
        gated.append(act)
        putmask_gate(delta, act)

    grads = []
    for gate in (_relu_gate, recorded_putmask_gate):
        out = ParamVector(np.full(params.values.shape, np.nan), layout)
        with pytest.MonkeyPatch.context() as patch, np.errstate(invalid="ignore", over="ignore"):
            patch.setattr(fedprune.nn, "_relu_gate", gate)
            _backward(params, [inputs, act, logits], _log_softmax(logits), pick, out.layers)
        grads.append(out.values)
    assert len(gated) == 1 and gated[0] is act
    assert np.array_equal(grads[0].view(np.int64), grads[1].view(np.int64))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gradient_property_random_small_nets(seed):
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(2, 4))
    sizes = tuple(int(rng.integers(2, 6)) for _ in range(depth))
    layout = LayerLayout(sizes)
    if layout.total > 100:
        sizes = (3, 3, 2)
        layout = LayerLayout(sizes)
    params = ParamVector(rng.normal(0, 1, layout.total), layout)
    n = int(rng.integers(1, 5))
    inputs, labels = rng.normal(size=(n, sizes[0])), rng.integers(0, sizes[-1], n)
    _, analytic = loss_and_grad(params, inputs, labels)
    numeric = finite_difference_grad(params, inputs, labels)
    assert relative_grad_error(analytic, numeric) < 1e-5


# ---------------------------------------------------------------------------
# masked_sgd_step
# ---------------------------------------------------------------------------


def test_step_reduces_to_plain_sgd():
    layout = LayerLayout((2, 1))
    params = ParamVector(np.array([1.0, -2.0, 0.5]), layout)
    grad = np.array([0.5, 1.0, -1.0])
    expected = params.values - 0.2 * grad
    values, buf = params.values, np.zeros(layout.total)
    assert masked_sgd_step(params, grad, np.ones(3, np.uint8), buf, 0.0, 0.2) is None
    assert params.values is values
    assert np.array_equal(values, expected)
    assert np.array_equal(buf, np.array([0.5, 1.0, -1.0]))


def test_step_all_zero_mask_is_identity():
    layout = LayerLayout((2, 1))
    params = ParamVector(np.array([1.0, -2.0, 0.5]), layout)
    expected = params.values.copy()
    values, buf = params.values, np.zeros(layout.total)
    masked_sgd_step(params, np.array([9.0, 9.0, 9.0]), np.zeros(3, dtype=np.uint8), buf, 0.5, 0.2)
    assert params.values is values
    assert np.array_equal(values, expected)
    assert not buf.any()


def test_step_two_coordinate_arithmetic():
    # masked index 1 is untouched here; apply_mask is what zeroes it upstream
    layout = LayerLayout((1, 1))
    params = ParamVector(np.array([1.0, 1.0]), layout)
    values, buf = params.values, np.zeros(layout.total)
    masked_sgd_step(params, np.array([2.0, 4.0]), np.array([1, 0], np.uint8), buf, 0.0, 0.5)
    assert params.values is values
    assert np.array_equal(values, np.array([0.0, 1.0]))
    assert buf.tolist() == [2.0, 0.0]  # the masked gradient, in the caller's buffer


def test_step_momentum_accumulates():
    layout = LayerLayout((1, 1))
    params = ParamVector(np.zeros(2), layout)
    values, buf = params.values, np.zeros(layout.total)
    # the step consumes its gradient argument, so each call gets a fresh one
    masked_sgd_step(params, np.array([1.0, 0.0]), np.ones(2, np.uint8), buf, 0.5, 1.0)
    assert values[0] == -1.0
    masked_sgd_step(params, np.array([1.0, 0.0]), np.ones(2, np.uint8), buf, 0.5, 1.0)
    assert values[0] == -1.0 - 1.5  # buffer 0.5*1 + 1
    assert params.values is values
    assert buf.tolist() == [1.5, 0.0]


def test_step_rejects_length_mismatch():
    layout = LayerLayout((1, 1))
    params = ParamVector(np.zeros(2), layout)
    with pytest.raises(ValueError):
        masked_sgd_step(params, np.zeros(3), np.ones(2, np.uint8), np.zeros(layout.total), 0.0, 0.1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 12))
def test_mask_closure_is_bitwise(seed, steps):
    rng = np.random.default_rng(seed)
    layout = LayerLayout((3, 4, 2))
    mask = rng.integers(0, 2, layout.total).astype(np.uint8)
    values = rng.normal(0, 1, layout.total) * mask  # start pruned-to-zero
    params = ParamVector(np.where(mask == 1, values, 0.0), layout)
    buf = np.zeros(layout.total)
    inputs, labels = rng.normal(size=(4, 3)), rng.integers(0, 2, 4)
    for _ in range(steps):
        _, grad = loss_and_grad(params, inputs, labels)
        masked_sgd_step(params, grad, mask, buf, 0.5, 0.1)
        off = mask == 0
        assert (params.values[off] == 0.0).all()
        assert (buf[off] == 0.0).all()
        assert np.isfinite(params.values).all()


def test_trajectory_determinism_is_bitwise():
    layout = LayerLayout((4, 3, 2))
    rng = np.random.default_rng(11)
    batches = [
        (rng.normal(size=(3, 4)), rng.integers(0, 2, 3)) for _ in range(10)
    ]

    def trajectory():
        params = init_params(layout, seed=5)
        buf = np.zeros(layout.total)
        out = []
        for inputs, labels in batches:
            _, grad = loss_and_grad(params, inputs, labels)
            masked_sgd_step(params, grad, np.ones(layout.total, np.uint8), buf, 0.5, 0.05)
            out.append(params.values.copy())
        return out

    for a, b in zip(trajectory(), trajectory()):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_zero_params_uses_argmax_tie_rule():
    layout = LayerLayout((3, 4))
    params = ParamVector(np.zeros(layout.total), layout)
    labels = np.array([0, 1, 1, 0, 2, 0])
    dataset = SmallDataset(np.random.default_rng(4).normal(size=(6, 3)), labels)
    _, acc, _ = evaluate(params, dataset)
    assert acc == pytest.approx(np.mean(labels == 0))


def test_evaluate_perfect_linear_classifier():
    layout = LayerLayout((2, 2))
    params = ParamVector(np.array([10.0, 0.0, 0.0, 10.0, 0.0, 0.0]), layout)
    dataset = SmallDataset(
        [[1.0, 0.0], [0.0, 1.0], [0.9, 0.1], [0.2, 0.8]], [0, 1, 0, 1]
    )
    loss, acc, _ = evaluate(params, dataset)
    assert acc == 1.0
    assert loss >= 0.0


def test_evaluate_empty_dataset_rejected():
    layout = LayerLayout((2, 2))
    params = ParamVector(np.zeros(layout.total), layout)
    with pytest.raises(ValueError):
        evaluate(params, SmallDataset(np.zeros((0, 2)), np.zeros(0, dtype=int)))


def test_evaluate_batches_do_not_change_result():
    layout = LayerLayout((3, 3))
    rng = np.random.default_rng(6)
    params = ParamVector(rng.normal(0, 1, layout.total), layout)
    dataset = SmallDataset(rng.normal(size=(301, 3)), rng.integers(0, 3, 301))
    loss_a, acc_a, _ = evaluate(params, dataset, batch_size=128)
    loss_b, acc_b, _ = evaluate(params, dataset, batch_size=301)
    assert acc_a == acc_b
    assert loss_a == pytest.approx(loss_b, rel=1e-12)


def bit_pattern(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize(
    "sizes,n,batch_size",
    [
        ((20, 32, 10), 500, 128),  # last chunk 116 rows
        ((20, 32, 10), 500, 37),  # last chunk 19 rows
        ((6, 5, 4, 3), 61, 8),  # two hidden layers, last chunk 5 rows
        ((20, 32, 10), 50, 128),  # a single chunk shorter than batch_size
    ],
)
def test_evaluate_matches_reference_oracles_bitwise(sizes, n, batch_size):
    assert n % batch_size != 0
    layout = LayerLayout(sizes)
    classes = sizes[-1]
    # several draws: a per-chunk rounding difference often vanishes in the final mean
    for seed in range(64):
        params = ParamVector(np.random.default_rng(seed).normal(0, 0.5, layout.total), layout)
        data = synth_blobs(classes, n // classes + 1, sizes[0], 0.5, seed).subset(np.arange(n))
        loss, acc, grad = evaluate(params, data, batch_size=batch_size)
        want_loss, want_acc = reference_evaluate(params, data, batch_size=batch_size)
        _, want_grad = reference_dataset_loss_and_grad(
            params, data.inputs, data.labels, batch_size=batch_size
        )
        assert bit_pattern(loss) == bit_pattern(want_loss), f"seed {seed}"
        assert acc == want_acc, f"seed {seed}"
        assert np.array_equal(bit_pattern(grad), bit_pattern(want_grad)), f"seed {seed}"


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_evaluate_is_independent_of_lanes(use_lanes, lanes):
    layout = LayerLayout((20, 32, 10))
    n, batch_size = 463, 37  # 13 chunks, the last of 19 rows: no multiple of 2 or 3
    for seed in range(8):
        params = ParamVector(np.random.default_rng(seed).normal(0, 0.5, layout.total), layout)
        data = synth_blobs(10, n // 10 + 1, 20, 0.5, seed).subset(np.arange(n))
        use_lanes(1)
        want_loss, want_acc, want_grad = evaluate(params, data, batch_size)
        use_lanes(lanes)
        loss, acc, grad = evaluate(params, data, batch_size)
        assert bit_pattern(loss) == bit_pattern(want_loss), f"seed {seed}"
        assert acc == want_acc, f"seed {seed}"
        assert np.array_equal(bit_pattern(grad), bit_pattern(want_grad)), f"seed {seed}"
