"""Byte pins for the training kernel and the test-set pass.

The digests were recorded from the kernel before its per-call setup was
hoisted (layer views made per call, boolean-index ReLU gate, `np.indices`
label picks, `.mean()` loss). `loss_and_grad` and `evaluate` must keep
these bits: a digest that changes is a change of results, not of code.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import fedprune.lanes
from fedprune.nn import LayerLayout, ParamVector, evaluate, init_params, loss_and_grad
from fedprune.pruning import apply_mask, round_masks, segment_index_sets

# OpenBLAS kernels round differently in the last bits: the digests hold on this one
BLAS_NOTE = f"digests recorded on OpenBLAS kernel SkylakeX, run on {fedprune.lanes.BLAS_KERNEL}"

SMALL = LayerLayout((20, 32, 10))
MNIST = LayerLayout((784, 200, 10))


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def stack(layout, g, seed=0):
    """g independent starting models, one per row."""
    return np.stack([init_params(layout, seed + i).values for i in range(g)])


def batch(layout, lead, rows, seed):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(*lead, rows, layout.input_dim))
    labels = rng.integers(0, layout.num_classes, size=(*lead, rows))
    return inputs, labels


def np_masked(g):
    """NP-pruned rows: every pruned hidden unit has zero weights in and out, so it is dead."""
    params = init_params(SMALL, 3)
    masks = round_masks("1234567", "NP", SMALL, segment_index_sets(params, "NP"))
    rows = [apply_mask(params, masks[d]) for d in "1234567"]
    return np.stack((rows * 2)[:g])


def kernel_case(name):
    """(values, inputs, labels) of a loss_and_grad case."""
    if name == "small_g10_b10":
        return (stack(SMALL, 10), *batch(SMALL, (10,), 10, 1))
    if name == "small_g10_b7":
        return (stack(SMALL, 10), *batch(SMALL, (10,), 7, 2))
    if name == "mnist_g1_b10":
        return (stack(MNIST, 1), *batch(MNIST, (1,), 10, 3))
    if name == "mnist_single_b10":
        return (init_params(MNIST, 0).values, *batch(MNIST, (), 10, 4))
    if name == "np_dead_relu_g10_b10":
        return (np_masked(10), *batch(SMALL, (10,), 10, 5))
    if name == "np_dead_relu_single_b7":
        return (np_masked(1)[0], *batch(SMALL, (), 7, 6))
    raise KeyError(name)


# case -> sha256 of (losses, gradient)
KERNEL = {
    "small_g10_b10":
        "31724943ec0f13703d831e88eb9b2902b340303bed250245e32b25cdf3295dc9",
    "small_g10_b7":
        "06da7cb0c54cc9c88e8e0aa35d01f0395b93010e67796be7bedeeec33c16d192",
    "mnist_g1_b10":
        "978027afaf04751d357583ceea9fd00a17f3d9539a4b6d221a1e052947c88ce4",
    "mnist_single_b10":
        "c4525a9d4dfa485cf920508a78477e6b4865bda32ef81373c52aa18bb1964685",
    "np_dead_relu_g10_b10":
        "38bd75c7adc04b4fcedc338471ad1f8e277cf8246e26c6df4a4814bfbbbd779a",
    "np_dead_relu_single_b7":
        "9ea971ed5b61521b5171ae66443a0e11500251f1a1218d55eec41a5264acc985",
}

# (layout, rows, batch size) -> sha256 of (loss, accuracy, gradient); the last chunk is short
EVALUATE = {
    "small_300_by_128": ((SMALL, 300, 128),
        "030728131f1f8fa959500ef592c61cc8d653ac85046fe00e64e7d46191f5a1d8"),
    "mnist_300_by_128": ((MNIST, 300, 128),
        "e0b9affe512c5d9100c98c52843ea8f283ba37abb9a83eac110c223e3f0b09a2"),
    "np_dead_relu_77_by_32": ((SMALL, 77, 32),
        "7d6180906281f4b56780081545fa0937b2c90ad811d9fa15c254cd050053308d"),
}


class Rows:
    def __init__(self, inputs, labels):
        self.inputs, self.labels = inputs, labels


def kernel_digest(name):
    values, inputs, labels = kernel_case(name)
    layout = MNIST if values.shape[-1] == MNIST.total else SMALL
    loss, grad = loss_and_grad(ParamVector(values, layout), inputs, labels)
    return sha(loss, grad)


def evaluate_digest(name):
    (layout, rows, size), _ = EVALUATE[name]
    values = np_masked(1)[0] if name.startswith("np_") else init_params(layout, 9).values
    inputs, labels = batch(layout, (), rows, 7)
    loss, acc, grad = evaluate(ParamVector(values, layout), Rows(inputs, labels), size)
    return sha(loss, acc, grad)


@pytest.mark.parametrize("name", sorted(KERNEL))
def test_loss_and_grad_bytes_are_pinned(name):
    assert kernel_digest(name) == KERNEL[name], BLAS_NOTE


@pytest.mark.parametrize("name", sorted(KERNEL))
def test_loss_and_grad_into_a_dirty_buffer_gives_the_pinned_bytes(name):
    values, inputs, labels = kernel_case(name)
    layout = MNIST if values.shape[-1] == MNIST.total else SMALL
    out = ParamVector(np.full(values.shape, np.nan), layout)
    loss, grad = loss_and_grad(ParamVector(values, layout), inputs, labels, out=out)
    assert grad is out.values
    assert sha(loss, grad) == KERNEL[name], BLAS_NOTE


@pytest.mark.parametrize("lane_count", [1, 2])
@pytest.mark.parametrize("name", sorted(EVALUATE))
def test_evaluate_bytes_are_pinned_on_one_and_two_lanes(use_lanes, lane_count, name):
    use_lanes(lane_count)
    assert evaluate_digest(name) == EVALUATE[name][1], BLAS_NOTE


def test_param_vector_views_alias_values_and_values_stay_put():
    params = init_params(SMALL, 0)
    layers = params.layers
    assert params.layers is layers  # made once per vector
    for w, b in layers:
        assert np.shares_memory(w, params.values) and np.shares_memory(b, params.values)
    params.values[SMALL.offsets[1].biases] = 5.0  # an in-place write shows through the views
    assert (layers[1][1] == 5.0).all()

    with pytest.raises(dataclasses.FrozenInstanceError):  # no new vector under old views
        params.values = np.zeros(SMALL.total)
    (w1, b1), (w2, b2) = ParamVector(np.zeros((3, SMALL.total)), SMALL).layers
    assert w1.shape == (3, 20, 32) and b2.shape == (3, 10)
