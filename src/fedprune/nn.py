"""Minimal MLP with manual forward/backward passes and masked SGD.

Everything operates on a flat float64 parameter vector so that pruning
masks, region-wise averaging, and parameter accounting can all index the
same address space. Layer l occupies [W_l | b_l] slices of the flat
vector, with W_l stored row-major as (fan_in, fan_out).

The optimizer step works in place: `masked_sgd_step` overwrites the
parameter values, the momentum buffer and the gradient it is given, and
returns the same objects. A local training step allocates no full-length
vector besides the gradient `loss_and_grad` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LayerSlices:
    weight_start: int
    weight_len: int
    bias_start: int
    bias_len: int

    @property
    def weights(self) -> slice:
        return slice(self.weight_start, self.weight_start + self.weight_len)

    @property
    def biases(self) -> slice:
        return slice(self.bias_start, self.bias_start + self.bias_len)


@dataclass(frozen=True)
class LayerLayout:
    """Shape metadata for the flat parameter vector of an MLP."""

    layer_sizes: tuple[int, ...]
    offsets: tuple[LayerSlices, ...] = field(init=False)
    total: int = field(init=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("layer_sizes needs at least an input and an output layer")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        offsets = []
        cursor = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            wlen = fan_in * fan_out
            offsets.append(LayerSlices(cursor, wlen, cursor + wlen, fan_out))
            cursor += wlen + fan_out
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "total", cursor)

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    def weight_mask(self) -> np.ndarray:
        """Boolean vector marking weight-matrix (non-bias) positions."""
        is_weight = np.zeros(self.total, dtype=bool)
        for sl in self.offsets:
            is_weight[sl.weights] = True
        return is_weight

    def unpack(self, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Views of (W_l, b_l) per layer; W_l reshaped to (fan_in, fan_out)."""
        out = []
        for l, sl in enumerate(self.offsets):
            w = values[sl.weights].reshape(self.layer_sizes[l], self.layer_sizes[l + 1])
            b = values[sl.biases]
            out.append((w, b))
        return out


@dataclass
class ParamVector:
    """Flat float64 parameter vector tied to its layer layout."""

    values: np.ndarray
    layout: LayerLayout

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.layout.total,):
            raise ValueError(
                f"parameter vector length {self.values.shape} does not match layout total {self.layout.total}"
            )

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout)


@dataclass
class Batch:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ValueError("batch inputs must be 2-D (batch x features)")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("labels must be 1-D and match the batch size")

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass
class OptimizerState:
    """SGD-with-momentum state over the flat vector."""

    momentum_buffer: np.ndarray
    momentum_coef: float = 0.0
    learning_rate: float = 0.01

    def __post_init__(self):
        self.momentum_buffer = np.asarray(self.momentum_buffer, dtype=np.float64)
        if not 0.0 <= self.momentum_coef < 1.0:
            raise ValueError("momentum_coef must be in [0, 1)")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be non-negative")

    @classmethod
    def fresh(cls, layout: LayerLayout, learning_rate: float, momentum_coef: float = 0.0):
        return cls(np.zeros(layout.total), momentum_coef, learning_rate)


def _mask_bits(mask) -> np.ndarray:
    # accepts a pruning.Mask or a raw 0/1 vector
    bits = getattr(mask, "bits", mask)
    return np.asarray(bits)


def init_params(layout: LayerLayout, seed: int) -> ParamVector:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    values = np.zeros(layout.total)
    for l, sl in enumerate(layout.offsets):
        bound = 1.0 / np.sqrt(layout.layer_sizes[l])
        values[sl.weights] = rng.uniform(-bound, bound, sl.weight_len)
    return ParamVector(values, layout)


def forward(params: ParamVector, batch: Batch) -> np.ndarray:
    """Logits for a batch: affine layers with ReLU in between, linear output."""
    layout = params.layout
    if batch.inputs.shape[1] != layout.input_dim:
        raise ValueError(
            f"input dim {batch.inputs.shape[1]} does not match layout input {layout.input_dim}"
        )
    a = batch.inputs
    layers = layout.unpack(params.values)
    for l, (w, b) in enumerate(layers):
        z = a @ w + b
        a = np.maximum(z, 0.0) if l < len(layers) - 1 else z
    return a


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_grad(params: ParamVector, batch: Batch) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its exact gradient via backprop."""
    layout = params.layout
    n = len(batch)
    if n == 0:
        raise ValueError("empty batch")
    if batch.labels.max(initial=-1) >= layout.num_classes:
        raise ValueError("label out of range for the output layer")

    layers = layout.unpack(params.values)
    # forward, caching pre/post activations
    acts = [batch.inputs]
    pre = []
    a = batch.inputs
    for l, (w, b) in enumerate(layers):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0) if l < len(layers) - 1 else z
        acts.append(a)

    logp = _log_softmax(acts[-1])
    loss = float(-logp[np.arange(n), batch.labels].mean())

    grad = np.empty(layout.total)  # every weight and bias slice is written below
    # dL/dlogits for mean cross-entropy
    delta = np.exp(logp)
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n
    for l in range(len(layers) - 1, -1, -1):
        w, _ = layers[l]
        sl = layout.offsets[l]
        np.matmul(acts[l].T, delta, out=grad[sl.weights].reshape(w.shape))
        np.sum(delta, axis=0, out=grad[sl.biases])
        if l > 0:
            delta = delta @ w.T
            delta[pre[l - 1] <= 0.0] = 0.0  # ReLU subgradient at 0 taken as 0
    return loss, grad


def masked_sgd_step(
    params: ParamVector, grad: np.ndarray, mask, opt: OptimizerState
) -> tuple[ParamVector, OptimizerState]:
    """One SGD-with-momentum step on the mask-selected coordinates, in place.

    Updates `params.values` and `opt.momentum_buffer` in place and returns
    the same `params` and `opt` objects. `grad` is consumed: it is used as
    scratch space and holds no gradient afterwards.

    The gradient is masked before entering the momentum buffer, so
    coordinates that start at exactly zero stay exactly zero. The order is
    g = grad*bits, buf = coef*buf + g, values -= lr*buf.
    """
    bits = _mask_bits(mask)
    if not (len(grad) == len(bits) == params.layout.total):
        raise ValueError("params, grad, and mask lengths differ")
    buf = opt.momentum_buffer
    np.multiply(grad, bits, out=grad)
    buf *= opt.momentum_coef
    buf += grad
    np.multiply(opt.learning_rate, buf, out=grad)
    params.values -= grad
    return params, opt


def dataset_loss_and_grad(
    params: ParamVector, inputs: np.ndarray, labels: np.ndarray, batch_size: int = 128
) -> tuple[float, np.ndarray]:
    """Exact full-dataset mean loss and gradient, accumulated in chunks."""
    n = len(labels)
    if n == 0:
        raise ValueError("empty dataset")
    total_loss = 0.0
    total_grad = np.zeros(params.layout.total)
    for start in range(0, n, batch_size):
        chunk = Batch(inputs[start : start + batch_size], labels[start : start + batch_size])
        loss, grad = loss_and_grad(params, chunk)
        total_loss += loss * len(chunk)
        grad *= len(chunk)
        total_grad += grad
    return total_loss / n, total_grad / n


def evaluate(params: ParamVector, mask, dataset, batch_size: int = 128) -> tuple[float, float]:
    """(mean loss, accuracy) of the mask-pruned model over a dataset.

    Argmax ties resolve to the lowest class index. `mask=None` evaluates
    the parameters as-is.
    """
    inputs = np.asarray(dataset.inputs, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    n = len(labels)
    if n == 0:
        raise ValueError("empty dataset")
    if mask is not None:
        bits = _mask_bits(mask)
        eval_params = ParamVector(np.where(bits != 0, params.values, 0.0), params.layout)
    else:
        eval_params = params
    total_loss = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        chunk = Batch(inputs[start : start + batch_size], labels[start : start + batch_size])
        logits = forward(eval_params, chunk)
        logp = _log_softmax(logits)
        total_loss += float(-logp[np.arange(len(chunk)), chunk.labels].sum())
        correct += int((logits.argmax(axis=1) == chunk.labels).sum())
    return total_loss / n, correct / n
