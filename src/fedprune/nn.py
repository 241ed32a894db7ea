"""Minimal MLP with manual forward/backward passes and masked SGD.

Everything operates on a flat float64 parameter vector so that pruning
masks, region-wise averaging, and parameter accounting can all index the
same address space. Layer l occupies [W_l | b_l] slices of the flat
vector, with W_l stored row-major as (fan_in, fan_out).

One layer loop (`_activations`) and one backward pass (`_backward`) serve
both a training minibatch (`loss_and_grad`) and a chunked pass over a
whole dataset (`evaluate`), which returns loss, accuracy and, on request,
the full-dataset gradient from the same forward pass.

The optimizer step works in place: `masked_sgd_step` overwrites the
parameter values, the momentum buffer and the gradient it is given, and
returns the same objects. A local training step allocates no full-length
vector besides the gradient `loss_and_grad` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .pruning import Mask


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
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

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


def init_params(layout: LayerLayout, seed: int) -> ParamVector:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    values = np.zeros(layout.total)
    for l, sl in enumerate(layout.offsets):
        bound = 1.0 / np.sqrt(layout.layer_sizes[l])
        values[sl.weights] = rng.uniform(-bound, bound, sl.weight_len)
    return ParamVector(values, layout)


def _activations(params: ParamVector, inputs: np.ndarray) -> list[np.ndarray]:
    """[inputs, a_1, ..., logits]: affine layers with ReLU in between, linear output."""
    layout = params.layout
    if inputs.ndim != 2:
        raise ValueError("batch inputs must be 2-D (batch x features)")
    if inputs.shape[1] != layout.input_dim:
        raise ValueError(
            f"input dim {inputs.shape[1]} does not match layout input {layout.input_dim}"
        )
    acts = [inputs]
    layers = layout.unpack(params.values)
    for l, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if l < len(layers) - 1 else z)
    return acts


def forward(params: ParamVector, inputs) -> np.ndarray:
    """Logits for a batch of inputs."""
    return _activations(params, np.asarray(inputs, dtype=np.float64))[-1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _backward(
    params: ParamVector, acts: list[np.ndarray], logp: np.ndarray, labels: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Gradient of the batch's mean cross-entropy via backprop, written into `out`."""
    layout = params.layout
    n = len(labels)
    layers = layout.unpack(params.values)
    # dL/dlogits for mean cross-entropy
    delta = np.exp(logp)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    for l in range(len(layers) - 1, -1, -1):
        w, _ = layers[l]
        sl = layout.offsets[l]
        np.matmul(acts[l].T, delta, out=out[sl.weights].reshape(w.shape))
        np.sum(delta, axis=0, out=out[sl.biases])
        if l > 0:
            delta = delta @ w.T
            delta[acts[l] <= 0.0] = 0.0  # ReLU subgradient at 0 taken as 0
    return out


def loss_and_grad(params: ParamVector, inputs, labels) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of a batch and its exact gradient."""
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != inputs.shape[:1]:
        raise ValueError("labels must be 1-D and match the batch size")
    n = len(labels)
    if n == 0:
        raise ValueError("empty batch")
    if labels.max(initial=-1) >= params.layout.num_classes:
        raise ValueError("label out of range for the output layer")
    acts = _activations(params, inputs)
    logp = _log_softmax(acts[-1])
    loss = float(-logp[np.arange(n), labels].mean())
    # every weight and bias slice is written by the backward pass
    return loss, _backward(params, acts, logp, labels, np.empty(params.layout.total))


def masked_sgd_step(
    params: ParamVector, grad: np.ndarray, mask: Mask, opt: OptimizerState
) -> tuple[ParamVector, OptimizerState]:
    """One SGD-with-momentum step on the mask-selected coordinates, in place.

    Updates `params.values` and `opt.momentum_buffer` in place and returns
    the same `params` and `opt` objects. `grad` is consumed: it is used as
    scratch space and holds no gradient afterwards.

    The gradient is masked before entering the momentum buffer, so
    coordinates that start at exactly zero stay exactly zero. The order is
    g = grad*bits, buf = coef*buf + g, values -= lr*buf.
    """
    bits = mask.bits
    if not (len(grad) == len(bits) == params.layout.total):
        raise ValueError("params, grad, and mask lengths differ")
    buf = opt.momentum_buffer
    np.multiply(grad, bits, out=grad)
    buf *= opt.momentum_coef
    buf += grad
    np.multiply(opt.learning_rate, buf, out=grad)
    params.values -= grad
    return params, opt


def evaluate(
    params: ParamVector, dataset, batch_size: int = 128, with_grad: bool = False
) -> tuple[float, float, np.ndarray | None]:
    """(mean loss, accuracy, mean gradient or None) over a dataset, in chunks.

    One forward pass per chunk gives the loss, the argmax accuracy (ties
    resolve to the lowest class index) and, with `with_grad`, the exact
    full-dataset gradient of the mean loss.
    """
    inputs = np.asarray(dataset.inputs, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    if labels.shape != inputs.shape[:1]:
        raise ValueError("labels must be 1-D and match the batch size")
    n = len(labels)
    if n == 0:
        raise ValueError("empty dataset")
    total_loss = 0.0
    correct = 0
    if with_grad:
        total_grad = np.zeros(params.layout.total)
        work = np.empty(params.layout.total)  # one chunk's gradient, reused
    for start in range(0, n, batch_size):
        chunk_labels = labels[start : start + batch_size]
        acts = _activations(params, inputs[start : start + batch_size])
        logp = _log_softmax(acts[-1])
        total_loss += float(-logp[np.arange(len(chunk_labels)), chunk_labels].sum())
        correct += int((acts[-1].argmax(axis=1) == chunk_labels).sum())
        if with_grad:
            _backward(params, acts, logp, chunk_labels, work)
            work *= len(chunk_labels)
            total_grad += work
    return total_loss / n, correct / n, total_grad / n if with_grad else None
