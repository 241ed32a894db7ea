"""Minimal MLP with manual forward/backward passes and masked SGD.

Everything operates on a flat float64 parameter vector so that pruning
masks, region-wise averaging, and parameter accounting can all index the
same address space, which `spec.LayerLayout` lays out.

One layer loop (`_activations`) and one backward pass (`_backward`) serve
both a training minibatch (`loss_and_grad`) and a chunked pass over a
whole dataset (`evaluate`), which returns loss, accuracy and the
full-dataset gradient from the same forward pass.

The training kernel takes one vector, shape (total,), with inputs (B, in),
or a stack of g vectors, shape (g, total), with inputs (g, B, in): row i
trains on batch i. Each slice of a stacked product is the same BLAS call
as the unstacked product, so a row of a stacked step gets exactly the
bits it would get alone.

The optimizer step works in place: `masked_sgd_step` overwrites the
parameter values, the momentum buffer and the gradient it is given; it
takes the buffer and its two coefficients as plain arguments.
A `ParamVector` makes its per-layer views once, when it is built
(`layers`); the layer loop adds each bias and applies ReLU in place.
`loss_and_grad` writes through the `layers` of an `out=` `ParamVector`, so
a step sets up no views of the parameters or the gradient. The backward
pass gates ReLU branch-free, with a bitwise AND on the error's bits.

`evaluate` spreads its chunks over the lanes (`fedprune.lanes`): each lane
computes one chunk's loss sum, correct count and gradient into its own
slot (whose layer views are made once per call) and then, in its ordered
commit, adds them to the totals in chunk order, so every lane count gives
the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lanes
from .spec import LayerLayout


@dataclass(frozen=True)
class ParamVector:
    """Flat float64 parameter vector tied to its layer layout.

    `values` is one vector (total,), or a stack (g, total) of g vectors that
    the layer loop and the SGD step advance together, one per row. `layers`
    is `layout.unpack(values)`, made once: the views alias `values`, so
    in-place updates show through them, and the frozen fields keep `values`
    from being replaced under them.
    """

    values: np.ndarray
    layout: LayerLayout
    layers: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[-1] != self.layout.total:
            raise ValueError(
                f"parameter vector length {values.shape} does not match layout total {self.layout.total}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "layers", self.layout.unpack(values))


def init_params(layout: LayerLayout, seed: int) -> ParamVector:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    values = np.zeros(layout.total)
    for l, sl in enumerate(layout.offsets):
        bound = 1.0 / np.sqrt(layout.layer_sizes[l])
        values[sl.weights] = rng.uniform(-bound, bound, sl.weight_len)
    return ParamVector(values, layout)


def _activations(params: ParamVector, inputs: np.ndarray) -> list[np.ndarray]:
    """[inputs, a_1, ..., logits]: affine layers with ReLU in between, linear output.

    One vector takes inputs (B, in); a stack of g vectors takes (g, B, in).
    """
    layout, values = params.layout, params.values
    if inputs.ndim != values.ndim + 1:
        raise ValueError(
            "batch inputs must be 2-D (batch x features)" if values.ndim == 1
            else "stacked batch inputs must be 3-D (slot x batch x features)"
        )
    if inputs.shape[-1] != layout.input_dim:
        raise ValueError(
            f"input dim {inputs.shape[-1]} does not match layout input {layout.input_dim}"
        )
    if inputs.shape[:-2] != values.shape[:-1]:
        raise ValueError("stacked inputs need one batch per parameter vector")
    acts = [inputs]
    layers = params.layers
    for l, (w, b) in enumerate(layers):
        z = acts[-1] @ w
        z += b[..., None, :]
        if l < len(layers) - 1:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def forward(params: ParamVector, inputs) -> np.ndarray:
    """Logits for inputs (B, in), or (g, B, in) for a stack of g vectors."""
    return _activations(params, np.asarray(inputs, dtype=np.float64))[-1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Every label must name an output unit: 0 <= label < num_classes."""
    if labels.size and labels.view(np.uint64).max() >= num_classes:  # a negative label wraps high
        raise ValueError(f"label out of range for the output layer ({num_classes} classes)")


def _label_index(labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index of each row's label column: `logp[_label_index(labels)]` has labels' shape.

    Labels are (B,) for one vector or (g, B) for a stack.
    """
    *lead, rows = labels.shape
    return (*(np.arange(n)[:, None] for n in lead), np.arange(rows), labels)


def _relu_gate(delta: np.ndarray, act: np.ndarray) -> None:
    """`np.putmask(delta, act <= 0, 0)`: an AND keeps all bits where `not act <= 0`, none elsewhere."""
    bits = delta.view(np.int64)
    np.bitwise_and(bits, np.add(act <= 0.0, -1, dtype=np.int64), out=bits)


def _backward(
    params: ParamVector, acts: list[np.ndarray], logp: np.ndarray,
    pick: tuple[np.ndarray, ...], grads: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Gradient of each batch's mean cross-entropy via backprop, written into `grads`.

    `pick` is `_label_index(labels)` for the batch's labels; `grads` is the
    gradient vector's `layers`.
    """
    layers = params.layers
    # dL/dlogits for mean cross-entropy
    delta = np.exp(logp)
    delta[pick] -= 1.0
    delta /= logp.shape[-2]
    for l in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grads[l]
        np.matmul(acts[l].swapaxes(-1, -2), delta, out=grad_w)
        np.add.reduce(delta, axis=-2, out=grad_b)
        if l > 0:
            delta = delta @ layers[l][0].swapaxes(-1, -2)
            _relu_gate(delta, acts[l])


def loss_and_grad(
    params: ParamVector, inputs, labels, out: ParamVector | None = None
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy of a batch and its exact gradient.

    One vector (total,) takes inputs (B, in) and labels (B,) and returns a
    float loss. A stack (g, total) takes inputs (g, B, in) and labels (g, B)
    and returns g losses; row i of its gradient has the bits the unstacked
    call gives row i alone. The gradient is written through the `layers` of
    `out`, a `ParamVector` like `params`, or a new one; its `values` return.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    lead = params.values.ndim
    if labels.ndim != lead or labels.shape != inputs.shape[:lead]:
        raise ValueError("labels must match the batch size, one label per input row")
    if labels.shape[-1] == 0:
        raise ValueError("empty batch")
    _check_labels(labels, params.layout.num_classes)
    if out is None:  # every weight and bias slice is written below
        out = ParamVector(np.empty(params.values.shape), params.layout)
    elif not (isinstance(out, ParamVector) and out.values.shape == params.values.shape
              and out.layout == params.layout):
        raise ValueError("gradient buffer must be a ParamVector of the parameters' shape and layout")
    acts = _activations(params, inputs)
    logp = _log_softmax(acts[-1])
    pick = _label_index(labels)
    loss = -(np.add.reduce(logp[pick], axis=-1) / labels.shape[-1])  # the arithmetic of .mean()
    _backward(params, acts, logp, pick, out.layers)
    return (float(loss) if loss.ndim == 0 else loss), out.values


def masked_sgd_step(
    params: ParamVector, grad: np.ndarray, bits: np.ndarray, momentum: np.ndarray, coef: float, lr: float
) -> None:
    """One SGD-with-momentum step on the coordinates where `bits` is 1, in place.

    `params.values`, `grad`, `bits` (a mask's 0/1 bits) and the float64
    `momentum` buffer share one shape: (total,), or (g, total) for a stack
    of g vectors stepped together. The values and the momentum buffer are
    updated in place; `grad` is consumed as scratch space. `coef` is the
    momentum coefficient and `lr` the learning rate, which the caller has
    checked (`FederationConfig` does).

    The gradient is masked before entering the momentum buffer, so
    coordinates that start at exactly zero stay exactly zero. The order is
    g = grad*bits, buf = coef*buf + g, values -= lr*buf.
    """
    values = params.values
    if not (grad.shape == np.shape(bits) == momentum.shape == values.shape):
        raise ValueError("params, grad, mask and momentum buffer shapes differ")
    np.multiply(grad, bits, out=grad)
    momentum *= coef
    momentum += grad
    np.multiply(lr, momentum, out=grad)
    values -= grad


def evaluate(
    params: ParamVector, dataset, batch_size: int = 128
) -> tuple[float, float, np.ndarray]:
    """(mean loss, accuracy, mean gradient) over a dataset, in chunks.

    One forward pass per chunk gives the loss, the argmax accuracy (ties
    resolve to the lowest class index) and the exact full-dataset gradient
    of the mean loss.

    Chunks run on the lanes: lane j computes chunk j, j + L, ...'s loss
    sum, correct count and count-weighted gradient into its own slot, and
    its ordered commit adds them to the totals in chunk order, so the sums
    do not depend on L.
    """
    inputs = np.asarray(dataset.inputs, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    if labels.shape != inputs.shape[:1]:
        raise ValueError("labels must be 1-D and match the batch size")
    n = len(labels)
    if n == 0:
        raise ValueError("empty dataset")
    _check_labels(labels, params.layout.num_classes)
    starts = range(0, n, batch_size)
    width = min(lanes.width(min(batch_size, n) * params.layout.total), len(starts))
    loss_sums, corrects = [0.0] * width, [0] * width
    total_grad = np.zeros(params.layout.total)
    work = np.empty((width, params.layout.total))  # each lane's chunk gradient, reused
    grads = [params.layout.unpack(row) for row in work]
    total_loss = 0.0
    correct = 0

    def chunk(start: int, lane: int) -> None:
        chunk_labels = labels[start : start + batch_size]
        acts = _activations(params, inputs[start : start + batch_size])
        logp = _log_softmax(acts[-1])
        pick = _label_index(chunk_labels)
        loss_sums[lane] = float(-logp[pick].sum())
        corrects[lane] = int((acts[-1].argmax(axis=-1) == chunk_labels).sum())
        _backward(params, acts, logp, pick, grads[lane])
        work[lane] *= len(chunk_labels)

    def add(start: int, lane: int) -> None:
        nonlocal total_loss, correct, total_grad
        total_loss += loss_sums[lane]
        correct += corrects[lane]
        total_grad += work[lane]

    lanes.on_lanes(starts, chunk, width, commit=add)
    return total_loss / n, correct / n, total_grad / n
