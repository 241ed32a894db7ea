"""Dataset loading (IDX), synthetic blob generation, and client partitioning.

`synth_blobs` and `load_idx` write a set's inputs in place, with no
temporaries, in numpy loops (and, for gzipped files, zlib's inflate) that
release the GIL; so `federation.build_federated_data`, once per command,
can build the train and test set on two lanes at once, when they are large
enough to be worth it (`lanes.MIN_WORK`); each seed then only partitions.
`partition` checks only what needs the data: `spec.FederationConfig`
checks the partition mode (one of `spec.PARTITIONS`) and the counts before
any data is read.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np

from .spec import PARTITIONS

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray  # (n, features) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2 or labels.shape != (inputs.shape[0],):
            raise ValueError("inputs must be (n, d) with one label per row")
        if len(labels) and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def num_features(self) -> int:
        return self.inputs.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.inputs[idx], self.labels[idx], self.num_classes)


# ---------------------------------------------------------------------------
# IDX format
# ---------------------------------------------------------------------------


def _open_maybe_gzip(path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path, magic: int, ndim: int) -> tuple[np.ndarray, list[int]]:
    """(flat uint8 payload, the `ndim` sizes) of an IDX file whose header starts with `magic`.

    The header is outside input: its sizes are checked against the bytes the
    file holds, read a megabyte at a time, so a size the file does not back
    is a malformed file, never a request for that many bytes.
    """
    with _open_maybe_gzip(path) as f:
        def take(n: int) -> bytearray:
            data = bytearray()
            while len(data) < n and (chunk := f.read(min(n - len(data), 1 << 20))):
                data += chunk  # grows in place: a gzipped file is not held twice
            if len(data) < n:
                raise IdxFormatError(f"truncated IDX file {path}: wanted {n} bytes, got {len(data)}")
            return data

        found, *shape = struct.unpack(f">{1 + ndim}i", take(4 * (1 + ndim)))
        if found != magic:
            raise IdxFormatError(f"bad magic {found:#010x} in {path}, expected {magic:#010x}")
        if min(shape) < 0:
            raise IdxFormatError(f"negative size in the header of {path}: {shape}")
        return np.frombuffer(take(math.prod(shape)), dtype=np.uint8), shape


def load_idx(images_path, labels_path) -> Dataset:
    """Big-endian IDX image/label pair -> Dataset: pixels scaled by 1/255, max label + 1 classes."""
    pixels, (count, rows, cols) = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    images = pixels.reshape(count, rows * cols)
    labels, _ = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if len(images) != len(labels):
        raise IdxFormatError(f"count mismatch: {len(images)} images in {images_path} vs "
                             f"{len(labels)} labels in {labels_path}")
    num_classes = int(labels.max()) + 1 if len(labels) else 0
    inputs = images.astype(np.float64)
    inputs /= 255.0  # in place: no second float64 copy of the images
    return Dataset(inputs, labels.astype(np.int64), num_classes)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def synth_blobs(
    num_classes: int, samples_per_class: int, dim: int, spread: float, seed: int
) -> Dataset:
    """Gaussian blobs: class c centered at 3*e_c with isotropic noise `spread`.

    Each class block is filled in place, with no temporaries: the bits are
    those of `3*e_c + rng.normal(0.0, spread, shape)`, since `normal` draws
    `0.0 + spread * z` from the stream `standard_normal` fills with.
    """
    if dim < num_classes:
        raise ValueError("dim must be >= num_classes so every class gets its own axis")
    if np.signbit(spread) and not np.isnan(spread):  # the scales rng.normal rejects
        raise ValueError(f"spread must be non-negative, got {spread}")
    rng = np.random.default_rng(seed)
    inputs = np.empty((num_classes * samples_per_class, dim))
    for c in range(num_classes):
        block = inputs[c * samples_per_class : (c + 1) * samples_per_class]
        rng.standard_normal(out=block)
        block *= spread
        block += 0.0  # the +0.0 of `0.0 + spread * z`: spread 0 gives +0.0, not -0.0
        block[:, c] += 3.0
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    return Dataset(inputs, labels, num_classes)


# ---------------------------------------------------------------------------
# Client partitioning
# ---------------------------------------------------------------------------


def partition(dataset: Dataset, mode: str, num_clients: int, classes_per_client: int,
              seed: int) -> list[np.ndarray]:
    """Split sample indices across clients; exact partition in either mode.

    iid: seed-shuffled equal-size (+-1) shards.
    label-skew: sort by label, cut each class into label-pure shards
    (num_clients * classes_per_client shards in total, spread across the
    classes proportionally to their frequency), shuffle the shards, and
    deal classes_per_client of them to each client. Every client therefore
    sees at most classes_per_client distinct labels.
    """
    if mode not in PARTITIONS:
        raise ValueError(f"unknown partition mode {mode!r}")
    n = len(dataset)
    if n < num_clients:
        raise ValueError(f"cannot split {n} samples across {num_clients} clients")
    rng = np.random.default_rng(seed)

    if mode == "iid":
        perm = rng.permutation(n)
        return [np.sort(s) for s in np.array_split(perm, num_clients)]

    if classes_per_client > dataset.num_classes:
        raise ValueError("classes_per_client exceeds the number of classes")
    total_shards = num_clients * classes_per_client
    class_indices = [np.flatnonzero(dataset.labels == c) for c in range(dataset.num_classes)]
    class_counts = np.array([len(ci) for ci in class_indices])
    nonempty = np.flatnonzero(class_counts)
    if total_shards < len(nonempty):
        raise ValueError(
            f"{total_shards} shards cannot cover {len(nonempty)} populated classes"
        )

    # proportional shard allocation, largest remainder, >= 1 per populated class
    quota = class_counts[nonempty] * total_shards / n
    shards_per_class = np.maximum(np.floor(quota).astype(int), 1)
    remainder = total_shards - shards_per_class.sum()
    if remainder < 0:
        # floors of small classes were bumped to 1; take shards back from the largest quotas
        for i in np.argsort(-quota):
            while remainder < 0 and shards_per_class[i] > 1:
                shards_per_class[i] -= 1
                remainder += 1
    else:
        order = np.argsort(-(quota - np.floor(quota)), kind="stable")
        for i in order[:remainder]:
            shards_per_class[i] += 1
    if (shards_per_class > class_counts[nonempty]).any():
        raise ValueError("too few samples per class for a label-pure shard split")

    shards: list[np.ndarray] = []
    for i, c in enumerate(nonempty):
        members = class_indices[c].copy()
        rng.shuffle(members)
        shards.extend(np.array_split(members, shards_per_class[i]))
    deal = rng.permutation(len(shards))
    out = []
    for k in range(num_clients):
        take = deal[k * classes_per_client : (k + 1) * classes_per_client]
        out.append(np.sort(np.concatenate([shards[j] for j in take])))
    return out


def stratified_subset(dataset: Dataset, size: int, seed: int) -> Dataset:
    """Class-balanced random subset of `size` samples (largest-remainder split)."""
    if size > len(dataset):
        raise ValueError("subset size exceeds dataset size")
    rng = np.random.default_rng(seed)
    counts = np.bincount(dataset.labels, minlength=dataset.num_classes)
    quota = counts * size / len(dataset)
    take = np.floor(quota).astype(int)
    order = np.argsort(-(quota - np.floor(quota)), kind="stable")
    for c in order[: size - take.sum()]:
        take[c] += 1
    chosen = []
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        chosen.append(rng.choice(members, size=min(take[c], len(members)), replace=False))
    idx = np.sort(np.concatenate(chosen))
    return dataset.subset(idx)
