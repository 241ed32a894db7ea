import gzip
import math
import re
import struct

import numpy as np
import pytest
from file_formats import write_idx
from hypothesis import given, settings, strategies as st

from fedprune.data import (
    Dataset,
    IdxFormatError,
    load_idx,
    partition,
    stratified_subset,
    synth_blobs,
)

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


def tiny_idx_bytes():
    # 2 images of 2x2 pixels: all-0 and all-255; labels 0 and 1
    images = struct.pack(">iiii", IMAGES_MAGIC, 2, 2, 2) + bytes([0, 0, 0, 0, 255, 255, 255, 255])
    labels = struct.pack(">ii", LABELS_MAGIC, 2) + bytes([0, 1])
    return images, labels


def write_pair(tmp_path, images, labels, gz=False):
    ipath, lpath = tmp_path / "images.idx", tmp_path / "labels.idx"
    if gz:
        images, labels = gzip.compress(images), gzip.compress(labels)
    ipath.write_bytes(images)
    lpath.write_bytes(labels)
    return ipath, lpath


# ---------------------------------------------------------------------------
# IDX loading
# ---------------------------------------------------------------------------


def test_load_idx_fixture(tmp_path):
    images, labels = tiny_idx_bytes()
    dataset = load_idx(*write_pair(tmp_path, images, labels))
    assert np.array_equal(dataset.inputs, [[0, 0, 0, 0], [1, 1, 1, 1]])
    assert dataset.labels.tolist() == [0, 1]
    assert dataset.num_classes == 2


def test_load_idx_gzip_variant(tmp_path):
    images, labels = tiny_idx_bytes()
    dataset = load_idx(*write_pair(tmp_path, images, labels, gz=True))
    assert np.array_equal(dataset.inputs, [[0, 0, 0, 0], [1, 1, 1, 1]])


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
def test_load_idx_scales_as_the_out_of_place_division(tmp_path, gz):
    rng = np.random.default_rng(4)
    pixels = rng.integers(0, 256, (50, 28 * 28))
    write_idx(Dataset(pixels / 255.0, rng.integers(0, 10, 50), 10),
              tmp_path / "images", tmp_path / "labels")
    if gz:
        for name in ("images", "labels"):
            (tmp_path / name).write_bytes(gzip.compress((tmp_path / name).read_bytes()))
    dataset = load_idx(tmp_path / "images", tmp_path / "labels")
    want = pixels.astype(np.uint8).astype(np.float64) / 255.0
    assert dataset.inputs.tobytes() == want.tobytes()


def test_load_idx_rejects_swapped_magic(tmp_path):
    images, labels = tiny_idx_bytes()
    bad = struct.pack(">iiii", LABELS_MAGIC, 2, 2, 2) + images[16:]
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx(*write_pair(tmp_path, bad, labels))


def test_load_idx_rejects_truncation(tmp_path):
    images, labels = tiny_idx_bytes()
    with pytest.raises(IdxFormatError, match="truncated"):
        load_idx(*write_pair(tmp_path, images[:-1], labels))


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("file, sizes", [
    ("images", (-2, 2, 2)), ("images", (2, 2, -2)), ("labels", (-1,)),
    ("images", (2**30, 2**15, 2**16)),  # 2**61 bytes: more than any address space
    ("labels", (2**31 - 1,)),
], ids=["negative-count", "negative-row-size", "negative-label-count", "2**61-pixels",
        "2**31-labels"])
def test_load_idx_checks_header_sizes_against_the_bytes_the_file_holds(tmp_path, gz, file, sizes):
    images, labels = tiny_idx_bytes()
    if file == "images":
        images = struct.pack(">iiii", IMAGES_MAGIC, *sizes) + images[16:]
        path, held = write_pair(tmp_path, images, labels, gz)[0], len(images) - 16
    else:
        labels = struct.pack(">ii", LABELS_MAGIC, *sizes) + labels[8:]
        path, held = write_pair(tmp_path, images, labels, gz)[1], len(labels) - 8
    if min(sizes) < 0:  # refused before any payload is read
        want = f"negative size in the header of {path}: {list(sizes)}"
    else:  # a size the file does not hold is a short file, not a request for that many bytes
        want = f"truncated IDX file {path}: wanted {math.prod(sizes)} bytes, got {held}"
    with pytest.raises(IdxFormatError, match=f"^{re.escape(want)}$"):
        load_idx(tmp_path / "images.idx", tmp_path / "labels.idx")


def test_load_idx_rejects_count_mismatch(tmp_path):
    images, _ = tiny_idx_bytes()
    labels3 = struct.pack(">ii", LABELS_MAGIC, 3) + bytes([0, 1, 0])
    ipath, lpath = write_pair(tmp_path, images, labels3)
    want = f"count mismatch: 2 images in {ipath} vs 3 labels in {lpath}"
    with pytest.raises(IdxFormatError, match=f"^{re.escape(want)}$"):
        load_idx(ipath, lpath)


def test_load_idx_flattens_28x28(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (3, 28 * 28), dtype=np.uint8)
    images = struct.pack(">iiii", IMAGES_MAGIC, 3, 28, 28) + pixels.tobytes()
    labels = struct.pack(">ii", LABELS_MAGIC, 3) + bytes([7, 0, 9])
    dataset = load_idx(*write_pair(tmp_path, images, labels))
    assert dataset.inputs.shape == (3, 784)
    assert np.allclose(dataset.inputs, pixels / 255.0)


def test_idx_round_trip(tmp_path):
    images, labels = tiny_idx_bytes()
    dataset = load_idx(*write_pair(tmp_path, images, labels))
    write_idx(dataset, tmp_path / "out.idx", tmp_path / "out-labels.idx")
    again = load_idx(tmp_path / "out.idx", tmp_path / "out-labels.idx")
    assert np.array_equal(dataset.inputs, again.inputs)
    assert np.array_equal(dataset.labels, again.labels)


# ---------------------------------------------------------------------------
# synthetic blobs
# ---------------------------------------------------------------------------


def test_blobs_zero_spread_sits_on_centers():
    dataset = synth_blobs(num_classes=3, samples_per_class=5, dim=4, spread=0.0, seed=1)
    for c in range(3):
        rows = dataset.inputs[dataset.labels == c]
        center = np.zeros(4)
        center[c] = 3.0
        assert np.array_equal(rows, np.tile(center, (5, 1)))
    # nearest-centroid classifies perfectly
    centers = 3.0 * np.eye(3, 4)
    predicted = np.argmin(
        ((dataset.inputs[:, None, :] - centers[None]) ** 2).sum(-1), axis=1
    )
    assert (predicted == dataset.labels).all()


def test_blobs_deterministic_per_seed():
    a = synth_blobs(4, 10, 6, 0.3, seed=9)
    b = synth_blobs(4, 10, 6, 0.3, seed=9)
    c = synth_blobs(4, 10, 6, 0.3, seed=10)
    assert np.array_equal(a.inputs, b.inputs)
    assert not np.array_equal(a.inputs, c.inputs)


def test_blobs_reject_dim_smaller_than_classes():
    with pytest.raises(ValueError):
        synth_blobs(5, 3, 4, 0.1, seed=0)


@pytest.mark.parametrize("spread", [-1.0, -0.0])
def test_blobs_reject_the_spreads_rng_normal_rejects(spread):
    with pytest.raises(ValueError, match="spread must be non-negative"):
        synth_blobs(3, 4, 5, spread, seed=0)


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


def test_iid_partition_even_shards():
    dataset = synth_blobs(10, 10, 10, 0.1, seed=2)
    shards = partition(dataset, "iid", 10, 2, 3)
    assert len(shards) == 10
    assert all(len(s) == 10 for s in shards)
    joined = np.concatenate(shards)
    assert sorted(joined.tolist()) == list(range(100))


def test_label_skew_cardinality_bound():
    dataset = synth_blobs(10, 100, 10, 0.1, seed=4)
    shards = partition(dataset, "label-skew", 10, 2, 5)
    for shard in shards:
        assert len(np.unique(dataset.labels[shard])) <= 2
    joined = np.concatenate(shards)
    assert sorted(joined.tolist()) == list(range(1000))


def test_label_skew_is_actually_skewed():
    dataset = synth_blobs(10, 100, 10, 0.1, seed=4)
    shards = partition(dataset, "label-skew", 10, 2, 5)
    cardinalities = [len(np.unique(dataset.labels[s])) for s in shards]
    assert max(cardinalities) <= 2
    assert min(len(s) for s in shards) > 0


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(["iid", "label-skew"]),
    num_clients=st.integers(3, 12),  # 2 clients x 2 classes cannot cover 5 classes
    seed=st.integers(0, 2**31),
)
def test_partition_is_exact(mode, num_clients, seed):
    dataset = synth_blobs(5, 30, 6, 0.2, seed=6)
    shards = partition(dataset, mode, num_clients, 2, seed)
    joined = np.concatenate(shards)
    assert len(joined) == len(dataset)
    assert len(np.unique(joined)) == len(dataset)
    if mode == "label-skew":
        for shard in shards:
            assert len(np.unique(dataset.labels[shard])) <= 2


def test_partition_determinism():
    dataset = synth_blobs(4, 25, 5, 0.2, seed=7)
    a = partition(dataset, "label-skew", 5, 2, 8)
    b = partition(dataset, "label-skew", 5, 2, 8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_partition_rejects_a_mode_outside_partitions():
    dataset = synth_blobs(2, 10, 3, 0.1, seed=0)
    with pytest.raises(ValueError, match="^unknown partition mode 'foo'$"):
        partition(dataset, "foo", 5, 2, 0)


def test_partition_rejects_more_clients_than_samples():
    dataset = synth_blobs(2, 2, 3, 0.1, seed=0)
    with pytest.raises(ValueError):
        partition(dataset, "iid", 5, 2, 0)


def test_label_skew_rejects_too_few_samples_per_class():
    inputs = np.random.default_rng(1).normal(size=(7, 3))
    labels = np.array([0, 0, 0, 0, 1, 1, 1])
    dataset = Dataset(inputs, labels, 2)
    with pytest.raises(ValueError):
        partition(dataset, "label-skew", 5, 2, 0)


def test_label_skew_takes_shards_back_from_the_largest_class():
    # 8 shards over 8 populated classes: the floors bump the seven singletons to one shard
    # each, so the 200-sample class gives back all but one of its 7
    labels = np.repeat(np.arange(8), [200, 1, 1, 1, 1, 1, 1, 1])
    dataset = Dataset(np.zeros((len(labels), 2)), labels, 8)
    shards = partition(dataset, "label-skew", 4, 2, 0)
    joined = np.concatenate(shards)
    assert sorted(joined.tolist()) == list(range(len(labels)))
    assert all(len(np.unique(labels[shard])) <= 2 for shard in shards)
    assert sorted(map(len, shards)) == [2, 2, 2, 201]


def test_label_skew_needs_a_shard_per_populated_class():
    dataset = synth_blobs(5, 10, 6, 0.1, seed=0)
    with pytest.raises(ValueError, match="^4 shards cannot cover 5 populated classes$"):
        partition(dataset, "label-skew", 2, 2, 0)


@pytest.mark.parametrize("inputs, labels", [
    (np.zeros(3), np.zeros(3)),
    (np.zeros((3, 2)), np.zeros(2)),
    (np.zeros((3, 2)), np.zeros((3, 1))),
])
def test_dataset_rejects_a_shape_without_one_label_per_row(inputs, labels):
    with pytest.raises(ValueError, match=re.escape("inputs must be (n, d) with one label per row")):
        Dataset(inputs, labels, 2)


@pytest.mark.parametrize("label", [-1, 2])
def test_dataset_rejects_labels_out_of_range(label):
    with pytest.raises(ValueError, match="^labels out of range for num_classes$"):
        Dataset(np.zeros((2, 2)), np.array([0, label]), 2)


def test_label_skew_rejects_too_many_classes_per_client():
    dataset = synth_blobs(3, 10, 4, 0.1, seed=0)
    with pytest.raises(ValueError):
        partition(dataset, "label-skew", 3, 4, 0)


# ---------------------------------------------------------------------------
# stratified subsets
# ---------------------------------------------------------------------------


def test_stratified_subset_balances_classes():
    dataset = synth_blobs(10, 100, 10, 0.2, seed=11)
    sub = stratified_subset(dataset, 200, seed=12)
    assert len(sub) == 200
    counts = np.bincount(sub.labels, minlength=10)
    assert (counts == 20).all()


def test_stratified_subset_rejects_oversize():
    dataset = synth_blobs(2, 5, 3, 0.2, seed=11)
    with pytest.raises(ValueError):
        stratified_subset(dataset, 11, seed=0)
