"""Test helpers for the files fedprune reads and writes: an IDX writer and a
metrics-CSV reader."""

import csv
import struct

import numpy as np

from fedprune.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, Dataset
from fedprune.metrics import CSV_HEADER


def write_idx(dataset: Dataset, images_path, labels_path, rows: int | None = None,
              cols: int | None = None) -> None:
    """Inverse of load_idx for fixture building; inputs must be k/255 values."""
    n, d = dataset.inputs.shape
    if rows is None or cols is None:
        side = int(round(d ** 0.5))
        rows, cols = (side, side) if side * side == d else (1, d)
    if rows * cols != d:
        raise ValueError(f"rows*cols = {rows * cols} does not match feature count {d}")
    pixels = np.rint(dataset.inputs * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABELS_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def read_metrics_csv(source) -> list[dict]:
    """Parse an emitted CSV back into typed rows (round-trip oracle)."""
    reader = csv.DictReader(source)
    if reader.fieldnames != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {reader.fieldnames}")
    out = []
    for row in reader:
        parsed = {k: float(row[k]) for k in CSV_HEADER}
        parsed["round"] = int(row["round"])
        parsed["gamma_min"] = int(row["gamma_min"])
        out.append(parsed)
    return out
