"""What the analytic commands and the round engine share, in the standard library alone.

The flat parameter layout of an MLP (`LayerLayout`); the codename rules:
mask families, the quartile segments each digit keeps, `segment_sizes`, the
one layout rule `check_layout`, a codename's per-segment coverage; and the
run config (`FederationConfig` with `SynthSpec` or `IdxSpec`), checked when
it is built. `fedprune account` and `coverage` need nothing else, so they
never load numpy or BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

FAMILIES = ("WP", "NP", "FS")

# digit -> kept quartile segments (1 = full model; 2-4 drop one quartile;
# 5-7 keep two quartiles, S1 always kept)
DIGIT_SEGMENTS: dict[str, frozenset[int]] = {
    "1": frozenset({1, 2, 3, 4}),
    "2": frozenset({1, 3, 4}),
    "3": frozenset({1, 2, 4}),
    "4": frozenset({1, 2, 3}),
    "5": frozenset({1, 2}),
    "6": frozenset({1, 3}),
    "7": frozenset({1, 4}),
}

PARTITIONS = ("iid", "label-skew")  # the client partition modes


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
    """Shape metadata for the flat parameter vector of an MLP.

    Layer l occupies [W_l | b_l] slices of the flat vector, with W_l stored
    row-major as (fan_in, fan_out).
    """

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

    def unpack(self, values) -> list[tuple]:
        """Views of (W_l, b_l) per layer; W_l reshaped to (..., fan_in, fan_out).

        `values` is one numpy vector (total,) or a stack (g, total); a
        stack's leading axis carries through to every view.
        """
        lead = values.shape[:-1]
        out = []
        for l, sl in enumerate(self.offsets):
            shape = (*lead, self.layer_sizes[l], self.layer_sizes[l + 1])
            out.append((values[..., sl.weights].reshape(shape), values[..., sl.biases]))
        return out


def segment_sizes(n: int) -> list[int]:
    """Sizes of S1..S4 for n ranked units: they differ by at most one, largest first.

    These are the sizes `np.array_split(ranking, 4)` gives.
    """
    if n < 4:
        raise ValueError("ranking must have at least 4 entries")
    return [n // 4 + (i < n % 4) for i in range(4)]


def check_layout(family: str, hidden: tuple[int, ...], first_weights: int | None = None) -> None:
    """Raise ValueError unless `family` has at least 4 units to split into S1..S4.

    `hidden` holds the hidden-layer sizes. NP and FS units are the neurons of
    the one hidden layer; WP units are the `first_weights` entries of the
    first layer's weight matrix, checked when that count is given (it needs
    the input width).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if family != "WP":
        # neuron pruning on deeper nets has no unambiguous reading
        if len(hidden) != 1 or hidden[0] < 4:
            raise ValueError(
                f"family {family} needs exactly one hidden layer of at least 4 neurons, "
                f"got {list(hidden)}"
            )
    elif first_weights is not None and first_weights < 4:
        raise ValueError(
            "family WP needs at least 4 entries in the first layer's weight matrix, "
            f"got {first_weights}"
        )


def codename_coverage(codename: str) -> tuple[dict[int, int], int]:
    """Per-quartile coverage counts for a codename and their minimum.

    Parameters outside every unit are kept by every slot, so the minimum
    over S1..S4 is the minimum coverage index of the whole model.
    """
    slots = parse_codename(codename)
    counts = {s: sum(s in kept for kept in slots) for s in (1, 2, 3, 4)}
    return counts, min(counts.values())


def parse_codename(codename: str) -> tuple[frozenset[int], ...]:
    """Digit string -> the quartile segments each participation slot keeps."""
    if not codename:
        raise ValueError("codename must be non-empty")
    bad = sorted(set(codename) - set(DIGIT_SEGMENTS))
    if bad:
        raise ValueError(f"codename may only contain digits 1-7, got {bad}")
    return tuple(DIGIT_SEGMENTS[d] for d in codename)


def _check_ranges(spec, prefix: str, counts: tuple[str, ...], seeds: tuple[str, ...]) -> None:
    """Counts must be >= 1 (or None) and seeds >= 0; an error names the key `prefix` + field."""
    for name in counts:
        value = getattr(spec, name)
        if value is not None and value < 1:
            raise ValueError(f"{prefix}{name} must be >= 1, got {value}")
    for name in seeds:
        value = getattr(spec, name)
        if value < 0:
            raise ValueError(f"{prefix}{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class SynthSpec:
    classes: int = 10
    samples_per_class: int = 100
    dim: int = 20
    spread: float = 0.3
    test_samples_per_class: int = 50
    data_seed: int = 0  # dataset is shared across run seeds, like real files

    def __post_init__(self):
        counts = ("classes", "samples_per_class", "test_samples_per_class")
        _check_ranges(self, "synth_", counts, ("data_seed",))
        if self.dim < self.classes:
            raise ValueError(f"synth_dim must be >= synth_classes, got {self.dim} < {self.classes}")
        if not self.spread >= 0:
            raise ValueError(f"synth_spread must be non-negative, got {self.spread}")


@dataclass(frozen=True)
class IdxSpec:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    train_subset: int | None = None
    test_subset: int | None = None
    subset_seed: int = 0

    def __post_init__(self):
        _check_ranges(self, "", ("train_subset", "test_subset"), ("subset_seed",))


def theory_learning_rate(T: int, Q: int, L: float | None = None) -> float:
    """Analysis-mode step size 1/sqrt(TQ), capped at 1/(6LT) when L is known."""
    gamma = 1.0 / math.sqrt(T * Q)
    if L is not None:
        gamma = min(gamma, 1.0 / (6.0 * L * T))
    return gamma


@dataclass(frozen=True)
class FederationConfig:
    codename: str
    dataset: SynthSpec | IdxSpec = field(default_factory=SynthSpec)
    num_clients: int = 100
    participation_ratio: float = 0.1
    rounds: int = 100
    local_epochs: int = 5
    local_batch: int = 10
    learning_rate: float | None = None  # None -> 1/sqrt(T*Q), capped by smoothness_L
    momentum: float = 0.5
    family: str = "WP"
    freeze_after_round: int | None = None
    seed: int = 0
    init_seed: int = 0  # one starting model shared across run seeds
    partition: str = "iid"
    classes_per_client: int = 2
    uncovered_region_action: str = "warn"
    hidden_layers: tuple[int, ...] = (200,)
    test_batch: int = 128
    static_slots: bool = False
    smoothness_L: float | None = None

    def __post_init__(self):
        counts = ("num_clients", "rounds", "local_epochs", "local_batch", "test_batch",
                  "freeze_after_round", "classes_per_client")
        _check_ranges(self, "", counts, ("seed", "init_seed"))
        for key, valid, rule in (  # NaN fails every comparison
            ("participation_ratio", 0.0 < self.participation_ratio <= 1.0, "in (0, 1]"),
            ("momentum", 0.0 <= self.momentum < 1.0, "in [0, 1)"),
            ("learning_rate", self.learning_rate is None or self.learning_rate >= 0.0, "non-negative"),
            ("smoothness_L", self.smoothness_L is None or self.smoothness_L > 0.0, "positive"),
            ("uncovered_region_action", self.uncovered_region_action in ("warn", "error"),
             "'warn' or 'error'"),
            ("partition", self.partition in PARTITIONS, " or ".join(map(repr, PARTITIONS))),
        ):
            if not valid:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")
        slots = self.slots_per_round
        if slots < 1:
            raise ValueError(f"participation_ratio must be at least 1 / num_clients = "
                             f"{1 / self.num_clients:g}, got {self.participation_ratio!r}")
        if slots != len(self.codename):
            raise ValueError(f"codename length {len(self.codename)} must equal floor(c*N) = {slots}")
        if self.static_slots and self.num_clients != slots:
            raise ValueError(f"num_clients must equal the codename length {slots} "
                             f"when static_slots is true, got {self.num_clients}")
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        if any(h < 1 for h in self.hidden_layers):
            raise ValueError(f"hidden layer sizes must be positive, got {list(self.hidden_layers)}")
        parse_codename(self.codename)  # validates
        check_layout(self.family, self.hidden_layers)

    @property
    def slots_per_round(self) -> int:
        # floor(c*N) with a guard against float dust (0.29 * 100 == 28.999...)
        return int(self.participation_ratio * self.num_clients + 1e-9)

    @property
    def effective_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return theory_learning_rate(self.local_epochs, self.rounds, self.smoothness_L)
