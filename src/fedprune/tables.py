"""Embedded reference costs for the 784-200-10 MLP benchmark grid.

Each row pins the amortized retained parameter count, the amortized
multiply-accumulate count, and (where self-consistent) the minimum
coverage index for a ten-slot codename under one mask family. A row's
cost is computed with one `account` call per distinct digit of its
codename (at most 7), as the round engine does, not one per slot.

Excluded cells, each internally inconsistent in the records this grid
was transcribed from:
  * WP 1444777777 params/flops: the recorded pair (92370, 92160) belongs
    to the (1 full, 1x75%, 8x50%) mix, but the row's own column counts say
    (1, 3, 6), which costs (100210, 100000); its recorded ratio matches
    neither. No entry is stored.
  * gamma_min=None rows: the recorded index contradicts the
    digit-to-segment mapping that every other row follows (WP/NP
    1111144447, 1111444477, 1455666777, 1444777777; FS 1111444477,
    1111444777, 1114777777, 1444777777, 1477777777).
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import AmortizedAccount, account, amortized, full_account
from .spec import DIGIT_SEGMENTS, LayerLayout, codename_coverage

MNIST_LAYOUT = LayerLayout((784, 200, 10))


@dataclass(frozen=True)
class TableRow:
    family: str
    codename: str
    params: int
    flops: int
    gamma_min: int | None  # None: printed value not self-consistent, unchecked


TABLE_ROWS: tuple[TableRow, ...] = (
    # weights pruning
    TableRow("WP", "1111111111", 159010, 158800, 10),
    TableRow("WP", "1111114444", 143330, 143120, 6),
    TableRow("WP", "1111144447", 135490, 135280, None),
    TableRow("WP", "1111223344", 135490, 135280, 8),
    TableRow("WP", "1111234444", 135490, 135280, 6),
    TableRow("WP", "1111234567", 123730, 123520, 7),
    TableRow("WP", "1111444444", 135490, 135280, 4),
    TableRow("WP", "1111444477", 127650, 127440, None),
    TableRow("WP", "1111556677", 111970, 111760, 6),
    TableRow("WP", "1114556677", 108050, 107840, 5),
    TableRow("WP", "1234556677", 100210, 100000, 5),
    TableRow("WP", "1455666777", 92370, 92160, None),
    TableRow("WP", "2233445677", 104130, 103920, 5),
    # neuron pruning
    TableRow("NP", "1111111111", 159010, 158800, 10),
    TableRow("NP", "1111114444", 143110, 142920, 6),
    TableRow("NP", "1111144447", 135160, 134980, None),
    TableRow("NP", "1111223344", 135160, 134980, 8),
    TableRow("NP", "1111234444", 135160, 134980, 6),
    TableRow("NP", "1111234567", 123235, 123070, 7),
    TableRow("NP", "1111444444", 135160, 134980, 4),
    TableRow("NP", "1111444477", 127210, 127040, None),
    TableRow("NP", "1111556677", 111310, 111160, 6),
    TableRow("NP", "1114556677", 107335, 107190, 5),
    TableRow("NP", "1234556677", 99385, 99250, 5),
    TableRow("NP", "1455666777", 91435, 91310, None),
    TableRow("NP", "2233445677", 103360, 103220, 5),
    TableRow("NP", "1444777777", 99385, 99250, None),
    # fixed sub-network
    TableRow("FS", "1111111111", 159010, 158800, 10),
    TableRow("FS", "1111114444", 143110, 142920, 6),
    TableRow("FS", "1111144447", 135160, 134980, 6),
    TableRow("FS", "1111444444", 135160, 134980, 4),
    TableRow("FS", "1111444477", 127210, 127040, None),
    TableRow("FS", "1111444777", 123235, 123070, None),
    TableRow("FS", "1111777777", 111310, 111160, 4),
    TableRow("FS", "1114777777", 107335, 107190, None),
    TableRow("FS", "1444777777", 99385, 99250, None),
    TableRow("FS", "1477777777", 91435, 91310, None),
)


def computed_row(family: str, codename: str,
                 layout: LayerLayout = MNIST_LAYOUT) -> tuple[AmortizedAccount, int]:
    """Amortized cost and minimum coverage index for a codename under a family.

    A slot's cost depends only on its digit, so `account` runs once per
    distinct digit and each slot takes its digit's result.
    """
    _, gamma_min = codename_coverage(codename)  # validates the codename
    accounts = {d: account(layout, family, DIGIT_SEGMENTS[d]) for d in dict.fromkeys(codename)}
    amt = amortized([accounts[d] for d in codename], full_account(layout))
    return amt, gamma_min


def check_tables() -> list[str]:
    """Compare the costs computed on 784-200-10 against every stored row; returns mismatches."""
    problems = []
    for row in TABLE_ROWS:
        amt, gamma = computed_row(row.family, row.codename)
        if round(amt.params_mean) != row.params or round(amt.flops_mean) != row.flops:
            problems.append(
                f"{row.family} {row.codename}: computed ({amt.params_mean:.0f}, "
                f"{amt.flops_mean:.0f}) != stored ({row.params}, {row.flops})"
            )
        if row.gamma_min is not None and gamma != row.gamma_min:
            problems.append(
                f"{row.family} {row.codename}: computed gamma_min {gamma} "
                f"!= stored {row.gamma_min}"
            )
    return problems
