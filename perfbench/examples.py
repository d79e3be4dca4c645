"""The paper's ex6 and ex7 systems as description text.

ex6 has two chunks and ex7 three, each chunk on its own single-unit
drive, two users, and one striped MDS generation over all chunks.  The
seed sets the order of the 28 table cells.  Chunk labels stay fixed:
relabeling keeps every volume but changes the order of the stable sets,
and with it the cost of the exact LPs and hulls, which would add
seed-to-seed spread to the timings.
"""

from __future__ import annotations

import random
from fractions import Fraction

# (row name, traffic pattern, multipacket reception rx = T)
ROWS = (
    ("single_unicast", "single_unicast", False),
    ("multiple_unicast", "multiple_unicast", False),
    ("multiple_unicast_mpr", "multiple_unicast", True),
    ("broadcast", "broadcast", False),
    ("broadcast_mpr", "broadcast", True),
    ("multicast", "multicast", False),
    ("multicast_mpr", "multicast", True),
)

EXAMPLES = {"ex6": 2, "ex7": 3}  # name -> chunks; both have two users

# Published compare tables: row -> (uncoded, coded, pct delta), then the average.
PUBLISHED = {
    "ex6": (
        {
            "single_unicast": ("0.0417", "0.0417", "0"),
            "multiple_unicast": ("0.1667", "0.25", "50"),
            "multiple_unicast_mpr": ("0.25", "0.6667", "167"),
            "broadcast": ("0", "0", "0"),
            "broadcast_mpr": ("0", "0", "0"),
            "multicast": ("0.25", "0.25", "0"),
            "multicast_mpr": ("1", "2.6667", "167"),
        },
        "54.8",
    ),
    "ex7": (
        {
            "single_unicast": ("0.0014", "0.0014", "0"),
            "multiple_unicast": ("0.0236", "0.0278", "17.8"),
            "multiple_unicast_mpr": ("0.125", "1.0125", "710"),
            "broadcast": ("0", "0", "0"),
            "broadcast_mpr": ("0", "0", "0"),
            "multicast": ("0.0278", "0.0278", "0"),
            "multicast_mpr": ("1", "8.1", "710"),
        },
        "205.4",
    ),
}


def description_text(num_chunks: int, pattern: str, mpr: bool) -> str:
    """System description with drive n storing chunk n."""
    rx = num_chunks if mpr else 1
    lines = ["[system]", "users = 2", f"chunks = {num_chunks}", ""]
    for n in range(1, num_chunks + 1):
        lines += [f"[drive {n}]", "units = 1", f"stores = f{n}", ""]
    lines += ["[traffic]", f"pattern = {pattern}", f"rx = {rx} {rx}", ""]
    members = " ".join(f"f{i}" for i in range(1, num_chunks + 1))
    lines += ["[coding]", f"generation g1 = {members} ; s = {num_chunks}"]
    lines += [f"drive {n} stores 1 of g1" for n in range(1, num_chunks + 1)]
    return "\n".join(lines) + "\n"


def table_cells(seed: int) -> list[tuple[str, str, bool, str]]:
    """The 28 (example, row, coded, description text) cells, seeded order."""
    cells = []
    for ex, chunks in EXAMPLES.items():
        for row, pattern, mpr in ROWS:
            text = description_text(chunks, pattern, mpr)
            cells += [(ex, row, False, text), (ex, row, True, text)]
    random.Random(seed).shuffle(cells)
    return cells


def round4(value: Fraction) -> Fraction:
    """Round half to even at four decimals, as the published tables do."""
    return Fraction(round(value, 4))


def table_summary(volumes: dict[tuple[str, bool], Fraction]) -> tuple[dict, str]:
    """Rows (uncoded, coded, delta) as published strings, and the average.

    Deltas are percentages of the four-decimal volumes, shown to three
    significant figures; the average of the unrounded deltas to one decimal.
    """
    rows = {}
    deltas = []
    for row, _pattern, _mpr in ROWS:
        u = round4(volumes[(row, False)])
        c = round4(volumes[(row, True)])
        delta = 0.0 if u == 0 else float(100 * (c - u) / u)
        deltas.append(delta)
        rows[row] = (_plain(u), _plain(c), f"{float(f'{delta:.3g}'):g}" if delta else "0")
    return rows, f"{sum(deltas) / len(deltas):.1f}"


def _plain(value: Fraction) -> str:
    text = f"{float(value):.4f}".rstrip("0").rstrip(".")
    return text or "0"
