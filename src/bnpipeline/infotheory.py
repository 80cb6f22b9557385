"""Entropy, mutual information, and the feature-selection score tables.

All information quantities use natural logarithms and plug-in (empirical)
probabilities from count tables. The normalized scores are ratios of
entropies, so they do not depend on the logarithm base.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import Dataset, contingency_table


def entropy(counts) -> float:
    """Shannon entropy (nats) of the distribution proportional to counts; 0*log(0) is 0."""
    c = np.asarray(counts, dtype=float).ravel()
    if c.size == 0 or np.any(c < 0):
        raise ValueError("counts must be non-negative and non-empty")
    total = c.sum()
    if total <= 0:
        raise ValueError("counts sum to zero")
    p = c[c > 0] / total
    return float(-(p * np.log(p)).sum())


def mutual_information(joint) -> float:
    """MI(X,Y) = H(X) + H(Y) - H(X,Y) from a 2-D count table.

    Rounding can leave independent variables a tiny negative difference;
    the result is clamped at 0.
    """
    t = np.asarray(joint, dtype=float)
    if t.ndim != 2:
        raise ValueError("expected a 2-D contingency table")
    return max(0.0, entropy(t.sum(axis=1)) + entropy(t.sum(axis=0)) - entropy(t))


def conditional_mutual_information(joint) -> float:
    """CMI(X,Y|Z) = H(X|Z) + H(Y|Z) - H(X,Y|Z) from a count table over (X,Y,Z).

    Tables with more than three axes condition on several variables at once:
    every axis after the first two is folded into one compound conditioning
    variable over the Cartesian product of its states. Clamped at 0 like
    mutual_information.
    """
    t = np.asarray(joint, dtype=float)
    if t.ndim < 3:
        raise ValueError("expected a table over (X, Y, Z...) with at least 3 axes")
    t = t.reshape(t.shape[0], t.shape[1], -1)
    hz = entropy(t.sum(axis=(0, 1)))
    hxz = entropy(t.sum(axis=1))
    hyz = entropy(t.sum(axis=0))
    hxyz = entropy(t)
    # each conditional entropy is H(.,Z) - H(Z)
    return max(0.0, (hxz - hz) + (hyz - hz) - (hxyz - hz))


def _normalized_cmi(hz: float, hxz: float, hyz: float, hxyz: float) -> float:
    """2*CMI / (H(X|Z)+H(Y|Z)) from the four joint entropies, CMI clamped at
    0. With hz = 0 (a constant Z) it is exactly the normalized MI."""
    hx_z = hxz - hz
    hy_z = hyz - hz
    denom = hx_z + hy_z
    if denom <= 1e-12:  # rounding residue: a true sum this small takes ~1e12 records
        return 0.0
    return 2.0 * max(0.0, hx_z + hy_z - (hxyz - hz)) / denom


def normalized_mi(joint) -> float:
    """2*MI / (H(X)+H(Y)), the symmetric-uncertainty style score in [0,1]."""
    t = np.asarray(joint, dtype=float)
    if t.ndim != 2:
        raise ValueError("expected a 2-D contingency table")
    return _normalized_cmi(0.0, entropy(t.sum(axis=1)), entropy(t.sum(axis=0)), entropy(t))


def normalized_cmi(joint) -> float:
    """2*CMI / (H(X|Z)+H(Y|Z)); 0 when both conditional entropies vanish.

    Extra trailing axes form a compound conditioning variable, as in
    conditional_mutual_information.
    """
    t = np.asarray(joint, dtype=float)
    if t.ndim < 3:
        raise ValueError("expected a table over (X, Y, Z...) with at least 3 axes")
    t = t.reshape(t.shape[0], t.shape[1], -1)
    return _normalized_cmi(
        entropy(t.sum(axis=(0, 1))), entropy(t.sum(axis=1)), entropy(t.sum(axis=0)), entropy(t)
    )


@dataclass(frozen=True)
class ScoreEntry:
    x: str
    y: str
    z: str | None
    mi_norm: float
    cmi_norm: float | None = None
    delta: float | None = None
    perc: float | None = None


@dataclass(frozen=True)
class ScoreTable:
    kind: str  # "pairwise" | "triple" | "delta"
    entries: tuple[ScoreEntry, ...]


def _percent_gain(delta: float, mi_norm: float) -> float:
    if mi_norm > 0.0:
        return 100.0 * delta / mi_norm
    return math.inf if delta > 0.0 else 0.0


def build_score_tables(
    data: Dataset, variables: Sequence[str] | None = None
) -> tuple[ScoreTable, ScoreTable, ScoreTable]:
    """Pairwise MI', triple CMI', and delta tables over the given variables.

    The pairwise table has one row per unordered pair, sorted by decreasing
    MI'. The triple table has one row per (pair, conditioning variable),
    sorted by decreasing CMI'. The delta table repeats the triple rows with
    delta = CMI' - MI' and the relative gain in percent, sorted by
    decreasing gain, to surface pairs that look weak marginally but become
    informative once conditioned.
    """
    names = list(variables) if variables is not None else list(data.schema.names)
    if len(names) < 2:
        raise ValueError("need at least 2 variables")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variables: {names}")
    for n in names:
        data.schema.index(n)  # raises on unknown names

    # Float sums depend on element order, so every entropy is taken over a
    # C-ordered table with its axes in the entry's own order: each score then
    # equals normalized_mi/normalized_cmi of the entry's own contingency
    # table. Marginal counts are exact integers, so H(c) and H(a,c) are
    # shared. The sorts are on unique keys, so the order entries are made in
    # does not reach the tables.
    h = {c: entropy(contingency_table(data, (c,))) for c in names}
    h2: dict[tuple[str, str], float] = {}
    mi_of: dict[tuple[str, str], float] = {}
    pairwise = []
    for x, y in combinations(names, 2):
        table = contingency_table(data, (x, y))
        h2[(x, y)] = entropy(table)
        h2[(y, x)] = entropy(table.T)
        mi_of[(x, y)] = _normalized_cmi(0.0, h[x], h[y], h2[(x, y)])
        pairwise.append(ScoreEntry(x=x, y=y, z=None, mi_norm=mi_of[(x, y)]))
    pairwise.sort(key=lambda e: (-e.mi_norm, e.x, e.y))

    triple = []
    for a, b, c in combinations(names, 3):
        table = contingency_table(data, (a, b, c))
        # the entries (a,b|c), (a,c|b) and (b,c|a), each with its table's axes
        for (x, y, z), axes in (
            ((a, b, c), (0, 1, 2)), ((a, c, b), (0, 2, 1)), ((b, c, a), (1, 2, 0)),
        ):
            hxyz = entropy(np.ascontiguousarray(table.transpose(axes)))
            cmi = _normalized_cmi(h[z], h2[(x, z)], h2[(y, z)], hxyz)
            mi = mi_of[(x, y)]
            delta = cmi - mi
            triple.append(
                ScoreEntry(
                    x=x, y=y, z=z, mi_norm=mi, cmi_norm=cmi,
                    delta=delta, perc=_percent_gain(delta, mi),
                )
            )
    triple.sort(key=lambda e: (-e.cmi_norm, e.x, e.y, e.z))
    delta_entries = sorted(triple, key=lambda e: (-e.perc, e.x, e.y, e.z))

    return (
        ScoreTable("pairwise", tuple(pairwise)),
        ScoreTable("triple", tuple(triple)),
        ScoreTable("delta", tuple(delta_entries)),
    )


def histogram(scores: Sequence[float], bin_count: int) -> tuple[list[float], list[int]]:
    """Equal-width histogram over [min, max]; a value on an edge falls in the
    lower bin, so every bin except the first is left-open and right-closed."""
    if bin_count < 1:
        raise ValueError("bin_count must be at least 1")
    vals = np.asarray(list(scores), dtype=float)
    if vals.size == 0:
        raise ValueError("no scores to bin")
    lo, hi = float(vals.min()), float(vals.max())
    edges = np.linspace(lo, hi, bin_count + 1)
    if hi == lo:
        counts = [int(vals.size)] + [0] * (bin_count - 1)
        return edges.tolist(), counts
    bins = np.searchsorted(edges[1:-1], vals, side="left")
    counts = np.bincount(bins, minlength=bin_count)
    return edges.tolist(), [int(c) for c in counts]


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def _fmt(v: float | None) -> str:
    if v is None:
        return ""
    if math.isinf(v):
        return "inf"
    return repr(float(v))


def write_score_table(table: ScoreTable, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "z", "mi_norm", "cmi_norm", "delta", "perc"])
        for e in table.entries:
            writer.writerow(
                [e.x, e.y, e.z or "", _fmt(e.mi_norm), _fmt(e.cmi_norm), _fmt(e.delta), _fmt(e.perc)]
            )


def write_histogram(edges: Sequence[float], counts: Sequence[int], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_left", "bin_right", "count"])
        for i, c in enumerate(counts):
            writer.writerow([_fmt(edges[i]), _fmt(edges[i + 1]), c])
