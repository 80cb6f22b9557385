"""Entropy, mutual information, and the feature-selection score tables.

All information quantities use natural logarithms and plug-in (empirical)
probabilities from count tables. The normalized scores are ratios of
entropies, so they do not depend on the logarithm base.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import Dataset, contingency_stacks, write_rows


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


def _normalized_cmi(hz, hxz, hyz, hxyz) -> np.ndarray:
    """2*CMI / (H(X|Z)+H(Y|Z)) from the four joint entropies, CMI clamped at
    0, elementwise over arrays. With hz = 0 (a constant Z) it is exactly the
    normalized MI."""
    hx_z = hxz - hz
    hy_z = hyz - hz
    denom = hx_z + hy_z
    gain = hx_z + hy_z - (hxyz - hz)
    score = 2.0 * np.where(gain > 0.0, gain, 0.0)
    # 0 where the denominator is rounding residue: a true sum this small takes ~1e12 records
    return np.divide(score, denom, out=np.zeros_like(score), where=denom > 1e-12)


def normalized_mi(joint) -> float:
    """2*MI / (H(X)+H(Y)), the symmetric-uncertainty style score in [0,1]."""
    t = np.asarray(joint, dtype=float)
    if t.ndim != 2:
        raise ValueError("expected a 2-D contingency table")
    return float(_normalized_cmi(0.0, entropy(t.sum(axis=1)), entropy(t.sum(axis=0)), entropy(t)))


def normalized_cmi(joint) -> float:
    """2*CMI / (H(X|Z)+H(Y|Z)); 0 when both conditional entropies vanish.

    Extra trailing axes form a compound conditioning variable, as in
    conditional_mutual_information.
    """
    t = np.asarray(joint, dtype=float)
    if t.ndim < 3:
        raise ValueError("expected a table over (X, Y, Z...) with at least 3 axes")
    t = t.reshape(t.shape[0], t.shape[1], -1)
    return float(_normalized_cmi(
        entropy(t.sum(axis=(0, 1))), entropy(t.sum(axis=1)), entropy(t.sum(axis=0)), entropy(t)
    ))


def _entropies(tables: np.ndarray, orders: Sequence[tuple[int, ...]]) -> np.ndarray:
    """entropy() of each table of a stack (k, *shape) read with its axes in
    each of orders: shape (k, len(orders)), bit for bit equal to entropy()
    of the table transposed to that order.

    Each nonzero cell's p*log(p) is taken once, over the nonzero cells as
    one contiguous array, as entropy takes it. The tables are sorted by
    their count of nonzero cells, so that for each order the nonzero terms
    of the tables with m of them form a (tables, m) block, each row in its
    table's own C order, and the row sums of that block add each table's
    terms in the same pairwise order as entropy's sum."""
    k = len(tables)
    nonzero = tables > 0
    per_table = np.count_nonzero(nonzero.reshape(k, -1), axis=1)
    rank = np.argsort(per_table, kind="stable")
    tables, nonzero, per_table = tables[rank], nonzero[rank], per_table[rank]
    p = (tables / tables.reshape(k, -1).sum(axis=1).reshape(k, *[1] * (tables.ndim - 1)))[nonzero]
    terms = np.zeros(tables.shape)
    terms[nonzero] = p * np.log(p)
    ends = [*(np.flatnonzero(np.diff(per_table)) + 1).tolist(), k]
    out = np.empty((k, len(orders)))
    for o, order in enumerate(orders):
        axes = (0, *(1 + a for a in order))
        flat = terms.transpose(axes)[nonzero.transpose(axes)]
        start = used = 0
        for end in ends:
            m = int(per_table[start])
            out[rank[start:end], o] = -flat[used : used + (end - start) * m].reshape(end - start, m).sum(axis=1)
            start, used = end, used + (end - start) * m
    return out


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """One score table as columns, row i of the table being entry i of each.

    x, y and z index names, in the smallest unsigned dtype that holds every
    index; the scores are float64. The pairwise table has no z, cmi_norm,
    delta or perc (None)."""

    kind: str  # "pairwise" | "triple" | "delta"
    names: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None
    mi_norm: np.ndarray
    cmi_norm: np.ndarray | None = None
    delta: np.ndarray | None = None
    perc: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.x)


# the entries (a,b|c), (a,c|b) and (b,c|a) of a triple (a, b, c): the axes
# of its table that each reads as (x, y, z)
_TRIPLE_ENTRIES = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def build_score_tables(
    data: Dataset, variables: Sequence[str] | None = None
) -> tuple[ScoreTable, ScoreTable, ScoreTable]:
    """Pairwise MI', triple CMI', and delta tables over the given variables.

    The pairwise table has one row per unordered pair, sorted by decreasing
    MI'. The triple table has one row per (pair, conditioning variable),
    sorted by decreasing CMI'. The delta table repeats the triple rows with
    delta = CMI' - MI' and the relative gain in percent, sorted by
    decreasing gain, to surface pairs that look weak marginally but become
    informative once conditioned. Ties go to the names, x then y then z.

    Every 1-, 2- and 3-way table comes from dataset.contingency_stacks, as
    a marginal of a few joint counts, and is kept on data as a loop of
    contingency_table over them would keep it. Float sums depend on element
    order, so each entropy is taken over a table with its axes in the
    entry's own order (_entropies): every score then equals
    normalized_mi/normalized_cmi of the entry's own contingency table, bit
    for bit. The sorts are on unique keys, so the order entries are made in
    does not reach the tables.
    """
    names = list(variables) if variables is not None else list(data.schema.names)
    if len(names) < 2:
        raise ValueError("need at least 2 variables")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variables: {names}")
    for n in names:
        data.schema.index(n)  # raises on unknown names
    if data.n_records == 0:
        raise ValueError("counts sum to zero")

    v = len(names)
    h1, h2 = np.empty(v), np.empty((v, v))  # h2[i, j]: entropy of the pair table with axes (i, j)
    triples, h3 = [np.empty((0, 3), dtype=np.intp)], [np.empty((0, 3))]
    for positions, tables in contingency_stacks(data, names):
        if positions.shape[1] == 1:
            h1[positions[:, 0]] = _entropies(tables, [(0,)])[:, 0]
        elif positions.shape[1] == 2:
            h = _entropies(tables, [(0, 1), (1, 0)])
            h2[positions[:, 0], positions[:, 1]], h2[positions[:, 1], positions[:, 0]] = h.T
        else:
            triples.append(positions)
            h3.append(_entropies(tables, _TRIPLE_ENTRIES))

    index_type = np.min_scalar_type(v - 1)
    rank = np.empty(v, dtype=np.int64)  # each name's place in sorted order
    rank[sorted(range(v), key=names.__getitem__)] = np.arange(v)
    i, j = np.triu_indices(v, 1)
    mi = np.zeros((v, v))
    mi[i, j] = _normalized_cmi(0.0, h1[i], h1[j], h2[i, j])
    order = np.lexsort((rank[i] * v + rank[j], -mi[i, j]))
    i, j = i[order], j[order]
    pairwise = ScoreTable("pairwise", tuple(names), i.astype(index_type), j.astype(index_type), None, mi[i, j])

    abc, h3 = np.concatenate(triples).astype(index_type).T, np.concatenate(h3)
    x, y, z = (np.concatenate([abc[entry[k]] for entry in _TRIPLE_ENTRIES]) for k in range(3))
    cmi = np.concatenate([
        _normalized_cmi(h1[abc[zi]], h2[abc[xi], abc[zi]], h2[abc[yi], abc[zi]], h3[:, o])
        for o, (xi, yi, zi) in enumerate(_TRIPLE_ENTRIES)
    ])
    del abc, h3
    names_key = (rank[x] * v + rank[y]) * v + rank[z]
    order = np.lexsort((names_key, -cmi))
    x, y, z, cmi, names_key = x[order], y[order], z[order], cmi[order], names_key[order]
    mi_xy = mi[x, y]
    delta = cmi - mi_xy
    perc = np.where(delta > 0.0, math.inf, 0.0)
    np.divide(100.0 * delta, mi_xy, out=perc, where=mi_xy > 0.0)
    triple = ScoreTable("triple", tuple(names), x, y, z, mi_xy, cmi, delta, perc)
    order = np.lexsort((names_key, -perc))
    del names_key
    columns = (triple.x, triple.y, triple.z, triple.mi_norm, triple.cmi_norm, triple.delta, triple.perc)
    return pairwise, triple, ScoreTable("delta", tuple(names), *(column[order] for column in columns))


def histogram(scores: Sequence[float], bin_count: int) -> tuple[list[float], list[int]]:
    """Equal-width histogram over [min, max]; a value on an edge falls in the
    lower bin, so every bin except the first is left-open and right-closed."""
    if bin_count < 1:
        raise ValueError("bin_count must be at least 1")
    vals = np.asarray(scores, dtype=float)
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

# rows of a score table formatted at a time
_WRITE_ROWS = 1 << 14


def _csv_field(text: str) -> str:
    """text as csv.writer writes it in a row of several fields: quoted when
    it holds the delimiter, a quote or a line end."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text, ""])
    return out.getvalue()[:-2]


def _reprs(scores: np.ndarray) -> list[str]:
    """repr() of each float of a column that repeats its values, as the MI'
    column of the triple tables does (one value per pair): each distinct
    bit pattern is formatted once."""
    distinct, inverse = np.unique(scores.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)[inverse].tolist()


def write_score_table(table: ScoreTable, path: str | Path) -> None:
    """The table as CSV: a header, then one line per row, each name as
    csv.writer writes it and each score as repr() of its float, with the
    columns the table does not have left empty. The lines are joined
    _WRITE_ROWS rows at a time and written by one writelines."""
    field = np.array([_csv_field(name) for name in table.names], dtype=object)

    def lines(lo: int) -> str:
        rows = slice(lo, lo + _WRITE_ROWS)
        blank = [""] * len(table.x[rows])
        columns = [blank if c is None else field[c[rows]].tolist() for c in (table.x, table.y, table.z)]
        columns.append(_reprs(table.mi_norm[rows]))
        columns += [blank if c is None else map(repr, c[rows].tolist()) for c in (table.cmi_norm, table.delta, table.perc)]
        return "\n".join(map(",".join, zip(*columns))) + "\n"

    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y,z,mi_norm,cmi_norm,delta,perc\n")
        fh.writelines(map(lines, range(0, len(table), _WRITE_ROWS)))


def write_histogram(edges: Sequence[float], counts: Sequence[int], path: str | Path) -> None:
    rows = [(repr(float(edges[i])), repr(float(edges[i + 1])), c) for i, c in enumerate(counts)]
    write_rows(path, ["bin_left", "bin_right", "count"], rows)
