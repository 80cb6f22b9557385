"""Categorical datasets: schemas, CSV ingestion, count tables, splits.

Variables are declared up front in a schema; every record cell is an index
into the declared state list of its variable. State spaces come from the
schema, never from the observed data, so states that happen to be absent
from a sample keep their slot in every downstream count table.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import math
import os
import tokenize
import warnings
import zipfile
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np


class DataError(Exception):
    """Base class for dataset and input-file problems."""


class SchemaError(DataError):
    pass


class MissingColumn(DataError):
    pass


class UnknownState(DataError):
    """A cell that is not a state label; the message shows at most the first
    SHOWN characters of it, followed by its length."""

    SHOWN = 40

    def __init__(self, variable: str, value: str, row: int):
        if len(value) <= self.SHOWN:
            shown = repr(value)
        else:
            shown = f"{value[:self.SHOWN]!r}... ({len(value)} characters)"
        super().__init__(f"row {row}: value {shown} is not a state of {variable!r}")
        self.variable = variable
        self.value = value
        self.row = row


class SplitError(DataError):
    pass


@dataclass(frozen=True)
class VariableSpec:
    """A named categorical variable with an ordered, finite state space."""

    name: str
    states: tuple[str, ...]
    role: str = "predictor"  # "predictor" or "target"

    def __post_init__(self):
        if len(self.states) < 2:
            raise SchemaError(f"variable {self.name!r} needs at least 2 states")
        if len(set(self.states)) != len(self.states):
            raise SchemaError(f"variable {self.name!r} has duplicate state labels")
        if self.role not in ("predictor", "target"):
            raise SchemaError(f"variable {self.name!r}: unknown role {self.role!r}")

    @property
    def cardinality(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Schema:
    """Ordered collection of variable specs with exactly one target."""

    variables: tuple[VariableSpec, ...]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate variable names in schema")
        targets = [v.name for v in self.variables if v.role == "target"]
        if len(targets) != 1:
            raise SchemaError(f"schema must declare exactly one target, found {targets}")
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def target(self) -> str:
        return next(v.name for v in self.variables if v.role == "target")

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def spec(self, name: str) -> VariableSpec:
        return self.variables[self.index(name)]

    def cardinality(self, name: str) -> int:
        return self.spec(name).cardinality

    def restrict(self, names: Sequence[str]) -> "Schema":
        """Schema over a subset of variables, keeping schema order."""
        keep = set(names)
        unknown = keep - set(self.names)
        if unknown:
            raise SchemaError(f"unknown variables: {sorted(unknown)}")
        return Schema(tuple(v for v in self.variables if v.name in keep))


class _TableMemo:
    """The count tables contingency_table kept for one set of rows, keyed by
    the set of their variable names, each with the name order it was first
    counted in, in the order kept. It holds at most limit cells; a table
    that would pass the bound is not kept. schema names the variables of
    the cache file store_cache writes, and key is that file's records key,
    set by load_dataset (None: nothing to store)."""

    def __init__(self, schema: Schema, limit: int):
        self.schema, self.limit, self.cells = schema, limit, 0
        self.key: str | None = None
        self.tables: dict[frozenset[str], tuple[tuple[str, ...], np.ndarray]] = {}

    def get(self, names: Sequence[str]) -> np.ndarray | None:
        kept = self.tables.get(frozenset(names))
        if kept is None:
            return None
        order, table = kept
        return table.transpose([order.index(n) for n in names]).copy()

    def keep(self, names: Sequence[str], table: np.ndarray) -> None:
        if self.cells + table.size <= self.limit:
            kept = table.astype(np.int64)  # a copy, which no caller holds
            kept.setflags(write=False)
            self.tables[frozenset(names)] = (tuple(names), kept)
            self.cells += table.size


@dataclass(frozen=True, eq=False)
class Dataset:
    """Complete categorical records stored as state indices (n rows x m
    variables), column-major so that each variable's column is contiguous.

    Each Dataset keeps the tables contingency_table counts on it without
    groups, up to as many cells as its records matrix holds (records x
    variables). select_variables shares them, since its rows are the same;
    subset and every new Dataset start with none."""

    schema: Schema
    records: np.ndarray

    def __post_init__(self):
        rec = np.asfortranarray(self.records, dtype=np.int64)
        if rec.ndim != 2 or rec.shape[1] != len(self.schema.variables):
            raise DataError(
                f"records shape {rec.shape} does not match schema with "
                f"{len(self.schema.variables)} variables"
            )
        for j, spec in enumerate(self.schema.variables):
            col = rec[:, j]
            if col.size and (col.min() < 0 or col.max() >= spec.cardinality):
                raise DataError(f"out-of-range state index in column {spec.name!r}")
        object.__setattr__(self, "records", rec)
        object.__setattr__(self, "_memo", _TableMemo(self.schema, rec.size))
        self.records.setflags(write=False)

    @property
    def n_records(self) -> int:
        return self.records.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.records[:, self.schema.index(name)]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        # gathered along the rows of the transpose: one column-major copy
        rows = np.asarray(indices, dtype=np.int64)
        return Dataset(self.schema, np.take(self.records.T, rows, axis=1).T)

    def select_variables(self, names: Sequence[str]) -> "Dataset":
        sub = self.schema.restrict(names)
        cols = [self.schema.index(v.name) for v in sub.variables]
        picked = Dataset(sub, self.records.T[cols].T)
        object.__setattr__(picked, "_memo", self._memo)
        return picked

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.schema == other.schema and np.array_equal(self.records, other.records)


@dataclass(frozen=True, eq=False)
class SplitPlan:
    """Deterministic train/test partition plus validation folds inside the training set.

    Folds are sized as a fraction of the full dataset and drawn without
    replacement from the training indices, so fold_count * fold_size must
    fit inside the training set. Each index set is a sorted, read-only int64
    array; compare plans field by field with np.array_equal.
    """

    seed: int
    test_fraction: float
    fold_count: int
    fold_size: int
    train_idx: np.ndarray
    test_idx: np.ndarray
    folds: tuple[np.ndarray, ...]


def contingency_table(data: Dataset, names: Sequence[str], groups: np.ndarray | None = None) -> np.ndarray:
    """Joint count table over the named variables, axes sized from the schema.

    Each record's cell is its mixed-radix index over the named columns, the
    last varying fastest, accumulated one contiguous column at a time. With
    groups, a non-negative index for each record, the tables of groups 0 up
    to the largest index are counted in the same pass, stacked along a
    leading axis.

    Without groups, a table over distinct names is kept on data while the
    cells bound of Dataset allows, and a later request for the same
    variables, in any order, is served from it: a new C-contiguous int64
    array, equal to a fresh count. So a phase counts a kept table once, and
    none of the tables the run's select stored in the cache file
    (store_cache), which load_dataset gives every later phase.
    contingency_stacks, which counts select's 1-, 2- and 3-way tables many
    to a pass, keeps its tables as a call here for each, one after another,
    would."""
    if groups is not None or len(set(names)) != len(names):
        return _count(data, names, groups)
    table = data._memo.get(names)
    if table is None:
        table = _count(data, names)
        data._memo.keep(names, table)
    return table


def _count(data: Dataset, names: Sequence[str], groups: np.ndarray | None = None) -> np.ndarray:
    """One counting pass over the records: contingency_table's count."""
    shape = tuple(data.schema.cardinality(n) for n in names)
    columns = [data.records[:, data.schema.index(n)] for n in names]
    if groups is not None:
        groups = np.asarray(groups, dtype=np.int64)
        shape = (int(np.max(groups, initial=-1)) + 1, *shape)
        columns.insert(0, groups)
    idx = columns[0].copy()
    for r, column in zip(shape[1:], columns[1:]):
        idx *= r
        idx += column
    return _tally(idx, math.prod(shape)).reshape(shape)


def _tally(index: np.ndarray, size: int) -> np.ndarray:
    """One counting pass over the records: how often each of 0..size-1
    occurs in index, which holds one cell index per record (or per record
    and table of a stack)."""
    return np.bincount(index.ravel(order="K"), minlength=size)


# cells of the tables contingency_stacks gathers into one stack before it
# yields them: 2 MB of int64 counts
_STACK_CELLS = 1 << 18


def contingency_stacks(data: Dataset, names: Sequence[str]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every count table over one, two and three distinct names, in stacks.

    Yields (positions, tables): positions is a (k, w) array whose rows are
    the increasing indices into names of a table's w variables, and tables
    the (k, *their cardinalities) int64 stack of those tables, each equal to
    contingency_table(data, [names[i] for i in row]). Each table comes
    exactly once, in no fixed order, and the tables of a stack have one
    shape.

    Each table is an exact marginal (a sum over axes) of a joint table over
    a group of names. names is cut, in order, into blocks of consecutive
    variables whose joint holds at most the cube root of the record count
    in cells; a variable with more states is a block of its own. So a joint
    over three blocks holds at most one cell per record: with many records
    per cell the blocks are wide and few joints are counted, with few the
    blocks are single variables and the joints are the triples themselves.
    A table over the variables of one or two blocks is a marginal of the
    joint of two blocks, a table over three blocks one of the joint of
    those three. The joints that share all blocks but their last are
    counted in one pass, from each record's index within each block.

    After the last stack, the tables are kept on data as contingency_table
    would keep them if asked for the singles, the pairs and then the
    triples, each in itertools.combinations order of names with its names
    in that order: a table already kept is skipped, and the others are kept
    while the cells bound allows."""
    card = [data.schema.cardinality(name) for name in names]
    keeping = _KeepPlan(data._memo, names, card)
    pending: dict[tuple[int, ...], list[tuple[np.ndarray, np.ndarray]]] = {}
    cells: Counter[tuple[int, ...]] = Counter()
    for positions, tables in _BlockJoints(data, names, card).marginals():
        keeping.retain(positions, tables)
        shape = tables.shape[1:]
        pending.setdefault(shape, []).append((positions, tables))
        cells[shape] += tables.size
        if cells[shape] >= _STACK_CELLS:
            yield _joined(pending.pop(shape))
            del cells[shape]
    for stack in pending.values():
        yield _joined(stack)
    keeping.keep()


class _KeepPlan:
    """The tables of contingency_stacks that the memo would keep, decided
    from their sizes before any is counted, so that only those are held
    until keep() keeps them in order."""

    def __init__(self, memo: _TableMemo, names: Sequence[str], card: Sequence[int]):
        self.memo, self.names = memo, list(names)
        self.powers = len(names) ** np.arange(2, -1, -1)  # a table's code: its positions in base len(names)
        self.order: list[tuple[int, ...]] = []
        budget, smallest = memo.limit - memo.cells, sorted(card)
        for width in (1, 2, 3):
            least = math.prod(smallest[:width])  # no table of this width or wider is smaller
            for positions in combinations(range(len(names)), width):
                if budget < least:
                    break
                size = math.prod(card[p] for p in positions)
                if size <= budget and frozenset(self.names[p] for p in positions) not in memo.tables:
                    self.order.append(positions)
                    budget -= size
        self.codes = {width: np.sort([self._code(p) for p in self.order if len(p) == width]) for width in (1, 2, 3)}
        self.held: dict[tuple[int, ...], np.ndarray] = {}

    def _code(self, positions) -> int:
        return int(np.dot(positions, self.powers[-len(positions):]))

    def retain(self, positions: np.ndarray, tables: np.ndarray) -> None:
        held = self.codes[positions.shape[1]]
        if not held.size:
            return
        codes = positions @ self.powers[-positions.shape[1]:]
        found = np.minimum(np.searchsorted(held, codes), held.size - 1)
        for row in np.flatnonzero(held[found] == codes).tolist():
            self.held[tuple(positions[row].tolist())] = tables[row].copy()

    def keep(self) -> None:
        for positions in self.order:
            self.memo.keep(tuple(self.names[p] for p in positions), self.held.pop(positions))


def _joined(stack: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    return np.concatenate([p for p, _ in stack]), np.concatenate([t for _, t in stack])


class _BlockJoints:
    """The joints of contingency_stacks: names cut into blocks (_blocks),
    and codes[b], each record's mixed-radix index over block b's variables,
    the first the slowest."""

    def __init__(self, data: Dataset, names: Sequence[str], card: Sequence[int]):
        self.blocks = _blocks(card, data.n_records)
        self.shapes = [tuple(card[p] for p in block) for block in self.blocks]
        self.codes = np.zeros((len(self.blocks), data.n_records), dtype=np.int64)
        for code, block in zip(self.codes, self.blocks):
            for p in block:
                code *= card[p]
                code += data.records[:, data.schema.index(names[p])]
        self.index = np.empty_like(self.codes)  # one buffer for every pass: no pass faults in fresh pages
        # later[b]: the blocks after b, grouped by shape in order of first appearance
        self.later: list[list[list[int]]] = []
        for b in range(len(self.blocks)):
            groups: dict[tuple[int, ...], list[int]] = {}
            for c in range(b + 1, len(self.blocks)):
                groups.setdefault(self.shapes[c], []).append(c)
            self.later.append(list(groups.values()))

    def joints(self, base: np.ndarray, base_shape: tuple[int, ...], members: list[int]) -> np.ndarray:
        """The joints of base (each record's index over base_shape) with
        each block of members, all of one shape, counted in one pass: shape
        (len(members), *base_shape, *member shape)."""
        shape = self.shapes[members[0]]
        cells = math.prod(shape)
        size = math.prod(base_shape) * cells
        first, last = members[0], members[-1] + 1
        rows = self.codes[first:last] if last - first == len(members) else self.codes[members]
        index = np.add(rows, (np.arange(len(members)) * size)[:, None], out=self.index[: len(members)])
        index += base * cells
        return _tally(index, len(members) * size).reshape(len(members), *base_shape, *shape)

    def marginals(self):
        """(positions, tables) of every table over 1-3 variables, one
        pattern of a stack of joints at a time."""
        blocks, shapes, codes = self.blocks, self.shapes, self.codes
        last = len(blocks) - 1
        if last == 0:  # one block: its own joint holds every table
            joint = _tally(codes[0], math.prod(shapes[0])).reshape(1, *shapes[0])
            yield from _marginals(joint, blocks, _patterns(range(len(blocks[0]))))
            return
        for a in range(last):
            first = range(len(blocks[a]))
            for members in self.later[a]:
                joints = self.joints(codes[a], shapes[a], members)
                axes = [blocks[a] + blocks[b] for b in members]
                second = range(len(blocks[a]), len(axes[0]))
                # tables over both blocks; those over one block come from its
                # joint with the next block, or the last block's with the one before
                yield from _marginals(joints, axes, _patterns(first, second))
                if members[0] == a + 1:
                    yield from _marginals(joints[:1], axes[:1], _patterns(first))
                if a == last - 1:
                    yield from _marginals(joints, axes, _patterns(second))
                for b in members:
                    base = codes[a] * math.prod(shapes[b]) + codes[b]
                    for later in self.later[b]:
                        triples = self.joints(base, shapes[a] + shapes[b], later)
                        third = range(len(axes[0]), triples.ndim - 1)
                        yield from _marginals(
                            triples, [blocks[a] + blocks[b] + blocks[c] for c in later], _patterns(first, second, third)
                        )


def _blocks(card: Sequence[int], n: int) -> list[list[int]]:
    """The positions 0..len(card)-1 cut, in order, into blocks whose
    joint holds at most the cube root of n cells, or one variable."""
    blocks: list[list[int]] = []
    cells = 0
    for p, r in enumerate(card):
        if blocks and (cells * r) ** 3 <= n:
            blocks[-1].append(p)
            cells *= r
        else:
            blocks.append([p])
            cells = r
    return blocks


@functools.cache
def _patterns(*parts: range) -> tuple[tuple[int, ...], ...]:
    """Every increasing tuple of 1-3 axes that takes at least one axis of
    each part."""
    axes = [t for part in parts for t in part]
    return tuple(s for size in (1, 2, 3) for s in combinations(axes, size) if all(set(s) & set(part) for part in parts))


def _marginals(joints: np.ndarray, axes: list[list[int]], patterns: tuple[tuple[int, ...], ...]):
    """(positions, tables) of each pattern, a tuple of increasing axes of
    the joints, where joints[s] is the joint over the positions axes[s].
    Each marginal is summed over one axis from the next wider one, which
    keeps the same axes and the largest axis it lacks, so that the
    patterns share their wider sums."""
    axes = np.asarray(axes)
    every = range(axes.shape[1])
    sums = {tuple(every): joints}

    def marginal(kept: tuple[int, ...]) -> np.ndarray:
        if kept not in sums:
            dropped = max(set(every) - set(kept))
            wider = tuple(sorted((*kept, dropped)))
            sums[kept] = marginal(wider).sum(axis=1 + wider.index(dropped))
        return sums[kept]

    for pattern in patterns:
        yield axes[:, list(pattern)], marginal(pattern)


def numeric_state_values(spec: VariableSpec) -> np.ndarray:
    """Numeric value of each state: the parsed label when every label is a
    number, otherwise the 1-based state position."""
    try:
        return np.array([float(s) for s in spec.states])
    except ValueError:
        return np.arange(1, spec.cardinality + 1, dtype=float)


def content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each line that is not blank once its
    '#' comment is cut: the line reader of every text input format."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file after one optional byte-order mark
    (EF BB BF, which some editors write first), line ends untouched. Bytes
    that are not UTF-8 are a DataError naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte {exc.start} is not valid utf-8 ({exc.reason})") from None


# ---------------------------------------------------------------------------
# schema files
#
# One variable per line:   NAME : state1|state2|...  [target]
# '#' starts a comment; blank lines are ignored.
# ---------------------------------------------------------------------------

def read_schema(path: str | Path) -> Schema:
    specs = []
    for lineno, line in content_lines(read_text(path)):
        if ":" not in line:
            raise SchemaError(f"{path}:{lineno}: expected 'name : states'")
        name, rest = line.split(":", 1)
        rest = rest.strip()
        role = "predictor"
        if rest.endswith("[target]"):
            role = "target"
            rest = rest[: -len("[target]")].strip()
        states = tuple(s.strip() for s in rest.split("|"))
        if any(not s for s in states):
            raise SchemaError(f"{path}:{lineno}: empty state label")
        specs.append(VariableSpec(name.strip(), states, role))
    if not specs:
        raise SchemaError(f"{path}: empty schema file")
    return Schema(tuple(specs))


def write_schema(schema: Schema, path: str | Path) -> None:
    lines = []
    for v in schema.variables:
        suffix = "  [target]" if v.role == "target" else ""
        lines.append(f"{v.name} : {'|'.join(v.states)}{suffix}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------

def ingest_csv(path: str | Path, schema: Schema) -> Dataset:
    """Load an RFC-4180 CSV with a header row into a Dataset.

    The dialect: the file is UTF-8, after one optional byte-order mark
    (EF BB BF, which spreadsheet programs write first); cells are split on
    commas; rows end at LF, CRLF or a lone CR; an empty line is a row of no
    cells; a last line without a line end is still a row. A cell holding a
    quote must be quoted whole, with each inner quote doubled; anything else
    is a DataError naming the row ("malformed quoting", or "unterminated
    quoted field" for a quote still open at the end of the file). No cell
    has a size limit. Bytes that are not UTF-8 are a DataError naming the
    file.

    Columns are matched to schema variables by header name, in any order.
    Columns not named in the schema are skipped with a warning. Any cell
    that is not a declared state of its variable is an error; there is no
    missing-value handling. The text is split into cells by one vectorized
    pass, and each column is encoded by a table of the labels' first bytes,
    with a sorted-label search only where labels share a first byte, over
    at most the longest label's length of each cell. The error reported is at the
    first offending row in the file: its quoting if that is broken, else its
    width if that is wrong, else its first unknown state in schema order.
    """
    text = read_text(path)
    if not text:
        raise DataError(f"{path}: empty file")
    cells = _CsvCells(text)
    del text
    if cells.fault is not None and cells.fault[0] == 0:
        raise DataError(f"{path}: header row: {cells.fault[1]}")
    header = [cells.value(c) for c in range(cells.first[1])]
    col_of: dict[str, int] = {}
    for j, name in enumerate(header):
        if name in col_of:
            raise DataError(f"{path}: duplicate column {name!r}")
        col_of[name] = j
    for name in schema.names:
        if name not in col_of:
            raise MissingColumn(f"{path}: no column for variable {name!r}")
    extra = [name for name in header if name not in set(schema.names)]
    if extra:
        warnings.warn(f"{path}: ignoring columns {extra}", stacklevel=2)

    widths = np.diff(cells.first)
    ragged = np.flatnonzero(widths[1:] != len(header)) + 1
    bad_row = int(ragged[0]) if ragged.size else widths.size
    if cells.fault is not None:
        bad_row = min(bad_row, cells.fault[0])  # at the same row, quoting wins
    n = bad_row - 1  # data rows 1..n are whole and well quoted
    top, width = int(cells.first[1]), len(header)  # row r's cell j is top + (r - 1) * width + j
    records = np.empty((n, len(schema.names)), dtype=np.int64, order="F")
    for j, spec in enumerate(schema.variables):
        records[:, j] = cells.encode(slice(top + col_of[spec.name], top + n * width, width), spec.states)
    unknown = np.flatnonzero((records < 0).any(axis=1))
    if unknown.size:
        row = int(unknown[0])
        name = schema.names[int(np.argmax(records[row] < 0))]
        raise UnknownState(name, cells.value(top + row * width + col_of[name]), row + 1)
    if cells.fault is not None and cells.fault[0] == bad_row:
        raise DataError(f"{path}: row {bad_row}: {cells.fault[1]}")
    if bad_row < widths.size:
        raise DataError(f"{path}: row {bad_row} has {widths[bad_row]} cells, expected {len(header)}")
    return Dataset(schema, records)


# ---------------------------------------------------------------------------
# cache file: encoded records and count tables
# ---------------------------------------------------------------------------

# part of every records key: a new meaning of the key takes a new tag
_RECORDS_FORMAT = b"bnpipeline records: state indices, npy"

_CACHE_MEMBERS = ("records.npy", "variables.npy", "counts.npy")


def _records_key(path: str | Path, schema: Schema) -> str:
    """Hex SHA-256 over what decides the records ingest_csv makes of a CSV:
    the format tag, the file's raw bytes, the schema's variables (names,
    states in order, roles) and ingest_csv's dialect (b"," and b"utf-8"),
    each part prefixed by its length so that no two inputs hash the same
    parts."""
    variables = repr([(v.name, v.states, v.role) for v in schema.variables])
    return _digest(_RECORDS_FORMAT, Path(path).read_bytes(), variables.encode(), b",", b"utf-8")


def _digest(*parts) -> str:
    """Hex SHA-256 over parts, bytes or C-contiguous arrays, each prefixed
    by its length in bytes."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(memoryview(part).nbytes.to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def load_dataset(path: str | Path, schema: Schema, out_dir: str | Path) -> Dataset:
    """ingest_csv's Dataset of a CSV, parsed once per input, with the count
    tables of the run's select: both are kept in out_dir as one file,
    cache-<_records_key>-<SHA-256 of its arrays>.npz (store_cache).

    The records and tables come from a cache file of the key if one is
    usable. It counts as absent if it cannot be read, is not exactly the
    three npy arrays store_cache writes, or fails a check: records of the
    wrong dtype or shape or with a state out of range; variables or counts
    of the wrong dtype or shape, naming a variable out of range or a set of
    variables twice, holding more cells than the records matrix or a table
    whose cells do not sum to the number of records; arrays that do not
    hash to its name. When it is absent, ingest_csv parses the CSV, with
    all its errors and its warning about columns not in the schema, which
    so shows only on a parse, and store_cache writes the records with no
    tables, which the phase counts again when asked for. Editing the CSV or
    the schema changes the name, and deleting the file costs one parse.
    """
    out_dir = Path(out_dir)
    key = _records_key(path, schema)
    for cached in out_dir.glob(f"cache-{key}-*.npz"):
        try:
            return _read_cache(cached, schema, key)
        except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile, tokenize.TokenError, DataError):
            # absent, or not a file store_cache wrote (numpy's npy header
            # parser raises TokenError on some damaged headers): parse again
            continue
    data = ingest_csv(path, schema)
    data._memo.key = key
    store_cache(data, out_dir)
    return data


def store_cache(data: Dataset, out_dir: str | Path) -> None:
    """Write data's records and the tables kept on it (contingency_table)
    to out_dir as cache-<records key>-<SHA-256 of its arrays>.npz, from
    which load_dataset makes every later Dataset of the same CSV and schema.

    The npz holds three npy arrays and no pickles: records, the (variables,
    records) transpose of data's records in the smallest unsigned dtype
    that holds the schema's largest state index; variables, one int64 row
    per table of the schema indices of its axes, padded with -1; and
    counts, every table's cells in C order one after another, in the
    smallest unsigned dtype that holds the number of records. Its entries
    are stored uncompressed with a fixed date, so that equal arrays give
    equal bytes. The file is written under a temporary name and renamed
    into place, and every other cache-*.npz in out_dir is removed. A file
    that cannot be written is skipped: it only saves later work. Nothing is
    forced to disk: each read checks the name's digest, so a file that a
    crash left torn or unwritten counts as absent and is made again. Only a
    Dataset of load_dataset has a records key; for any other, nothing is
    written."""
    memo = data._memo
    if memo.key is None:
        return
    records = data.records.T.astype(_records_dtype(memo.schema))
    kept = list(memo.tables.values())
    variables = np.full((len(kept), max((len(names) for names, _ in kept), default=0)), -1, dtype=np.int64)
    for row, (names, _) in zip(variables, kept):
        row[: len(names)] = [memo.schema.index(n) for n in names]
    counts = np.empty(memo.cells, dtype=np.min_scalar_type(data.n_records))
    np.concatenate([table.ravel() for _, table in kept] + [counts[:0]], out=counts, casting="unsafe")

    out_dir = Path(out_dir)
    name = f"cache-{memo.key}-{_digest(records, variables, counts)}.npz"
    final, temporary = out_dir / name, out_dir / f".{name}.{os.getpid()}.tmp"
    try:
        with zipfile.ZipFile(temporary, "w") as archive:
            for member, array in zip(_CACHE_MEMBERS, (records, variables, counts)):
                buffer = io.BytesIO()
                np.lib.format.write_array(buffer, array, version=(1, 0), allow_pickle=False)
                info = zipfile.ZipInfo(member)  # dated 1980-01-01, stored uncompressed
                info.external_attr = 0o644 << 16
                archive.writestr(info, buffer.getvalue())
        os.replace(temporary, final)
        for old in out_dir.glob("cache-*.npz"):
            if old != final:
                old.unlink()
    except OSError:
        temporary.unlink(missing_ok=True)


def _records_dtype(schema: Schema) -> np.dtype:
    return np.min_scalar_type(max(v.cardinality for v in schema.variables) - 1)


def _read_cache(path: Path, schema: Schema, key: str) -> Dataset:
    """The Dataset of a cache file store_cache wrote for the records key,
    its tables kept in stored order; ValueError or DataError if it is not
    such a file."""
    with zipfile.ZipFile(path) as archive:
        if archive.namelist() != list(_CACHE_MEMBERS):
            raise ValueError("not a cache file")
        records, variables, counts = (_stored_npy(archive, name) for name in _CACHE_MEMBERS)
    if f"cache-{key}-{_digest(records, variables, counts)}.npz" != path.name:
        raise ValueError("data that do not hash to the name")
    if records.dtype != _records_dtype(schema):
        raise ValueError("wrong records dtype")
    data = Dataset(schema, records.T)  # checks the shape and every state
    memo, n = data._memo, data.n_records
    memo.key = key
    if variables.dtype != np.int64 or variables.ndim != 2 or counts.dtype != np.min_scalar_type(n) or counts.ndim != 1:
        raise ValueError("wrong dtype or shape")
    if counts.size > memo.limit:
        raise ValueError("over the cells bound")
    width = (variables != -1).sum(axis=1)
    padding = np.arange(variables.shape[1]) >= width[:, None]
    if np.any(width == 0) or np.any((variables == -1) != padding) or np.any(variables < -1) or np.any(variables >= len(schema.names)):
        raise ValueError("a row that names no variable, or one out of range")
    card = np.array([v.cardinality for v in schema.variables] + [1])
    sizes = card[variables].prod(axis=1)  # the -1 padding picks the trailing 1
    starts = np.cumsum(sizes) - sizes
    if sizes.sum() != counts.size or np.any(np.add.reduceat(counts, starts, dtype=np.uint64) != n):
        raise ValueError("cells that belong to no table, or a table that does not count every record")
    names_of, cards = schema.names, card.tolist()
    tables = []
    for row, start, size in zip(variables.tolist(), starts.tolist(), sizes.tolist()):
        index = row[: row.index(-1)] if -1 in row else row
        tables.append((tuple(names_of[i] for i in index), counts[start : start + size].reshape([cards[i] for i in index])))
    if len({frozenset(names) for names, _ in tables}) != len(tables) or any(len(set(names)) != len(names) for names, _ in tables):
        raise ValueError("a set of variables named twice")
    for names, table in tables:
        memo.keep(names, table)
    return data


def _stored_npy(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """An uncompressed version-1.0 C-order npy entry of archive, read only
    after its header and size agree, so that a damaged header allocates
    nothing."""
    info = archive.getinfo(name)
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError("compressed entry")
    raw = archive.read(info)  # checks the entry's CRC
    stream = io.BytesIO(raw)
    if np.lib.format.read_magic(stream) != (1, 0):
        raise ValueError("not an npy 1.0 entry")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
    if fortran_order or dtype.hasobject or stream.tell() + math.prod(shape) * dtype.itemsize != len(raw):
        raise ValueError("not exactly header plus array")
    return np.frombuffer(raw, dtype, offset=stream.tell()).reshape(shape)


_QUOTE, _LF, _CR, _COMMA = ord('"'), ord("\n"), ord("\r"), ord(",")


class _CsvCells:
    """The cells of a decoded CSV text, split by one pass of numpy over its
    UTF-8 bytes: no multi-byte sequence holds an ASCII byte, so each comma,
    quote and line-end byte is that character.

    Quote parity is a running xor of the quote mask; commas and line
    ends count only outside quotes. Cell c spans bytes start[c] up to
    start[c] + length[c] (a quoted cell's span is its inside); row r holds
    cells first[r] up to first[r + 1]. A cell quoted whole with no quote
    inside is unquoted in numpy; only the other cells holding a quote are
    visited one by one. One whose value is not a span of the text (it had
    doubled quotes) keeps the value in `unescaped` and gets length -1. `fault`
    is (row, message) of the first cell whose quoting breaks RFC-4180, or
    None; cells after it are left as split.
    """

    def __init__(self, text: str):
        self._bytes = text.encode("utf-8")
        self.units = units = np.frombuffer(self._bytes, dtype=np.uint8)
        size = units.size
        pos_type = np.int32 if size < 2**31 - 1 else np.int64

        ends = units == _LF
        cr = units == _CR
        crlf = None
        if cr.any():
            crlf = np.zeros(size, dtype=bool)  # the LF of each CRLF; its CR is in no cell
            np.logical_and(ends[1:], cr[:-1], out=crlf[1:])
            cr[:-1] &= ~ends[1:]  # a lone CR ends a line too
            ends |= cr
        del cr
        sep = units == _COMMA
        sep |= ends
        quote = np.zeros(size + 1, dtype=bool)  # one past the end, for an empty last cell
        np.equal(units, _QUOTE, out=quote[:-1])
        if quote.any():
            sep &= ~np.logical_xor.accumulate(quote[:-1])  # parity: True inside quotes
        else:
            quote = None
        cut = np.flatnonzero(sep)  # where each cell ends
        del sep
        is_end = ends[cut]
        drop = np.zeros(cut.size, dtype=bool) if crlf is None else crlf[cut]
        del ends, crlf
        if not (cut.size and cut[-1] == size - 1 and is_end[-1]):
            # the last line has no line end; close it at the end of the text
            cut = np.append(cut, size)
            is_end = np.append(is_end, True)
            drop = np.append(drop, False)
        start = np.empty(cut.size, dtype=pos_type)
        start[0] = 0
        start[1:] = cut[:-1]
        start[1:] += 1
        length = cut.astype(pos_type)
        length -= start
        length -= drop
        del cut, drop
        last = np.flatnonzero(is_end)  # each row's last cell
        widths = np.diff(last, prepend=-1)
        blank = (widths == 1) & (length[last] == 0)  # an empty line has no cell
        if blank.any():
            widths -= blank
            keep = np.ones(start.size, dtype=bool)
            keep[last[blank]] = False
            start, length = start[keep], length[keep]
        self.first = np.zeros(widths.size + 1, dtype=np.int64)
        np.cumsum(widths, out=self.first[1:])
        self.start, self.length = start, length
        self.unescaped: dict[int, str] = {}
        self.fault: tuple[int, str] | None = None
        if quote is not None:
            self._unquote(quote)

    def _unquote(self, quote: np.ndarray) -> None:
        start, length = self.start, self.length
        # quotes per cell, counted up to the next cell's start: none lie between
        count = np.add.reduceat(quote, start, dtype=start.dtype)
        plain = (count == 2) & (length >= 2) & quote[start] & quote[start + length - 1]
        strip = np.flatnonzero(plain)  # "..." with no quote inside
        start[strip] += 1
        length[strip] -= 2
        for c in np.flatnonzero((count > 0) & ~plain).tolist():
            raw = self._span(c)  # holds a quote; every run of quotes inside must be even
            if len(raw) > 1 and raw[0] == raw[-1] == '"' and '"' not in raw[1:-1].replace('""', ""):
                self.unescaped[c] = raw[1:-1].replace('""', '"')
                length[c] = -1
                continue
            still_open = raw[0] == '"' and '"' not in raw[1:].replace('""', "")
            row = int(np.searchsorted(self.first, c, side="right")) - 1
            self.fault = (row, "unterminated quoted field" if still_open else "malformed quoting")
            return

    def _span(self, c: int) -> str:
        s = int(self.start[c])
        return self._bytes[s : s + int(self.length[c])].decode("utf-8")

    def value(self, c: int) -> str:
        return self.unescaped[c] if c in self.unescaped else self._span(c)

    def encode(self, cells: slice, states: Sequence[str]) -> np.ndarray:
        """Index in states of the value of each cell in a slice, or -1.

        Each cell is gathered up to the longest label's length and padded to
        whole 64-bit words with 0xFF, which is no UTF-8 byte, and so is each
        label; a cell is a label when the two keys are equal. So neither a
        NUL nor a prefix aliases a label, and a longer cell costs no more. A 256-entry table of the
        labels' first bytes names the one label a cell can be when no other
        label starts with the cell's first byte, and its key is compared
        with that label's; only the cells whose first byte starts several
        labels are found by a search over the sorted labels."""
        units, pad = self.units, 0xFF
        coded = [np.frombuffer(s.encode("utf-8"), dtype=np.uint8) for s in states]
        width = max(map(len, coded))
        row = -(-width // 8) * 8  # bytes per key
        key_type = np.uint64 if row == 8 else f"S{row}"
        labels = np.full((len(coded), row), pad, dtype=np.uint8)
        for k, label in enumerate(coded):
            labels[k, : label.size] = label
        by_first = np.full(256, -1, dtype=np.int64)  # the label with this first byte; -2: several
        for k, byte in enumerate(labels[:, 0].tolist()):
            by_first[byte] = k if by_first[byte] == -1 else -2
        labels = labels.view(key_type).ravel()

        start = self.start[cells]
        length = self.length[cells]
        keys = np.full((start.size, row), pad, dtype=np.uint8)
        for i in range(width):
            column = keys[:, i]
            np.take(units, start + i, out=column, mode="clip")
            column[length <= i] = pad
        candidate = by_first[keys[:, 0]]
        keys = keys.view(key_type).ravel()
        shared = np.flatnonzero(candidate == -2)
        if shared.size:
            order = np.argsort(labels)
            found = np.minimum(np.searchsorted(labels[order], keys[shared]), len(coded) - 1)
            candidate[shared] = order[found]
        found = np.maximum(candidate, 0)
        codes = np.where((candidate >= 0) & (labels[found] == keys) & (length <= width), candidate, -1)
        for i in np.flatnonzero(length < 0).tolist():  # cells with doubled quotes
            value = self.unescaped[cells.start + i * cells.step]
            codes[i] = states.index(value) if value in states else -1
        return codes


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The CSV format of every artifact a phase writes: UTF-8, LF line ends,
    the header then the rows, each field quoted as csv.writer quotes it (only
    when it holds a comma, a quote or a line end). Callers pass floats as
    repr() strings, which read back as the same float."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(data: Dataset, path: str | Path) -> None:
    states = [spec.states for spec in data.schema.variables]
    write_rows(path, data.schema.names, ([states[j][row[j]] for j in range(len(states))] for row in data.records))


# ---------------------------------------------------------------------------
# train/test/fold splitting
# ---------------------------------------------------------------------------

def make_split(
    n: int, test_fraction: float, fold_count: int, fold_fraction: float, seed: int
) -> SplitPlan:
    """Deterministic test split plus fold_count validation folds.

    The test set holds round(test_fraction * n) records. Each fold holds
    round(fold_fraction * n) records (a fraction of the full dataset, not of
    the training set) and folds are disjoint subsets of the training indices.
    Neither the test set nor a fold may be empty.
    """
    if n < 2:
        raise SplitError("need at least 2 records to split")
    if not 0.0 < test_fraction < 1.0:
        raise SplitError(f"test_fraction must be in (0,1), got {test_fraction}")
    if fold_count < 2:
        raise SplitError(f"fold_count must be at least 2, got {fold_count}")
    if not 0.0 < fold_fraction < 1.0:
        raise SplitError(f"fold_fraction must be in (0,1), got {fold_fraction}")
    test_size = int(round(test_fraction * n))
    fold_size = int(round(fold_fraction * n))
    if test_size < 1:
        raise SplitError("test_fraction too small: empty test set")
    if fold_size < 1:
        raise SplitError("fold_fraction too small: empty folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test_idx = np.sort(perm[:test_size])
    train_idx = np.sort(perm[test_size:])
    if fold_count * fold_size > train_idx.size:
        raise SplitError(
            f"{fold_count} folds of {fold_size} records do not fit in a "
            f"training set of {train_idx.size}"
        )
    pool = rng.permutation(train_idx)
    folds = tuple(np.sort(pool[f * fold_size : (f + 1) * fold_size]) for f in range(fold_count))
    for indices in (train_idx, test_idx, *folds):
        indices.setflags(write=False)
    return SplitPlan(
        seed=seed,
        test_fraction=test_fraction,
        fold_count=fold_count,
        fold_size=fold_size,
        train_idx=train_idx,
        test_idx=test_idx,
        folds=folds,
    )


# rows of split_plan.csv laid out at a time: about 1.3 MB of bytes per block
_SPLIT_BLOCK_ROWS = 1 << 16


def write_split_plan(split: SplitPlan, path: str | Path) -> None:
    """CSV of (row_index, assignment) for each of the split's rows 0..n-1;
    assignment is test, fold_<i> or train_only.

    The bytes are built in numpy, _SPLIT_BLOCK_ROWS rows at a time, so that
    memory stays bounded however many rows there are: each row of a block
    is a fixed-width byte matrix row holding its right-aligned digits, then
    a comma, its label and the line end, padded with 0 bytes, and the block
    is written without its padding."""
    n = split.train_idx.size + split.test_idx.size
    names = ["train_only", "test", *(f"fold_{f}" for f in range(1, len(split.folds) + 1))]
    codes = np.zeros(n, dtype=np.int64)
    codes[split.test_idx] = 1
    for f, fold in enumerate(split.folds, 2):
        codes[fold] = f
    tails = np.zeros((len(names), 2 + max(map(len, names))), dtype=np.uint8)  # ",<label>\n"
    for k, name in enumerate(names):
        tail = f",{name}\n".encode("ascii")
        tails[k, : len(tail)] = np.frombuffer(tail, dtype=np.uint8)
    digits = len(str(max(n - 1, 0)))
    powers = 10 ** np.arange(digits - 1, -1, -1, dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write(b"row_index,assignment\n")
        for lo in range(0, n, _SPLIT_BLOCK_ROWS):
            index = np.arange(lo, min(lo + _SPLIT_BLOCK_ROWS, n), dtype=np.int64)
            rows = np.zeros((index.size, digits + tails.shape[1]), dtype=np.uint8)
            rows[:, :digits] = index[:, None] // powers % 10 + ord("0")
            rows[:, : digits - 1][index[:, None] < powers[:-1]] = 0  # leading zeros; the last digit stays
            rows[:, digits:] = tails[codes[index]]
            fh.write(rows[rows != 0].tobytes())
