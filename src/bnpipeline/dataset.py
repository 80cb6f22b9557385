"""Categorical datasets: schemas, CSV ingestion, quantile discretization, splits.

Variables are declared up front in a schema; every record cell is an index
into the declared state list of its variable. State spaces come from the
schema, never from the observed data, so states that happen to be absent
from a sample keep their slot in every downstream count table.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np


class DataError(Exception):
    """Base class for dataset and input-file problems."""


class SchemaError(DataError):
    pass


class MissingColumn(DataError):
    pass


class UnknownState(DataError):
    def __init__(self, variable: str, value: str, row: int):
        super().__init__(f"row {row}: value {value!r} is not a state of {variable!r}")
        self.variable = variable
        self.value = value
        self.row = row


class DegenerateBinning(DataError):
    pass


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

    def state_index(self, label: str) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise KeyError(f"{label!r} is not a state of {self.name!r}") from None


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


@dataclass(frozen=True, eq=False)
class Dataset:
    """Complete categorical records stored as state indices (n rows x m
    variables), column-major so that each variable's column is contiguous."""

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
        return Dataset(sub, self.records.T[cols].T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.schema == other.schema and np.array_equal(self.records, other.records)


@dataclass(frozen=True)
class CsvOptions:
    delimiter: str = ","
    encoding: str = "utf-8"


@dataclass(frozen=True)
class SplitPlan:
    """Deterministic train/test partition plus validation folds inside the training set.

    Folds are sized as a fraction of the full dataset and drawn without
    replacement from the training indices, so fold_count * fold_size must
    fit inside the training set.
    """

    seed: int
    test_fraction: float
    fold_count: int
    fold_size: int
    train_idx: tuple[int, ...]
    test_idx: tuple[int, ...]
    folds: tuple[tuple[int, ...], ...]


def contingency_table(data: Dataset, names: Sequence[str]) -> np.ndarray:
    """Joint count table over the named variables, axes sized from the schema.

    Each record's cell is its mixed-radix index over the named columns, the
    last varying fastest, accumulated one contiguous column at a time."""
    shape = tuple(data.schema.cardinality(n) for n in names)
    columns = [data.records[:, data.schema.index(n)] for n in names]
    idx = columns[0].copy()
    for r, column in zip(shape[1:], columns[1:]):
        idx *= r
        idx += column
    return np.bincount(idx, minlength=math.prod(shape)).reshape(shape)


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


# ---------------------------------------------------------------------------
# schema files
#
# One variable per line:   NAME : state1|state2|...  [target]
# '#' starts a comment; blank lines are ignored.
# ---------------------------------------------------------------------------

def read_schema(path: str | Path) -> Schema:
    specs = []
    for lineno, line in content_lines(Path(path).read_text(encoding="utf-8")):
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

def ingest_csv(path: str | Path, schema: Schema, options: CsvOptions | None = None) -> Dataset:
    """Load an RFC-4180 CSV with a header row into a Dataset.

    Columns are matched to schema variables by header name, in any order.
    Columns not named in the schema are skipped with a warning. Any cell
    that is not a declared state of its variable is an error; there is no
    missing-value handling. The rows are read whole, transposed, and encoded
    one column at a time. The error reported is at the first offending row
    in the file: its width if that is wrong, or else its first unknown state
    in schema order.
    """
    opts = options or CsvOptions()
    with open(path, newline="", encoding=opts.encoding) as fh:
        reader = csv.reader(fh, delimiter=opts.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
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
        rows = list(reader)

    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    ragged = np.flatnonzero(widths != len(header))
    n = int(ragged[0]) if ragged.size else len(rows)
    columns = list(zip(*rows[:n])) or [()] * len(header)
    del rows  # the columns hold every cell now
    records = np.empty((n, len(schema.names)), dtype=np.int64, order="F")
    for j, spec in enumerate(schema.variables):
        table = {label: k for k, label in enumerate(spec.states)}
        column = columns[col_of[spec.name]]
        records[:, j] = np.fromiter(map(table.get, column, repeat(-1)), dtype=np.int64, count=n)
    unknown = np.flatnonzero((records < 0).any(axis=1))
    if unknown.size:
        row = int(unknown[0])
        name = schema.names[int(np.argmax(records[row] < 0))]
        raise UnknownState(name, columns[col_of[name]][row], row + 1)
    if n < len(widths):
        raise DataError(f"{path}: row {n + 1} has {widths[n]} cells, expected {len(header)}")
    return Dataset(schema, records)


def write_csv(data: Dataset, path: str | Path, options: CsvOptions | None = None) -> None:
    opts = options or CsvOptions()
    with open(path, "w", newline="", encoding=opts.encoding) as fh:
        writer = csv.writer(fh, delimiter=opts.delimiter, lineterminator="\n")
        writer.writerow(data.schema.names)
        states = [spec.states for spec in data.schema.variables]
        for row in data.records:
            writer.writerow([states[j][row[j]] for j in range(len(states))])


# ---------------------------------------------------------------------------
# equal-frequency discretization
# ---------------------------------------------------------------------------

def discretize_equal_frequency(
    values: Sequence[float], k: int, direction: str = "ascending"
) -> tuple[list[float], list[int]]:
    """Split numeric values into k near-equal buckets at empirical quantiles.

    Cut points are type-1 empirical quantiles at i/k for i = 1..k-1; a value
    equal to a cut point goes to the lower bucket. Bucket labels are 1..k.
    With direction="ascending" bucket 1 holds the smallest values; with
    "descending" bucket 1 holds the top fraction instead.
    """
    if direction not in ("ascending", "descending"):
        raise ValueError(f"unknown direction {direction!r}")
    if k < 2:
        raise ValueError("bucket count must be at least 2")
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValueError("no values to discretize")
    if np.unique(vals).size < k:
        raise DegenerateBinning(
            f"cannot form {k} non-empty buckets from {np.unique(vals).size} distinct values"
        )
    ordered = np.sort(vals)
    n = vals.size
    # type-1 empirical quantile: Q(p) = x_(ceil(n*p)) on the sorted sample
    thresholds = [float(ordered[int(np.ceil(n * i / k)) - 1]) for i in range(1, k)]
    return thresholds, apply_thresholds(vals, thresholds, direction)


def apply_thresholds(
    values: Sequence[float], thresholds: Sequence[float], direction: str = "ascending"
) -> list[int]:
    """Bucket labels 1..len(thresholds)+1 for externally chosen cut points.

    Same tie rule as discretize_equal_frequency: a value equal to a cut point
    goes to the lower bucket. Use this when the cut points come from domain
    experts rather than from the sample quantiles.
    """
    if direction not in ("ascending", "descending"):
        raise ValueError(f"unknown direction {direction!r}")
    cuts = np.asarray(list(thresholds), dtype=float)
    if cuts.size == 0:
        raise ValueError("no thresholds given")
    if np.any(np.diff(cuts) < 0):
        raise ValueError("thresholds must be non-decreasing")
    vals = np.asarray(list(values), dtype=float)
    k = cuts.size + 1
    ascending = np.searchsorted(cuts, vals, side="left") + 1
    labels = (k + 1 - ascending) if direction == "descending" else ascending
    return [int(b) for b in labels]


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
    folds = tuple(
        tuple(int(i) for i in np.sort(pool[f * fold_size : (f + 1) * fold_size]))
        for f in range(fold_count)
    )
    return SplitPlan(
        seed=seed,
        test_fraction=test_fraction,
        fold_count=fold_count,
        fold_size=fold_size,
        train_idx=tuple(int(i) for i in train_idx),
        test_idx=tuple(int(i) for i in test_idx),
        folds=folds,
    )


def write_split_plan(split: SplitPlan, path: str | Path) -> None:
    """CSV of (row_index, assignment) for each of the split's rows 0..n-1;
    assignment is test, fold_<i> or train_only."""
    labels = np.full(len(split.train_idx) + len(split.test_idx), "train_only", dtype=object)
    labels[list(split.test_idx)] = "test"
    for f, fold in enumerate(split.folds, 1):
        labels[list(fold)] = f"fold_{f}"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("row_index,assignment\n")
        fh.writelines(f"{i},{label}\n" for i, label in enumerate(labels))
