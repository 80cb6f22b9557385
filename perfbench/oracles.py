"""Reference computations made apart from bnpipeline.

Everything here reads the raw input files and the pipeline's output files
with its own parsers and recomputes the quantities the pipeline reports:
normalized mutual information, Dirichlet-multinomial marginal likelihoods
(with math.lgamma), posterior-mean conditional probability tables, network
marginals (by np.einsum), and exact target posteriors. Nothing in this module
imports the package under test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Table:
    """Categorical records as state indices, with the schema they were read by."""

    names: tuple[str, ...]
    states: dict[str, tuple[str, ...]]
    target: str
    records: np.ndarray  # (n, len(names)) int64

    def card(self, name: str) -> int:
        return len(self.states[name])

    def col(self, name: str) -> np.ndarray:
        return self.records[:, self.names.index(name)]

    def rows(self, index) -> "Table":
        return Table(self.names, self.states, self.target, self.records[np.asarray(index, dtype=np.int64)])


def read_schema(path: str | Path) -> tuple[tuple[str, ...], dict[str, tuple[str, ...]], str]:
    """Schema lines `NAME : s1|s2|...  [target]`; '#' starts a comment."""
    names, states, target = [], {}, None
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, rest = (s.strip() for s in line.split(":", 1))
        if rest.endswith("[target]"):
            target = name
            rest = rest[: -len("[target]")].strip()
        names.append(name)
        states[name] = tuple(s.strip() for s in rest.split("|"))
    if target is None:
        raise ValueError(f"{path}: no target variable")
    return tuple(names), states, target


def read_table(csv_path: str | Path, schema_path: str | Path) -> Table:
    names, states, target = read_schema(schema_path)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [header.index(n) for n in names]
        lookup = [{label: k for k, label in enumerate(states[n])} for n in names]
        records = np.array(
            [[table[cells[c]] for c, table in zip(cols, lookup)] for cells in reader],
            dtype=np.int64,
        ).reshape(-1, len(names))
    return Table(names, states, target, records)


def read_structure(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Parents of every node from `PARENT -> CHILD` and `node NAME` lines."""
    parents: dict[str, list[str]] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("node "):
            parents.setdefault(line[5:].strip(), [])
            continue
        parent, child = (s.strip() for s in line.split("->", 1))
        parents.setdefault(parent, [])
        parents.setdefault(child, []).append(parent)
    return {node: tuple(sorted(ps)) for node, ps in parents.items()}


# ---------------------------------------------------------------------------
# information quantities
# ---------------------------------------------------------------------------

def counts(table: Table, names: tuple[str, ...]) -> np.ndarray:
    """Joint count array with one axis per named variable."""
    shape = tuple(table.card(n) for n in names)
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, tuple(table.col(n) for n in names), 1)
    return out


def entropy(p) -> float:
    """Entropy in nats of the distribution proportional to p."""
    flat = np.asarray(p, dtype=float).ravel()
    flat = flat[flat > 0] / flat.sum()
    return float(-(flat * np.log(flat)).sum())


def mutual_information(joint) -> float:
    j = np.asarray(joint, dtype=float)
    return entropy(j.sum(axis=1)) + entropy(j.sum(axis=0)) - entropy(j)


def normalized_mi(joint) -> float:
    """2 MI(X;Y) / (H(X) + H(Y)), and 0 when both entropies vanish."""
    j = np.asarray(joint, dtype=float)
    denom = entropy(j.sum(axis=1)) + entropy(j.sum(axis=0))
    return 0.0 if denom <= 0 else 2.0 * mutual_information(j) / denom


# ---------------------------------------------------------------------------
# Dirichlet-multinomial models
# ---------------------------------------------------------------------------

def family_log_marginal(family_counts: np.ndarray, alpha0: float) -> float:
    """log P(column | parents) with a flat Dirichlet(alpha0) prior on every row.

    family_counts has the node's states on the last axis.
    """
    rows = family_counts.reshape(-1, family_counts.shape[-1])
    r = rows.shape[1]
    total = 0.0
    for row in rows.tolist():
        total += math.lgamma(alpha0 * r) - math.lgamma(sum(row) + alpha0 * r)
        total += sum(math.lgamma(n + alpha0) - math.lgamma(alpha0) for n in row)
    return total


def log_marginal_likelihood(table: Table, parents: dict[str, tuple[str, ...]], alpha0: float) -> float:
    return sum(
        family_log_marginal(counts(table, ps + (node,)), alpha0) for node, ps in parents.items()
    )


def posterior_mean_cpts(
    table: Table, parents: dict[str, tuple[str, ...]], alpha0: float
) -> dict[str, np.ndarray]:
    """Each node's CPT with axes (parents..., node), at the posterior mean."""
    cpts = {}
    for node, ps in parents.items():
        post = counts(table, ps + (node,)) + alpha0
        cpts[node] = post / post.sum(axis=-1, keepdims=True)
    return cpts


def network_marginal(
    parents: dict[str, tuple[str, ...]], cpts: dict[str, np.ndarray], query: tuple[str, ...]
) -> np.ndarray:
    """Marginal over the query variables of the product of all CPTs.

    np.einsum sums out every other variable along an optimized contraction
    order, so the full joint is never built.
    """
    label = {node: i for i, node in enumerate(sorted(parents))}
    operands = []
    for node, ps in parents.items():
        operands += [cpts[node], [label[v] for v in ps + (node,)]]
    return np.einsum(*operands, [label[q] for q in query], optimize="greedy")


def target_posterior(
    parents: dict[str, tuple[str, ...]],
    cpts: dict[str, np.ndarray],
    target: str,
    evidence: dict[str, int],
) -> np.ndarray:
    """p(target | every other node observed) by direct product over families."""
    r = cpts[target].shape[-1]
    mass = np.ones(r)
    for node, ps in parents.items():
        scope = ps + (node,)
        if target not in scope:
            continue  # a factor without the target cancels in the normalization
        for t in range(r):
            state = {**evidence, target: t}
            mass[t] *= cpts[node][tuple(state[v] for v in scope)]
    return mass / mass.sum()


def read_fitted_network(
    path: str | Path, states: dict[str, tuple[str, ...]]
) -> tuple[dict[str, tuple[str, ...]], dict[str, np.ndarray]]:
    """Parents and posterior pseudo-count arrays (axes parents..., node) from
    fitted_network.csv rows (node, parent_config, state, alpha_posterior)."""
    rows: dict[str, list[tuple[dict[str, str], str, float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            config = {}
            if rec["parent_config"] != "-":
                config = dict(part.split("=", 1) for part in rec["parent_config"].split("|"))
            rows.setdefault(rec["node"], []).append((config, rec["state"], float(rec["alpha_posterior"])))
    parents, tables = {}, {}
    for node, entries in rows.items():
        ps = tuple(sorted(entries[0][0]))
        arr = np.full(tuple(len(states[v]) for v in ps + (node,)), np.nan)
        for config, state, value in entries:
            index = tuple(states[p].index(config[p]) for p in ps) + (states[node].index(state),)
            arr[index] = value
        parents[node], tables[node] = ps, arr
    return parents, tables
