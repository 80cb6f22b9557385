"""Forward sampling from known networks and the bundled synthetic benchmark.

The benchmark network is the ground truth behind the demo dataset: ten
five-state variables with the target EVAL at the root of a tree, every edge
a noisy permutation channel so each link carries clear signal.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .bayesnet import Dag, _config_strides, _parent_order, topological_sort
from .dataset import Dataset, Schema, VariableSpec


def sample_dataset(
    dag: Dag, schema: Schema, tables: Mapping[str, np.ndarray], n: int, seed: int
) -> Dataset:
    """Draw n records by ancestral sampling.

    tables maps each node to a (parent configurations x states) row-stochastic
    matrix, parents in schema order with the last one varying fastest (the
    same convention the fitted CPTs use).
    """
    rng = np.random.default_rng(seed)
    records = np.zeros((n, len(schema.names)), dtype=np.int64, order="F")
    col = {name: i for i, name in enumerate(schema.names)}
    for node in topological_sort(dag):
        order = _parent_order(dag, schema, node)
        table = np.asarray(tables[node], dtype=float)
        cfg = np.zeros(n, dtype=np.int64)
        for p, stride in zip(order, _config_strides(schema, order)):
            cfg += records[:, col[p]] * stride
        cdf = np.cumsum(table, axis=1)
        u = rng.random(n)
        records[:, col[node]] = (u[:, None] > cdf[cfg]).sum(axis=1)
    return Dataset(schema, records)


def _channel(rng: np.random.Generator, r: int, hit: float = 0.56) -> np.ndarray:
    """Row-stochastic matrix: a shuffled diagonal with probability hit,
    the remainder spread evenly."""
    perm = rng.permutation(r)
    base = (1.0 - hit) / (r - 1)
    table = np.full((r, r), base)
    table[np.arange(r), perm] = hit
    return table


def benchmark_network(seed: int = 20240613) -> tuple[Dag, Schema, dict[str, np.ndarray]]:
    """Declared ground truth for the bundled demo: EVAL plus features F1..F9."""
    states = tuple(str(i) for i in range(1, 6))
    specs = [VariableSpec("EVAL", states, "target")]
    specs += [VariableSpec(f"F{i}", states) for i in range(1, 10)]
    schema = Schema(tuple(specs))
    edges = (
        ("EVAL", "F1"), ("EVAL", "F2"), ("EVAL", "F3"),
        ("F1", "F4"), ("F1", "F5"), ("F2", "F6"),
        ("F3", "F7"), ("F4", "F8"), ("F6", "F9"),
    )
    dag = Dag(schema.names, edges)
    rng = np.random.default_rng(seed)
    tables: dict[str, np.ndarray] = {
        "EVAL": np.array([[0.26, 0.22, 0.20, 0.17, 0.15]])
    }
    for node in schema.names:
        if node == "EVAL":
            continue
        parents = _parent_order(dag, schema, node)
        if parents:
            tables[node] = _channel(rng, 5)
        else:
            tables[node] = np.full((1, 5), 0.2)
    return dag, schema, tables


def random_tree_network(variables: int) -> tuple[Dag, Schema, dict[str, np.ndarray]]:
    """A random tree of five-state variables: the uniform target T, then
    X1..X{variables-1}, each the child of a uniformly drawn earlier node
    through a _channel CPT. Wide-data checks sample it."""
    # fixed seed: CI's wide steps and the tests rely on this one tree
    rng = np.random.default_rng(60)
    names = ("T",) + tuple(f"X{i}" for i in range(1, variables))
    schema = Schema(tuple(
        VariableSpec(name, tuple("12345"), "target" if name == "T" else "predictor")
        for name in names
    ))
    edges = tuple((names[int(rng.integers(0, i))], names[i]) for i in range(1, variables))
    tables = {"T": np.full((1, 5), 0.2), **{child: _channel(rng, 5) for _, child in edges}}
    return Dag(names, edges), schema, tables


def benchmark_alternative(dag: Dag) -> Dag:
    """Expert-style counterproposal: the same tree with the EVAL -> F1 link cut,
    so the F1 subtree no longer informs the target."""
    edges = tuple(e for e in dag.edges if e != ("EVAL", "F1"))
    return Dag(dag.nodes, edges)
