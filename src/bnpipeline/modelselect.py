"""Closed-form marginal likelihoods, Bayes factors, and model rankings.

The marginal likelihood of a DAG under independent Dirichlet priors has the
usual Dirichlet-multinomial closed form; everything here stays in the log
domain. A positive log Bayes factor favors the first model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bayesnet import Dag, family_counts
from .dataset import Dataset, write_rows

# log-gamma over arrays without importing scipy, which would dominate start-up
_gammaln = np.vectorize(math.lgamma, otypes=[float])


def local_log_marginal_likelihood(
    data: Dataset,
    node: str,
    parents: Sequence[str],
    alpha0: float = 1.0,
    bdeu_ess: float | None = None,
) -> float:
    """Log marginal likelihood contribution of one family.

    With alpha0 each cell carries a flat pseudo-count (alpha0 = 1 is the
    K2-style score). Passing bdeu_ess instead spreads an equivalent sample
    size uniformly over the table, ess / (configs * states) per cell.
    """
    counts = family_counts(data, node, parents)
    q, r = counts.shape
    if bdeu_ess is not None:
        if bdeu_ess <= 0:
            raise ValueError("bdeu_ess must be positive")
        cell = bdeu_ess / (q * r)
    else:
        if alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        cell = alpha0
    row = cell * r
    n_j = counts.sum(axis=1)
    score = (
        q * math.lgamma(row)
        - _gammaln(n_j + row).sum()
        + _gammaln(counts + cell).sum()
        - counts.size * math.lgamma(cell)
    )
    return float(score)


def log_marginal_likelihood(
    dag: Dag, data: Dataset, alpha0: float = 1.0, bdeu_ess: float | None = None
) -> float:
    """Log P(data | structure), summed over per-node families."""
    return sum(
        local_log_marginal_likelihood(data, node, dag.parents(node), alpha0, bdeu_ess)
        for node in dag.nodes
    )


def log_bayes_factor(
    dag_a: Dag, dag_b: Dag, data: Dataset, alpha0: float = 1.0,
    bdeu_ess: float | None = None,
) -> float:
    """Log evidence ratio of structure A over structure B; positive favors A."""
    if set(dag_a.nodes) != set(dag_b.nodes):
        raise ValueError("models must cover the same variables")
    return log_marginal_likelihood(dag_a, data, alpha0, bdeu_ess) - log_marginal_likelihood(
        dag_b, data, alpha0, bdeu_ess
    )


# the label of the naive-Bayes benchmark that below_naive measures against
BENCHMARK = "naive"


@dataclass(frozen=True)
class ModelRanking:
    """Ranked candidate structures with pairwise and chained log Bayes factors.

    entries are (label, log marginal likelihood) in decreasing order. chain
    links each model to the next one down, so the chain's log factors are
    non-negative and telescope from best to worst. pairwise reports every
    unordered pair once, oriented so the better model comes first.
    below_naive flags candidates that score worse than the naive benchmark.
    """

    entries: tuple[tuple[str, float], ...]
    chain: tuple[tuple[str, str, float], ...]
    pairwise: tuple[tuple[str, str, float], ...]
    below_naive: tuple[str, ...]


def build_ranking(
    candidates: Sequence, data: Dataset, alpha0: float = 1.0,
    bdeu_ess: float | None = None,
) -> ModelRanking:
    """Score candidate models (objects with .label and .dag) and rank them."""
    if len(candidates) < 2:
        raise ValueError("need at least 2 candidate models")
    labels = [c.label for c in candidates]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate candidate labels: {labels}")
    # one memo of family scores, so a family the candidates share is scored once
    local = functools.cache(
        functools.partial(local_log_marginal_likelihood, data, alpha0=alpha0, bdeu_ess=bdeu_ess)
    )
    scores = {
        c.label: sum(local(node, c.dag.parents(node)) for node in c.dag.nodes) for c in candidates
    }
    entries = tuple(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))
    chain = tuple(
        (entries[i][0], entries[i + 1][0], entries[i][1] - entries[i + 1][1])
        for i in range(len(entries) - 1)
    )
    ordered = [label for label, _ in entries]
    pairwise = []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            pairwise.append((a, b, scores[a] - scores[b]))
    below = tuple(
        label
        for label, s in entries
        if BENCHMARK in scores and label != BENCHMARK and s < scores[BENCHMARK]
    )
    return ModelRanking(entries, chain, tuple(pairwise), below)


def write_bf_table(rows: Sequence[tuple[str, str, float]], path: str | Path) -> None:
    write_rows(path, ["model_1", "model_2", "log_bf"], [(a, b, repr(float(bf))) for a, b, bf in rows])
