"""Posterior simulation and posterior-predictive target distributions.

With categorical nodes and Dirichlet priors the parameter posterior is an
independent Dirichlet per CPT row, so the sampler draws exact independent
samples per chain. Such draws need no warm-up and no thinning: each chain
draws only the rows it keeps.
Predictive distributions come from bayesnet.eliminate (variable elimination),
at the posterior mean in exact mode and over the stacked draws in Monte-Carlo
mode.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .bayesnet import (
    DEFAULT_ENUMERATION_CAP, FittedNetwork, eliminate, joint_query, missing_groups,
)
from .dataset import VariableSpec, numeric_state_values


class ConstantChain(Exception):
    pass


@dataclass(frozen=True)
class McmcConfig:
    """Sampling schedule: kept_per_chain exact draws in each of `chains` chains.

    adapt_iters and burnin_iters are validated but ignored, since exact draws
    need no warm-up; thin only divides sample_iters into the kept count.
    """

    seed: int
    chains: int = 3
    adapt_iters: int = 1000
    burnin_iters: int = 1000
    sample_iters: int = 10000
    thin: int = 1

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError("need at least one chain")
        if self.adapt_iters < 0 or self.burnin_iters < 0:
            raise ValueError("iteration counts must be non-negative")
        if self.sample_iters < 1:
            raise ValueError("sample_iters must be at least 1")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")

    @property
    def kept_per_chain(self) -> int:
        return (self.sample_iters + self.thin - 1) // self.thin


@dataclass(frozen=True)
class TraceSet:
    """Recorded parameter draws, one (kept, configs, states) array per chain per node."""

    node_dims: dict[str, tuple[int, int]]
    draws: dict[str, list[np.ndarray]]

    @property
    def n_chains(self) -> int:
        return len(next(iter(self.draws.values())))

    def parameters(self) -> dict[str, list[np.ndarray]]:
        """Flat view: '<node>_<index>' -> per-chain 1-D sample arrays."""
        out: dict[str, list[np.ndarray]] = {}
        for node, chains in self.draws.items():
            q, r = self.node_dims[node]
            for j in range(q):
                for k in range(r):
                    out[f"{node}_{j * r + k}"] = [c[:, j, k] for c in chains]
        return out


@dataclass(frozen=True)
class PosteriorPredictive:
    """Full predictive distribution for one record's target."""

    record_id: int
    probs: np.ndarray
    mean: float
    predicted: int  # state index; ties resolve to the lowest index
    true_state: int | None = None


def summarize_distribution(probs: Sequence[float], values: Sequence[float]) -> tuple[float, int]:
    """Mean numeric value and modal state index of a target distribution."""
    p = np.asarray(probs, dtype=float)
    v = np.asarray(values, dtype=float)
    if p.shape != v.shape:
        raise ValueError("probs and values must align")
    return float(p @ v), int(np.argmax(p))


def _chain_rng(seed: int, chain: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain, stream)))


def _draw_chain(
    network: FittedNetwork, nodes: Sequence[str], config: McmcConfig, chain: int, stream: int
) -> dict[str, np.ndarray]:
    """kept_per_chain exact Dirichlet draws of every CPT row of each requested node."""
    rng = _chain_rng(config.seed, chain, stream)
    out = {}
    for node in nodes:
        post = network.cpts[node].posterior
        arr = np.empty((config.kept_per_chain,) + post.shape)
        for j, row in enumerate(post):
            arr[:, j, :] = rng.dirichlet(row, size=config.kept_per_chain)
        out[node] = arr
    return out


def sample_parameters(
    network: FittedNetwork, config: McmcConfig, nodes: Sequence[str] | None = None
) -> TraceSet:
    """Simulate CPT parameters for the requested nodes across independent chains."""
    monitored = list(nodes) if nodes is not None else [
        n for n in network.schema.names if n in network.cpts
    ]
    for n in monitored:
        if n not in network.cpts:
            raise ValueError(f"unknown node {n!r}")
    draws: dict[str, list[np.ndarray]] = {n: [] for n in monitored}
    for chain in range(config.chains):
        per_node = _draw_chain(network, monitored, config, chain, stream=0)
        for n in monitored:
            draws[n].append(per_node[n])
    dims = {n: network.cpts[n].posterior.shape for n in monitored}
    return TraceSet(dims, draws)


# ---------------------------------------------------------------------------
# posterior prediction
# ---------------------------------------------------------------------------

def _validate_record(
    network: FittedNetwork, record: Mapping[str, int], target: str
) -> None:
    schema = network.schema
    for var, state in record.items():
        if var == target:
            raise ValueError("evidence must not include the target variable")
        if var not in schema.names:
            raise ValueError(f"unknown evidence variable {var!r}")
        if not 0 <= state < schema.cardinality(var):
            raise ValueError(f"unknown evidence state {state} for {var!r}")


def posterior_predict(
    network: FittedNetwork,
    evidence_records: Sequence[Mapping[str, int]],
    config: McmcConfig | None = None,
    mode: str = "exact",
    target: str | None = None,
    true_states: Sequence[int] | None = None,
    max_states: int = DEFAULT_ENUMERATION_CAP,
) -> list[PosteriorPredictive]:
    """Predictive target distribution for each evidence record.

    mode="exact" evaluates the conditional at posterior-mean parameters,
    with one joint_query per group of records that leave the same variables
    unobserved. mode="mcmc" estimates the same quantity by Monte Carlo: the
    per-draw joint mass of each (target state, evidence) is averaged over
    simulated parameter draws and normalized once, which converges to the
    exact conditional as draws grow. Records may leave predictor variables
    unobserved; both modes sum them out by variable elimination.
    """
    if mode not in ("exact", "mcmc"):
        raise ValueError(f"unknown mode {mode!r}")
    schema = network.schema
    tgt = target if target is not None else schema.target
    if tgt not in network.dag.nodes:
        raise ValueError(f"target {tgt!r} is not a network node")
    if true_states is not None and len(true_states) != len(evidence_records):
        raise ValueError("true_states length must match evidence_records")
    values = numeric_state_values(schema.spec(tgt))
    matrix = np.full((len(evidence_records), len(schema.names)), -1, dtype=np.int64)
    for i, record in enumerate(evidence_records):
        _validate_record(network, record, tgt)
        matrix[i, [schema.index(v) for v in record]] = list(record.values())

    if mode == "exact":
        probs = np.empty((len(matrix), schema.cardinality(tgt)))
        for pattern, rows in missing_groups(matrix >= 0):
            evidence = {n: matrix[rows, j] for j, n in enumerate(schema.names) if pattern[j]}
            probs[rows] = joint_query(network, evidence, tgt, max_states=max_states)
    else:
        if config is None:
            raise ValueError("mcmc mode needs an McmcConfig")
        # families never touching an unobserved variable cancel out of every
        # record's predictive, so their parameters are not worth drawing
        maybe_hidden = {tgt}
        for record in evidence_records:
            maybe_hidden.update(n for n in network.dag.nodes if n not in record)
        needed = [
            node
            for node in network.dag.nodes
            if maybe_hidden & set(network.cpts[node].parent_order + (node,))
        ]
        chunks = [
            _draw_chain(network, needed, config, chain, stream=1)
            for chain in range(config.chains)
        ]
        # pop, so that each node's per-chain arrays are freed once stacked
        tables = {
            node: np.concatenate([c.pop(node) for c in chunks], axis=0) for node in needed
        }
        mass = eliminate(network, tables, matrix, (tgt,), max_states)
        probs = mass / mass.sum(axis=1, keepdims=True)

    return [
        PosteriorPredictive(
            i, p, *summarize_distribution(p, values),
            true_state=None if true_states is None else int(true_states[i]),
        )
        for i, p in enumerate(probs)
    ]


def write_predictions(
    predictions: Sequence[PosteriorPredictive], spec: VariableSpec, path: str | Path
) -> None:
    """CSV with one row per record: per-state percent (2 decimals), mean,
    modal prediction, and the true state when known."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"state_{s}" for s in spec.states] + ["mean", "predicted", "true"])
        for p in predictions:
            row = [f"{100.0 * x:.2f}" for x in p.probs]
            row.append(f"{p.mean:.4f}")
            row.append(spec.states[p.predicted])
            row.append("" if p.true_state is None else spec.states[p.true_state])
            writer.writerow(row)


# ---------------------------------------------------------------------------
# convergence diagnostics and trace export
# ---------------------------------------------------------------------------

def gelman_rubin(traces: TraceSet) -> dict[str, float]:
    """Split-chain potential scale reduction factor per parameter."""
    params = traces.parameters()
    if not params:
        raise ValueError("no monitored parameters")
    first = next(iter(params.values()))
    if len(first) < 2:
        raise ValueError("need at least 2 chains")
    if min(c.size for c in first) < 10:
        raise ValueError("need at least 10 samples per chain")
    out = {}
    for name, chains in params.items():
        half = min(c.size for c in chains) // 2
        splits = []
        for c in chains:
            splits.append(c[:half])
            splits.append(c[half : 2 * half])
        seqs = np.vstack(splits)
        m, n = seqs.shape
        within = seqs.var(axis=1, ddof=1).mean()
        if within == 0.0:
            raise ConstantChain(f"parameter {name} has zero within-chain variance")
        between = n * seqs.mean(axis=1).var(ddof=1)
        var_plus = (n - 1) / n * within + between / n
        out[name] = float(np.sqrt(var_plus / within))
    return out


def _kde(samples: np.ndarray, grid_points: int = 256) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(samples, dtype=float)
    n = s.size
    std = float(s.std())
    if std == 0.0:
        bw = max(abs(float(s[0])), 1.0) * 1e-9
    else:
        bw = std * (4.0 / (3.0 * n)) ** 0.2
    grid = np.linspace(s.min() - 4.0 * bw, s.max() + 4.0 * bw, grid_points)
    z = (grid[:, None] - s[None, :]) / bw
    dens = np.exp(-0.5 * z * z).sum(axis=1) / (n * bw * math.sqrt(2.0 * math.pi))
    return grid, dens


def export_traces(traces: TraceSet, out_dir: str | Path) -> list[Path]:
    """Per-parameter trace and density CSVs under out_dir.

    trace_<node>_<index>.csv holds (chain, iteration, value) rows; the
    matching density_<node>_<index>.csv holds a per-chain kernel density
    estimate as (chain, value, density) rows.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, chains in traces.parameters().items():
        node, index = name.rsplit("_", 1)
        trace_path = out / f"trace_{node}_{index}.csv"
        with open(trace_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["chain", "iteration", "value"])
            for chain_no, series in enumerate(chains, 1):
                for it, value in enumerate(series, 1):
                    writer.writerow([chain_no, it, repr(float(value))])
        dens_path = out / f"density_{node}_{index}.csv"
        with open(dens_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["chain", "value", "density"])
            for chain_no, series in enumerate(chains, 1):
                grid, dens = _kde(series)
                for v, d in zip(grid, dens):
                    writer.writerow([chain_no, repr(float(v)), repr(float(d))])
        written.extend([trace_path, dens_path])
    return written
