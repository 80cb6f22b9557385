"""Posterior simulation and posterior-predictive target distributions.

With categorical nodes and Dirichlet priors the parameter posterior is an
independent Dirichlet per CPT row, so the sampler draws exact independent
samples per chain. Such draws need no warm-up and no thinning: each chain
draws only the rows it keeps. sample_parameters returns one (configs,
states, chains, kept) array per monitored node, and parameter
<node>_<config * states + state> is one (chains, kept) row of it. The draws
feed only the traces and r-hat, which describe the parameter posterior. Each
parameter's density is exact, not estimated from them: entry k of a
Dirichlet row is Beta(a_k, sum of the other entries). Prediction is
bayesnet.posterior_marginal's closed form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .bayesnet import FittedNetwork, posterior_marginal
from .dataset import VariableSpec, numeric_state_values, write_rows


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


def _draw_chain(
    network: FittedNetwork, nodes: Sequence[str], config: McmcConfig, chain: int,
    buffers: Mapping[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """kept_per_chain exact Dirichlet draws of every CPT row of each requested
    node, written into the node's (configs, states, kept) destination in
    buffers and returned as (kept, configs, states) views of it.

    One rng.dirichlet call per row: its C loop is faster than one
    standard_gamma call over the node's posterior normalized in numpy, and
    it covers numpy's stick-breaking branch for rows all below 0.1.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(chain, 0)))
    kept = config.kept_per_chain
    out = {}
    for node in nodes:
        dest = buffers[node]
        for j, row in enumerate(network.cpts[node].posterior):
            dest[j] = rng.dirichlet(row, size=kept).T
        out[node] = dest.transpose(2, 0, 1)
    return out


def sample_parameters(
    network: FittedNetwork, config: McmcConfig, nodes: Sequence[str] | None = None
) -> dict[str, np.ndarray]:
    """Simulate CPT parameters for the requested nodes across independent
    chains: one (configs, states, chains, kept) array of draws per node."""
    monitored = list(nodes) if nodes is not None else [
        n for n in network.schema.names if n in network.cpts
    ]
    for n in monitored:
        if n not in network.cpts:
            raise ValueError(f"unknown node {n!r}")
    shape = (config.chains, config.kept_per_chain)
    draws = {n: np.empty(network.cpts[n].posterior.shape + shape) for n in monitored}
    for chain in range(config.chains):
        _draw_chain(network, monitored, config, chain, {n: a[:, :, chain] for n, a in draws.items()})
    return draws


# ---------------------------------------------------------------------------
# posterior prediction
# ---------------------------------------------------------------------------

def posterior_predict(
    network: FittedNetwork,
    evidence: Sequence[Mapping[str, int]],
    config: McmcConfig | None = None,
    mode: str = "exact",
    target: str | None = None,
    true_states: Sequence[int] | None = None,
) -> list[PosteriorPredictive]:
    """Predictive target distribution for each evidence record, a dict of
    state indices by variable name that leaves out the target and any
    unobserved predictor. Both modes, "exact" and "mcmc", give the closed
    form of bayesnet.posterior_marginal; config is accepted and not used."""
    if mode not in ("exact", "mcmc"):
        raise ValueError(f"unknown mode {mode!r}")
    schema = network.schema
    tgt = target if target is not None else schema.target
    if true_states is not None and len(true_states) != len(evidence):
        raise ValueError("true_states length must match evidence")
    matrix = np.full((len(evidence), len(schema.names)), -1, dtype=np.int64)
    for i, record in enumerate(evidence):
        if tgt in record:
            raise ValueError("evidence must not include the target variable")
        try:
            matrix[i, [schema.index(v) for v in record]] = list(record.values())
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    probs = posterior_marginal(network, matrix, (tgt,))
    values = numeric_state_values(schema.spec(tgt))
    return [
        PosteriorPredictive(
            i, p, *summarize_distribution(p, values),
            true_state=None if true_states is None else int(true_states[i]),
        )
        for i, p in enumerate(probs)
    ]


def write_predictions(probs: np.ndarray, truths: Sequence[int], spec: VariableSpec, path: str | Path) -> None:
    """CSV with one row per record, from its target distribution over
    spec's states (a row of probs) and its true state: per-state percent (2
    decimals), mean, modal prediction (summarize_distribution) and the true
    state."""
    values = numeric_state_values(spec)
    rows = []
    for p, truth in zip(probs, truths):
        mean, predicted = summarize_distribution(p, values)
        rows.append([*(f"{100.0 * x:.2f}" for x in p), f"{mean:.4f}", spec.states[predicted], spec.states[truth]])
    write_rows(path, [f"state_{s}" for s in spec.states] + ["mean", "predicted", "true"], rows)


# ---------------------------------------------------------------------------
# convergence diagnostics and trace export
# ---------------------------------------------------------------------------

def gelman_rubin(draws: Mapping[str, np.ndarray]) -> dict[str, float]:
    """Split-chain potential scale reduction factor per parameter: each
    chain's two halves are two sequences, every parameter's at once."""
    if not draws:
        raise ValueError("no monitored parameters")
    names = [f"{node}_{index}" for node, arr in draws.items() for index in range(arr.shape[0] * arr.shape[1])]
    stack = np.concatenate([arr.reshape(-1, *arr.shape[2:]) for arr in draws.values()])
    p, chains, kept = stack.shape
    if chains < 2:
        raise ValueError("need at least 2 chains")
    if kept < 10:
        raise ValueError("need at least 10 samples per chain")
    n = kept // 2
    seqs = stack[:, :, : 2 * n].reshape(p, 2 * chains, n)
    within = seqs.var(axis=2, ddof=1).mean(axis=1)
    constant = np.flatnonzero(within == 0.0)
    if constant.size:
        raise ConstantChain(f"parameter {names[constant[0]]} has zero within-chain variance")
    between = n * seqs.mean(axis=2).var(axis=1, ddof=1)
    var_plus = (n - 1) / n * within + between / n
    return dict(zip(names, np.sqrt(var_plus / within).tolist()))


def _beta_densities(alpha: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(grid, density) arrays of one node, one row per parameter: the exact
    Beta(a, b) marginal of each parameter, a its pseudo-count in alpha and b
    the sum of its row's other entries (not the row sum minus a, which can
    round to 0), on 256 points over the parameter's pooled draws.

    The pdf is evaluated in log space, with 0 * log 0 taken as 0, so it is
    inf only at a grid point of 0 or 1 whose exponent is below 0, or where
    it exceeds the float range (next to 0 or 1 at a pseudo-count below 1).
    """
    a = alpha.reshape(-1)
    b = np.where(np.eye(alpha.shape[1], dtype=bool), 0.0, alpha[:, None, :]).sum(axis=2).reshape(-1)
    pooled = draws.reshape(a.size, -1)
    grid = np.linspace(pooled.min(axis=1), pooled.max(axis=1), 256, axis=1)
    log_beta = [math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y) for x, y in zip(a.tolist(), b.tolist())]
    am1, bm1 = (a - 1.0)[:, None], (b - 1.0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_x = np.where(am1 == 0.0, 0.0, am1 * np.log(grid))
        log_1mx = np.where(bm1 == 0.0, 0.0, bm1 * np.log1p(-grid))
        return grid, np.exp(log_x + log_1mx - np.asarray(log_beta)[:, None])


def export_traces(
    draws: Mapping[str, np.ndarray], posteriors: Mapping[str, np.ndarray], out_dir: str | Path
) -> list[Path]:
    """Per-parameter trace and density CSVs under out_dir, whose other
    trace_*.csv and density_*.csv files are removed.

    trace_<node>_<index>.csv holds (chain, iteration, value) rows, each
    chain's joined in one pass from "{chain},{iteration}," prefixes built
    once per export. The matching density_<node>_<index>.csv holds
    (value, density) rows: the parameter's exact Beta marginal under the
    node's posterior pseudo-counts in posteriors, on 256 points over its
    pooled draws.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chains = max((arr.shape[2] for arr in draws.values()), default=0)
    kept = max((arr.shape[3] for arr in draws.values()), default=0)
    prefixes = [[f"{chain},{it}," for it in range(1, kept + 1)] for chain in range(1, chains + 1)]
    written = []
    for node, arr in draws.items():
        grids, densities = _beta_densities(posteriors[node], arr)
        params = arr.reshape(-1, *arr.shape[2:])
        for index, (series, grid, density) in enumerate(zip(params, grids.tolist(), densities.tolist())):
            trace_path = out / f"trace_{node}_{index}.csv"
            with open(trace_path, "w", newline="", encoding="utf-8") as fh:
                fh.write("chain,iteration,value\n")
                for rows, values in zip(prefixes, series.tolist()):
                    fh.write("\n".join(map(operator.add, rows, map(repr, values))) + "\n")
            dens_path = out / f"density_{node}_{index}.csv"
            with open(dens_path, "w", newline="", encoding="utf-8") as fh:
                fh.write("value,density\n" + "".join(f"{v!r},{d!r}\n" for v, d in zip(grid, density)))
            written.extend([trace_path, dens_path])
    keep = set(written)
    for stale in [*out.glob("trace_*.csv"), *out.glob("density_*.csv")]:
        if stale not in keep:
            stale.unlink()
    return written
