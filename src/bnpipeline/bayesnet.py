"""Directed acyclic graphs, Dirichlet-categorical fitting, and queries.

Queries run by variable elimination (Koller & Friedman 2009, ch. 9). One
query, posterior_marginal, serves prediction, cross-validation and joint
marginals, and one routine, eliminate, does its work. It sums the
unobserved variables out one at a time along its own min-fill order,
gathering each CPT factor along the observed values of a block of records
only at the step that uses it and multiplying it into that step's running
product. The full joint is never built, and the number of unobserved
variables is not limited: the cap bounds the cost of one record's
elimination, which the network's structure determines.

The sensitivity report needs p(target, X) for every other node X.
target_pair_marginals calibrates one such elimination: eliminate's upward
pass with the target observed at each of its states, then a downward pass
that gives every variable its marginal at the step that eliminated it
(Koller & Friedman 2009, §10.2-10.4). One plan serves every predictor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import DataError, Dataset, Schema, content_lines, contingency_table, read_text
from .infotheory import mutual_information

DEFAULT_ENUMERATION_CAP = 10_000_000


class GraphError(Exception):
    pass


class CycleError(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class EnumerationTooLarge(Exception):
    pass


class EvidenceUnderflow(DataError):
    pass


@dataclass(frozen=True)
class Dag:
    """Immutable directed acyclic graph over named nodes."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError("duplicate node names")
        known = set(self.nodes)
        seen = set()
        for p, c in self.edges:
            if p not in known or c not in known:
                raise GraphError(f"edge ({p}, {c}) references unknown node")
            if p == c:
                raise GraphError(f"self-loop on {p!r}")
            if (p, c) in seen:
                raise DuplicateEdge(f"duplicate edge ({p}, {c})")
            seen.add((p, c))
        topological_sort(self)  # raises CycleError on cycles

    def parents(self, node: str) -> tuple[str, ...]:
        if node not in self.nodes:
            raise GraphError(f"unknown node {node!r}")
        return tuple(p for p, c in self.edges if c == node)

    def children(self, node: str) -> tuple[str, ...]:
        if node not in self.nodes:
            raise GraphError(f"unknown node {node!r}")
        return tuple(c for p, c in self.edges if p == node)


def topological_sort(dag: Dag) -> list[str]:
    """Kahn's algorithm with lexicographic tie-breaking; raises CycleError."""
    indeg = {n: 0 for n in dag.nodes}
    for _, c in dag.edges:
        indeg[c] += 1
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        changed = False
        for c in dag.children(node):
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
                changed = True
        if changed:
            ready.sort()
    if len(order) != len(dag.nodes):
        raise CycleError("graph contains a directed cycle")
    return order


# ---------------------------------------------------------------------------
# structure files: one `PARENT -> CHILD` line per edge, optional `node NAME`
# lines for isolated nodes, '#' comments. A line holding `->` is an edge.
# ---------------------------------------------------------------------------

def parse_edge(text: str, where: str) -> tuple[str, str]:
    """(parent, child) of an `A -> B` edge; where ('file:line') names the
    line in the DataError raised unless the text holds one arrow between two
    names."""
    parent, arrow, child = (s.strip() for s in text.partition("->"))
    if not (arrow and parent and child) or "->" in child:
        raise DataError(f"{where}: expected 'PARENT -> CHILD', got {text!r}")
    return parent, child


def read_structure(path: str | Path) -> Dag:
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    for lineno, line in content_lines(read_text(path)):
        if line.startswith("node ") and "->" not in line:
            nodes.append(line[len("node ") :].strip())
        else:
            edge = parse_edge(line, f"{path}:{lineno}")
            edges.append(edge)
            nodes.extend(edge)
    try:
        return Dag(tuple(sorted(set(nodes))), tuple(edges))
    except GraphError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_structure(dag: Dag, path: str | Path) -> None:
    lines = [f"{p} -> {c}" for p, c in sorted(dag.edges)]
    linked = {n for e in dag.edges for n in e}
    lines.extend(f"node {n}" for n in sorted(set(dag.nodes) - linked))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# conjugate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cpt:
    """Dirichlet count tables for one node: rows indexed by parent configuration.

    Parent configurations are mixed-radix numbers over parent_order with the
    last parent varying fastest. alpha holds the prior pseudo-counts and
    counts the observed tallies; their sum parameterizes the posterior.
    """

    node: str
    parent_order: tuple[str, ...]
    alpha: np.ndarray  # (configs, states)
    counts: np.ndarray  # same shape

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        n = np.asarray(self.counts, dtype=float)
        if a.shape != n.shape or a.ndim != 2:
            raise ValueError("alpha and counts must be 2-D with identical shape")
        if np.any(a <= 0):
            raise ValueError("prior pseudo-counts must be positive")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "counts", n)
        a.setflags(write=False)
        n.setflags(write=False)

    @property
    def posterior(self) -> np.ndarray:
        return self.alpha + self.counts

    @property
    def posterior_mean(self) -> np.ndarray:
        post = self.posterior
        return post / post.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class FittedNetwork:
    dag: Dag
    schema: Schema
    cpts: dict[str, Cpt]

    def __post_init__(self):
        for node in self.dag.nodes:
            if node not in self.cpts:
                raise ValueError(f"missing CPT for node {node!r}")
            cpt = self.cpts[node]
            if cpt.parent_order != _parent_order(self.dag, self.schema, node):
                raise ValueError(f"CPT parent order mismatch for {node!r}")
            q = _config_count(self.schema, cpt.parent_order)
            r = self.schema.cardinality(node)
            if cpt.alpha.shape != (q, r):
                raise ValueError(f"CPT shape mismatch for {node!r}")


def _parent_order(dag: Dag, schema: Schema, node: str) -> tuple[str, ...]:
    parents = set(dag.parents(node))
    return tuple(n for n in schema.names if n in parents)


def _config_count(schema: Schema, parent_order: Sequence[str]) -> int:
    q = 1
    for p in parent_order:
        q *= schema.cardinality(p)
    return q


def _config_strides(schema: Schema, parent_order: Sequence[str]) -> list[int]:
    strides = []
    acc = 1
    for p in reversed(parent_order):
        strides.append(acc)
        acc *= schema.cardinality(p)
    return list(reversed(strides))


def cpt_parameter_count(network: FittedNetwork, node: str) -> int:
    """Size of the node's probability table: (product of parent cardinalities) x states."""
    cpt = network.cpts[node]
    return _config_count(network.schema, cpt.parent_order) * network.schema.cardinality(node)


def family_counts(data: Dataset, node: str, parents: Sequence[str], folds: np.ndarray | None = None) -> np.ndarray:
    """Count table (parent configurations x node states) for one family;
    EnumerationTooLarge if it would hold more than DEFAULT_ENUMERATION_CAP
    cells. With folds, a fold index for each row of data, one table per
    fold from the same pass: shape (folds, configs, states)."""
    cells = math.prod(data.schema.cardinality(n) for n in (*parents, node))
    if cells > DEFAULT_ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"family table of {node!r} over {len(parents)} parents has {cells} cells, "
            f"over cap {DEFAULT_ENUMERATION_CAP}"
        )
    table = contingency_table(data, (*parents, node), folds)
    leading = () if folds is None else table.shape[:1]
    return table.reshape(*leading, -1, data.schema.cardinality(node))


def fit_conjugate(
    dag: Dag, data: Dataset, alpha0: float = 1.0, counted: dict | None = None
) -> FittedNetwork:
    """Tally per-family counts and attach uniform Dirichlet(alpha0) priors.

    counted, when given, holds the family tables already counted on data,
    keyed by (node, parent order), and gains the ones counted here: fits of
    several DAGs on one dataset then count each shared family once."""
    if alpha0 <= 0:
        raise ValueError("alpha0 must be positive")
    missing = set(dag.nodes) - set(data.schema.names)
    if missing:
        raise DataError(f"data lacks variables {sorted(missing)}")
    counted = {} if counted is None else counted
    cpts = {}
    for node in dag.nodes:
        order = _parent_order(dag, data.schema, node)
        if (node, order) not in counted:
            counted[node, order] = family_counts(data, node, order).astype(float)
        counts = counted[node, order]
        cpts[node] = Cpt(node, order, np.full(counts.shape, float(alpha0)), counts)
    return FittedNetwork(dag, data.schema, cpts)


def subtract_counts(network: FittedNetwork, data: Dataset, folds: np.ndarray) -> dict[str, np.ndarray]:
    """The count tables of the network as fitted without each fold's rows of
    data, which must be among the rows it was fitted on; folds holds the
    fold index of each row of data, 0 up to its largest value. Each node
    gets a (folds, configs, states) stack whose fold f is its counts less
    fold f's family counts, which equals a refit without those rows because
    counts are additive; each family is counted once for all folds. The
    priors stay the network's, and posterior_marginal scores records under
    the stacks."""
    stacks = {}
    for node, cpt in network.cpts.items():
        stacks[node] = cpt.counts - family_counts(data, node, cpt.parent_order, folds)
        if np.any(stacks[node] < 0):
            raise ValueError(f"rows to subtract were not all fitted ({node!r} counts below 0)")
    return stacks


# ---------------------------------------------------------------------------
# exact queries by variable elimination
# ---------------------------------------------------------------------------

# cells of the accumulator plus one gathered factor of the widest step, per
# block of records: 1 MB of float64, so that a block stays in cache
_BLOCK_CELLS = 1 << 17


def missing_groups(observed: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(pattern, row indices) for each distinct row of a records x variables
    boolean mask of which variables each record observes: the groups of
    np.unique(axis=0), in its order (patterns compared column by column,
    False first), each group's rows ascending. Each row's bits are packed
    into big-endian 64-bit words, so a stable lexsort of a few integer keys
    orders the rows; np.unique's sort of whole rows as byte strings is
    many times slower."""
    n, m = observed.shape
    packed = np.zeros((n, max(1, -(-m // 64)) * 8), dtype=np.uint8)
    packed[:, : -(-m // 8)] = np.packbits(observed, axis=1)
    keys = packed.view(">u8").astype(np.uint64)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    change = np.ones(n, dtype=bool)
    change[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    first = np.flatnonzero(change)
    return [(observed[order[a]], order[a:b]) for a, b in zip(first.tolist(), [*first[1:].tolist(), n])]


def min_fill_order(
    scopes: Sequence[Sequence[str]], card: Mapping[str, int], keep: Sequence[str]
) -> list[str]:
    """Greedy min-fill elimination order (Koller & Friedman 2009, §9.4.3) of
    the variables of scopes not in keep, over the graph that links the
    variables of each scope. Each pick adds the fewest edges between its
    neighbours; ties go to the smallest step (the product of the variable's
    and its neighbours' cardinalities), then to the label. A pick rescores
    only its neighbours and the common neighbours of each edge it adds."""
    adj: dict[str, set[str]] = {}
    for scope in scopes:
        for v in scope:
            adj.setdefault(v, set()).update(scope)
    for v, near in adj.items():
        near.discard(v)

    def score(v):
        near = adj[v]
        fill = sum(len(near - adj[u]) - 1 for u in near) // 2
        return fill, card[v] * math.prod(card[u] for u in near), v

    todo = {v: score(v) for v in adj if v not in keep}
    order = []
    while todo:
        v = min(todo, key=todo.__getitem__)
        del todo[v]
        order.append(v)
        near = adj.pop(v)
        stale = set(near)
        for u in near:
            adj[u].discard(v)
            added = near - adj[u] - {u}
            adj[u] |= added
            for w in added:  # a new edge changes the fill of the pair's common neighbours
                stale |= adj[u] & adj[w]
        for u in stale & todo.keys():
            todo[u] = score(u)
    return order


def _elimination_steps(
    scopes: list[tuple[str, ...]], card: Mapping[str, int], query: Sequence[str], max_states: int
) -> tuple[list, int]:
    """Bucket elimination along min_fill_order: one (labels, factors, messages,
    axis) step per eliminated variable, then a last step over the query with
    axis None. A step multiplies the factors (indices into scopes) and the
    messages (outputs of earlier steps) that hold its variable, over the
    union of their labels in sorted order, and sums the variable out along
    axis (counting a leading record axis). Each message is (step index,
    shape along the labels, 1 where it lacks one). A step's size is the
    product of its labels' cardinalities; the order's cost, the sum of its
    step sizes, may not exceed max_states. Also returns the largest size."""
    pending = {("factor", i): set(scope) for i, scope in enumerate(scopes)}
    steps = []
    for v in min_fill_order(scopes, card, query) + [None]:
        used = {key: pending.pop(key) for key, scope in list(pending.items()) if v is None or v in scope}
        labels = tuple(sorted(set().union(*used.values())))
        factors = [i for (kind, i) in used if kind == "factor"]
        messages = [
            (i, [card[u] if u in scope else 1 for u in labels]) for (kind, i), scope in used.items() if kind == "message"
        ]
        if v is not None:
            pending["message", len(steps)] = set(labels) - {v}
        steps.append((labels, factors, messages, None if v is None else 1 + labels.index(v)))
    sizes = [math.prod(card[u] for u in labels) for labels, *_ in steps]
    if sum(sizes) > max_states:
        raise EnumerationTooLarge(f"elimination cost {sum(sizes)} per record exceeds cap {max_states}")
    return steps, max(sizes)


def eliminate(
    network: FittedNetwork,
    params: Mapping[str, np.ndarray],
    records: np.ndarray,
    query: Sequence[str],
    max_states: int = DEFAULT_ENUMERATION_CAP,
    sets: np.ndarray | None = None,
) -> np.ndarray:
    """Unnormalized joint mass of each record's evidence with every query
    state: shape (records, *query cardinalities).

    params maps each node to a (sets, configs, states) stack of CPT
    parameter sets, and record i reads only entry sets[i]; without sets
    every stack must hold one entry, which every record reads. records holds
    state indices in schema column order, -1 where unobserved; query columns
    are ignored.
    Records are grouped by which variables they leave unobserved. Fully
    observed families are skipped: they cancel under normalization. The
    unobserved variables are summed out one at a time in min_fill_order,
    block of records by block, with no limit on their number. A step gathers
    each factor along the observed columns and the record's set only when
    the step consumes it, straight into the step's layout (record, step
    labels), multiplies it into one accumulator in place and sums the step's
    variable out; the last step multiplies what is left over the query. The
    full joint is never built.
    """
    schema = network.schema
    nodes = network.dag.nodes
    records = np.asarray(records, dtype=np.int64)
    observed = records[:, [schema.index(n) for n in nodes]] >= 0
    observed[:, [nodes.index(q) for q in query]] = False
    if sets is None and len(next(iter(params.values()))) != 1:
        raise ValueError("stacks of several parameter sets need sets, one index per record")
    sets = np.zeros(len(records), dtype=np.int64) if sets is None else np.asarray(sets, dtype=np.int64)
    out = np.empty((len(records),) + tuple(schema.cardinality(q) for q in query))
    for pattern, rows in missing_groups(observed):
        free = {n for n, seen in zip(nodes, pattern) if not seen}
        steps, width, plan = _plan(network, params, free, query, max_states)
        # the last step's labels are sorted; put them in query order
        final = (0, *(1 + steps[-1][0].index(q) for q in query))
        step = max(1, _BLOCK_CELLS // (2 * width))
        for start in range(0, len(rows), step):
            idx = rows[start : start + step]
            acc, _ = _upward(plan, records[idx], sets[idx])
            out[idx] = acc.transpose(final)
    return out


def _plan(
    network: FittedNetwork, params: Mapping[str, np.ndarray], free: set[str], query: Sequence[str], max_states: int
) -> tuple[list, int, list]:
    """_elimination_steps for records that leave the variables of free
    unobserved, over the families that hold one of them, and per step the
    (flat stack, free-state offsets, observed strides, set size) of each
    factor it gathers, its messages and its axis: what _upward runs. Also
    returns the largest step size."""
    schema = network.schema
    card = {n: schema.cardinality(n) for n in network.dag.nodes}
    families = []  # (node, unobserved scope, strides by variable)
    for node in network.dag.nodes:
        scope = network.cpts[node].parent_order + (node,)
        if free.isdisjoint(scope):
            continue
        strides = dict(zip(scope, [s * card[node] for s in _config_strides(schema, scope[:-1])] + [1]))
        families.append((node, tuple(v for v in scope if v in free), strides))
    steps, width = _elimination_steps([hidden for _, hidden, _ in families], card, query, max_states)
    plan = []
    for labels, factors, messages, axis in steps:
        gathers = []
        for node, hidden, strides in (families[i] for i in factors):
            offsets = sum(
                np.reshape(np.arange(card[u]) * strides[u], [-1 if w == u else 1 for w in labels]) for u in hidden
            )
            fixed = {schema.index(u): s for u, s in strides.items() if u not in free}
            gathers.append((np.reshape(params[node], -1), offsets, fixed, params[node][0].size))
        plan.append((gathers, messages, axis))
    return steps, width, plan


def _upward(plan: list, block: np.ndarray, block_sets: np.ndarray, products: list | None = None) -> tuple:
    """Run a _plan on a block of records: the last step's product and each
    step's message (None for the last step). Without products each message
    is dropped once used. With products, a list, each step's product over
    its labels (before its variable is summed out) is appended to it and
    every message is kept: the upward pass of a calibration."""
    results = []
    for gathers, messages, axis in plan:
        acc = None
        for table, offsets, fixed, size in gathers:
            base = sum(block[:, col] * stride for col, stride in fixed.items()) + block_sets * size
            acc = _multiply_into(acc, table[np.reshape(base, (-1,) + (1,) * offsets.ndim) + offsets])
        for m, shape in messages:
            message = results[m].reshape(len(block), *shape)
            if products is None:
                results[m] = None
            elif acc is None:
                message = message.copy()  # the product is multiplied in place; a kept message may not be
            acc = _multiply_into(acc, message)
        if products is not None:
            products.append(acc)
        results.append(None if axis is None else acc.sum(axis=axis))
    return acc, results


def _multiply_into(acc: np.ndarray | None, factor: np.ndarray) -> np.ndarray:
    """acc * factor, in place when acc already has the product's shape."""
    if acc is None:
        return factor
    if acc.shape != np.broadcast_shapes(acc.shape, factor.shape):
        return acc * factor
    acc *= factor
    return acc


def posterior_marginal(
    network: FittedNetwork,
    records: np.ndarray,
    query: Sequence[str],
    max_states: int = DEFAULT_ENUMERATION_CAP,
    counts: Mapping[str, np.ndarray] | None = None,
    sets: np.ndarray | None = None,
) -> np.ndarray:
    """Posterior-predictive distribution of the query variables given each
    row of records, a records x schema matrix of state indices (-1 where
    unobserved) whose query columns are ignored: shape (records, *query
    cardinalities), each record's entries summing to 1.

    counts, given with sets, replaces the network's counts by a stack of
    count tables per node, (sets, configs, states) as subtract_counts
    returns them for the folds of cross-validation, and sets holds the
    index of the stack entry that scores each record. The posterior means
    of every entry are eliminate's parameter sets, so that one call scores
    every record under its own counts. Without counts the one set is the
    posterior mean of the network's own counts, which every record reads.

    Prediction needs no parameter draws. With Dirichlet priors and complete
    training data the CPT rows are independent Dirichlets, and every term of
    p(query, evidence | theta) uses each row at most once, so its posterior
    expectation is p(query, evidence | posterior mean) (Heckerman 1995,
    MSR-TR-95-06): the Bayesian predictive is the conditional at
    posterior-mean parameters, which one eliminate call computes. Every
    posterior mean is positive, so a record whose mass comes out 0 lost it
    to float underflow in the product of many small factors.
    """
    schema = network.schema
    for qv in query:
        if qv not in network.dag.nodes:
            raise GraphError(f"unknown query variable {qv!r}")
    records = np.asarray(records, dtype=np.int64)
    if records.ndim != 2 or records.shape[1] != len(schema.names):
        raise ValueError(f"records must be a matrix with {len(schema.names)} columns")
    if (counts is None) != (sets is None):
        raise ValueError("counts and sets go together")
    if counts is None:
        counts = {node: cpt.counts[None] for node, cpt in network.cpts.items()}
    n_sets = len(next(iter(counts.values())))
    if any(counts[node].shape != (n_sets, *cpt.counts.shape) for node, cpt in network.cpts.items()):
        raise ValueError(f"counts must hold {n_sets} tables of each CPT's shape")
    if sets is not None:
        sets = np.asarray(sets, dtype=np.int64)
        if sets.shape != (len(records),) or np.any((sets < 0) | (sets >= n_sets)):
            raise ValueError(f"sets must hold one index below {n_sets} per record")
    bad = (records < -1) | (records >= [schema.cardinality(n) for n in schema.names])
    bad[:, [schema.index(q) for q in query]] = False
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValueError(f"unknown evidence state {records[row, col]} for {schema.names[col]!r}")
    mean = {}
    for node, cpt in network.cpts.items():
        post = cpt.alpha + counts[node]
        mean[node] = post / post.sum(axis=-1, keepdims=True)
    mass = eliminate(network, mean, records, query, max_states, sets)
    total = mass.sum(axis=tuple(range(1, mass.ndim)), keepdims=True)
    if np.any(total <= 0):
        raise EvidenceUnderflow(
            f"the evidence mass of {int(np.sum(total <= 0))} record(s) underflowed to 0 "
            "in floating point; try a larger [model] alpha0"
        )
    return mass / total


def joint_marginal(
    network: FittedNetwork,
    evidence: Mapping[str, int | np.ndarray],
    query: Sequence[str],
    max_states: int = DEFAULT_ENUMERATION_CAP,
) -> np.ndarray:
    """posterior_marginal of one evidence assignment given as a dict.

    Returns an array with one axis per query variable (schema state order).
    Evidence values are state indices: one int per variable, or equal-length
    int arrays with one entry per record, in which case the result gains a
    leading record axis. A query variable that is itself observed comes
    back as a point mass.
    """
    schema = network.schema
    states = {var: np.asarray(s, dtype=np.int64) for var, s in evidence.items()}
    n = max((a.size for a in states.values() if a.ndim), default=1)
    records = np.full((n, len(schema.names)), -1, dtype=np.int64)
    for var, a in states.items():
        if np.any((a < 0) | (a >= schema.cardinality(var))):
            raise ValueError(f"evidence state {a} out of range for {var!r}")
        records[:, schema.index(var)] = a
    probs = posterior_marginal(network, records, query, max_states)
    for axis, qv in enumerate(query):
        if qv in states:  # keep only each record's observed state, renormalized
            onehot = np.eye(schema.cardinality(qv))[records[:, schema.index(qv)]]
            probs = probs * onehot.reshape([n] + [-1 if a == axis else 1 for a in range(len(query))])
            probs = probs / probs.sum(axis=tuple(range(1, probs.ndim)), keepdims=True)
    return probs if any(a.ndim for a in states.values()) else probs[0]


def sensitivity(
    network: FittedNetwork, target: str, predictor: str,
    max_states: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Entropy reduction H(T) - H(T|V) of the target under the fitted network
    joint: the mutual information of their pair marginal."""
    if target == predictor:
        raise ValueError("target and predictor must differ")
    return mutual_information(joint_marginal(network, {}, (target, predictor), max_states=max_states))


def target_pair_marginals(
    network: FittedNetwork, target: str, max_states: int = DEFAULT_ENUMERATION_CAP
) -> dict[str, np.ndarray]:
    """p(target, X) at posterior-mean parameters for every other node X:
    shape (target states, X states), summing to 1. One calibration gives
    them all (Koller & Friedman 2009, §10.2-10.4; Lauritzen & Spiegelhalter
    1988).

    The target is observed at each of its states, one record per state, and
    every other node is eliminated along one plan. The upward pass is
    eliminate's, keeping each step's product and message. The downward pass
    runs from the last step back. Each step's product is multiplied by what
    the step that consumed its message knows from the rest of the network:
    that step's calibrated product, summed onto the message's labels and
    divided by the message. The result is the joint of the record's target
    state with the step's labels; summed onto the step's variable, it is
    that variable's pair marginal. Only the target is observed, so every
    message is a sum of probabilities and cannot underflow. The only fully
    observed family, the target's own when it has no parents, weights each
    record.
    """
    if target not in network.dag.nodes:
        raise GraphError(f"unknown target {target!r}")
    schema = network.schema
    card = {n: schema.cardinality(n) for n in network.dag.nodes}
    others = [n for n in network.dag.nodes if n != target]
    if not others:
        return {}
    records = np.full((card[target], len(schema.names)), -1, dtype=np.int64)
    records[:, schema.index(target)] = np.arange(card[target])
    mean = {node: cpt.posterior_mean[None] for node, cpt in network.cpts.items()}
    weight = mean[target][0, 0] if not network.cpts[target].parent_order else np.ones(card[target])
    steps, _, plan = _plan(network, mean, set(others), (), max_states)
    consumer = {m: j for j, (_, _, messages, _) in enumerate(steps) for m, _ in messages}
    # the calibration keeps every step's product: a block of records holds
    # at most _BLOCK_CELLS cells of them, or one record
    cost = sum(math.prod(card[u] for u in labels) for labels, *_ in steps)
    step = max(1, _BLOCK_CELLS // cost)
    pairs = {}
    for start in range(0, len(records), step):
        block = records[start : start + step]
        products: list = []
        _, messages = _upward(plan, block, np.zeros(len(block), dtype=np.int64), products)
        for i in reversed(range(len(steps) - 1)):
            labels, _, _, axis = steps[i]
            above = steps[consumer[i]][0]
            lacking = tuple(1 + a for a, u in enumerate(above) if u not in labels)
            products[i] *= np.expand_dims(products[consumer[i]].sum(axis=lacking) / messages[i], axis)
            v = labels[axis - 1]
            marginal = products[i].sum(axis=tuple(a for a in range(1, len(labels) + 1) if a != axis))
            pairs.setdefault(v, []).append(marginal * weight[start : start + step, None])
    joints = {v: np.concatenate(pairs[v]) for v in others}
    return {v: joint / joint.sum() for v, joint in joints.items()}


def sensitivity_report(
    network: FittedNetwork, target: str, max_states: int = DEFAULT_ENUMERATION_CAP
) -> list[tuple[str, float]]:
    """Per-predictor sensitivity scores sorted by decreasing score: the
    mutual information of each target_pair_marginals entry, the same score
    as sensitivity's per-pair query, all from one calibration.

    Scores are rounded to 12 decimals, so that scores equal up to rounding
    noise (such as those of predictors d-separated from the target) tie
    exactly and are listed in label order.
    """
    pairs = target_pair_marginals(network, target, max_states)
    scores = [(node, round(mutual_information(joint), 12)) for node, joint in pairs.items()]
    scores.sort(key=lambda kv: (-kv[1], kv[0]))
    return scores


def write_fitted_network(network: FittedNetwork, path: str | Path) -> None:
    """CSV of posterior pseudo-counts: (node, parent_config, state, alpha_posterior)."""
    schema = network.schema
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node", "parent_config", "state", "alpha_posterior"])
        for node in schema.names:
            if node not in network.cpts:
                continue
            cpt = network.cpts[node]
            post = cpt.posterior
            strides = _config_strides(schema, cpt.parent_order)
            for j in range(post.shape[0]):
                if cpt.parent_order:
                    parts = []
                    for p, stride in zip(cpt.parent_order, strides):
                        state = (j // stride) % schema.cardinality(p)
                        parts.append(f"{p}={schema.spec(p).states[state]}")
                    label = "|".join(parts)
                else:
                    label = "-"
                for k, state_label in enumerate(schema.spec(node).states):
                    writer.writerow([node, label, state_label, repr(float(post[j, k]))])
