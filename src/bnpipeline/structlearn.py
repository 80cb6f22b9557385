"""Candidate structure learners: greedy BIC search, spanning trees, benchmarks.

Every learner is deterministic given its inputs and seed. Ties between
equally scored moves or equally weighted tree edges are broken
lexicographically so results are stable across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .bayesnet import Dag, GraphError, family_counts, parse_edge
from .dataset import DataError, Dataset, content_lines, contingency_table, read_text
from .infotheory import conditional_mutual_information, mutual_information
from .modelselect import local_log_marginal_likelihood


class ConstraintError(Exception):
    pass


@dataclass(frozen=True)
class EdgeConstraints:
    """Required and forbidden directed edges for structure search."""

    whitelist: tuple[tuple[str, str], ...] = ()
    blacklist: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        # edge sets for the membership tests; the dataclass is frozen
        object.__setattr__(self, "_required", frozenset(self.whitelist))
        object.__setattr__(self, "_forbidden", frozenset(self.blacklist))
        overlap = self._required & self._forbidden
        if overlap:
            raise ConstraintError(f"edges both required and forbidden: {sorted(overlap)}")
        nodes = tuple(sorted({n for e in self.whitelist for n in e}))
        try:
            Dag(nodes, tuple(dict.fromkeys(self.whitelist)))
        except GraphError as exc:
            raise ConstraintError(f"whitelist is not acyclic: {exc}") from exc

    def forbids(self, parent: str, child: str) -> bool:
        return (parent, child) in self._forbidden

    def requires(self, parent: str, child: str) -> bool:
        return (parent, child) in self._required


@dataclass(frozen=True)
class CandidateModel:
    label: str
    dag: Dag
    provenance: dict = field(default_factory=dict)


def read_constraints(path: str | Path) -> EdgeConstraints:
    """Constraint file: lines `require A -> B` and `forbid A -> B`. Constraints
    that contradict each other are a DataError naming the file."""
    edges: dict[str, list[tuple[str, str]]] = {"require": [], "forbid": []}
    for lineno, line in content_lines(read_text(path)):
        kind = line.split()[0]
        if kind not in edges:
            raise DataError(f"{path}:{lineno}: expected 'require A -> B' or 'forbid A -> B'")
        edges[kind].append(parse_edge(line[len(kind) :], f"{path}:{lineno}"))
    try:
        return EdgeConstraints(tuple(edges["require"]), tuple(edges["forbid"]))
    except ConstraintError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_orientation(path: str | Path) -> list[tuple[str, str]]:
    """Orientation file: one `A -> B` line per skeleton edge."""
    lines = content_lines(read_text(path))
    return [parse_edge(line, f"{path}:{lineno}") for lineno, line in lines]


# ---------------------------------------------------------------------------
# BIC
# ---------------------------------------------------------------------------

def local_bic(data: Dataset, node: str, parents: Sequence[str]) -> float:
    """Max-likelihood log-likelihood of one family minus its BIC penalty.

    Unseen parent configurations contribute nothing to the likelihood but
    their parameters still count in the penalty, q * (r - 1) per family.
    """
    counts = family_counts(data, node, parents).astype(float)
    q, r = counts.shape
    n_j = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.where(counts > 0, counts * (np.log(counts) - np.log(n_j)), 0.0)
    penalty = 0.5 * np.log(max(data.n_records, 1)) * q * (r - 1)
    return float(ll.sum() - penalty)


def bic_score(dag: Dag, data: Dataset) -> float:
    """Decomposable BIC of a structure; higher is better."""
    return sum(local_bic(data, node, dag.parents(node)) for node in dag.nodes)


# ---------------------------------------------------------------------------
# greedy search over add / delete / reverse
# ---------------------------------------------------------------------------

def _has_path(children: dict[str, set[str]], src: str, dst: str) -> bool:
    stack = [src]
    seen = set()
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(children[node])
    return False


def _greedy_climb(
    nodes: Sequence[str],
    start_edges: Sequence[tuple[str, str]],
    local_score: Callable[[str, tuple[str, ...]], float],
    constraints: EdgeConstraints,
) -> tuple[tuple[tuple[str, str], ...], float]:
    parents: dict[str, set[str]] = {n: set() for n in nodes}
    children: dict[str, set[str]] = {n: set() for n in nodes}
    for p, c in start_edges:
        parents[c].add(p)
        children[p].add(c)

    cache: dict[tuple[str, tuple[str, ...]], float] = {}

    def score_of(node: str, pset: set[str]) -> float:
        key = (node, tuple(sorted(pset)))
        if key not in cache:
            cache[key] = local_score(node, key[1])
        return cache[key]

    total = sum(score_of(n, parents[n]) for n in nodes)
    ordered = sorted(nodes)
    tol = 1e-9  # deltas this close count as ties so direction is deterministic
    while True:
        moves: list[tuple[tuple[str, str, str], float]] = []
        for u in ordered:
            for v in ordered:
                if u == v:
                    continue
                if v in children[u]:
                    continue
                if constraints.forbids(u, v):
                    continue
                if _has_path(children, v, u):
                    continue
                delta = score_of(v, parents[v] | {u}) - score_of(v, parents[v])
                moves.append((("add", u, v), delta))
        for u in ordered:
            for v in sorted(children[u]):
                if constraints.requires(u, v):
                    continue
                moves.append(
                    (("delete", u, v), score_of(v, parents[v] - {u}) - score_of(v, parents[v]))
                )
        for u in ordered:
            for v in sorted(children[u]):
                if constraints.requires(u, v) or constraints.forbids(v, u):
                    continue
                children[u].discard(v)
                creates_cycle = _has_path(children, u, v)
                children[u].add(v)
                if creates_cycle:
                    continue
                delta = (
                    score_of(v, parents[v] - {u})
                    - score_of(v, parents[v])
                    + score_of(u, parents[u] | {v})
                    - score_of(u, parents[u])
                )
                moves.append((("reverse", u, v), delta))
        if not moves:
            break
        best_delta = max(delta for _, delta in moves)
        if best_delta <= tol:
            break
        (op, u, v), step = min((key, d) for key, d in moves if d >= best_delta - tol)
        if op == "add":
            parents[v].add(u)
            children[u].add(v)
        elif op == "delete":
            parents[v].discard(u)
            children[u].discard(v)
        else:
            parents[v].discard(u)
            children[u].discard(v)
            parents[u].add(v)
            children[v].add(u)
        total += step

    edges = tuple(sorted((p, c) for c, ps in parents.items() for p in ps))
    return edges, total


def _random_start(
    nodes: Sequence[str], constraints: EdgeConstraints, rng: np.random.Generator
) -> list[tuple[str, str]]:
    """Random order-respecting DAG on top of the whitelist.

    Whitelist edges may point against the sampled order, so each candidate
    edge is checked against the full graph rather than trusted to the order.
    """
    order = list(rng.permutation(list(nodes)))
    edges = list(constraints.whitelist)
    present = set(edges)
    for i, u in enumerate(order):
        for v in order[i + 1 :]:
            if (u, v) in present or constraints.forbids(u, v):
                continue
            if rng.random() < 0.25:
                try:
                    Dag(tuple(nodes), tuple(edges + [(u, v)]))
                except GraphError:
                    continue
                edges.append((u, v))
                present.add((u, v))
    return edges


def _search(
    data: Dataset,
    local_score: Callable[[str, tuple[str, ...]], float],
    constraints: EdgeConstraints | None,
    restarts: int,
    seed: int,
) -> tuple[Dag, float]:
    names = data.schema.names
    if len(names) < 2:
        raise ValueError("need at least 2 variables")
    cons = constraints or EdgeConstraints()
    for p, c in cons.whitelist + cons.blacklist:
        if p not in names or c not in names:
            raise ConstraintError(f"constraint edge ({p}, {c}) references unknown variable")

    best_edges, best_score = _greedy_climb(names, cons.whitelist, local_score, cons)
    for k in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        start = _random_start(names, cons, rng)
        edges, score = _greedy_climb(names, start, local_score, cons)
        if score > best_score:
            best_edges, best_score = edges, score
    return Dag(names, best_edges), best_score


def hill_climb(
    data: Dataset,
    constraints: EdgeConstraints | None = None,
    restarts: int = 0,
    seed: int = 0,
) -> CandidateModel:
    """Greedy BIC maximization by single-arc additions, deletions and reversals.

    The returned structure is a local optimum: no single constrained arc
    change improves the score. Equal-score moves resolve to the
    lexicographically smallest (operation, parent, child).
    """
    dag, score = _search(
        data, lambda node, ps: local_bic(data, node, ps), constraints, restarts, seed
    )
    return CandidateModel(
        "hc", dag,
        {"algorithm": "hill_climb", "score": "bic", "restarts": restarts, "seed": seed,
         "final_score": score},
    )


def bd_learn(
    data: Dataset,
    constraints: EdgeConstraints | None = None,
    alpha0: float = 1.0,
    seed: int = 0,
) -> CandidateModel:
    """Maximize the Dirichlet marginal-likelihood score.

    Up to 5 variables every DAG is enumerated; beyond that the greedy
    searcher runs with the marginal likelihood in place of BIC.
    """
    names = data.schema.names
    local = lambda node, ps: local_log_marginal_likelihood(data, node, ps, alpha0)
    if len(names) > 5:
        dag, score = _search(data, local, constraints, 0, seed)
        return CandidateModel(
            "bd", dag,
            {"algorithm": "bd_greedy", "alpha0": alpha0, "seed": seed, "final_score": score},
        )

    cons = constraints or EdgeConstraints()
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    cache: dict[tuple[str, tuple[str, ...]], float] = {}

    def score_edges(edges: tuple[tuple[str, str], ...]) -> float:
        total = 0.0
        for node in names:
            ps = tuple(sorted(p for p, c in edges if c == node))
            key = (node, ps)
            if key not in cache:
                cache[key] = local(node, ps)
            total += cache[key]
        return total

    best_edges: tuple[tuple[str, str], ...] | None = None
    best_score = -np.inf
    required = set(cons.whitelist)
    for assignment in np.ndindex(*([3] * len(pairs))):
        edges = []
        ok = True
        for code, (a, b) in zip(assignment, pairs):
            if code == 1:
                edges.append((a, b))
            elif code == 2:
                edges.append((b, a))
        edge_set = set(edges)
        if not required <= edge_set:
            continue
        for e in edges:
            if cons.forbids(*e):
                ok = False
                break
        if not ok:
            continue
        try:
            Dag(names, tuple(edges))
        except GraphError:
            continue
        score = score_edges(tuple(edges))
        if score > best_score:
            best_score = score
            best_edges = tuple(sorted(edges))
    if best_edges is None:
        raise ConstraintError("no DAG satisfies the constraints")
    return CandidateModel(
        "bd", Dag(names, best_edges),
        {"algorithm": "bd_exhaustive", "alpha0": alpha0, "final_score": best_score},
    )


# ---------------------------------------------------------------------------
# spanning-tree learners
# ---------------------------------------------------------------------------

def _max_spanning_tree(
    vertices: Sequence[str], weight: dict[tuple[str, str], float]
) -> list[tuple[str, str]]:
    """Kruskal over unordered pairs; ties broken by the lexicographic pair."""
    ranked = sorted(weight.items(), key=lambda kv: (-kv[1], kv[0]))
    root = {v: v for v in vertices}

    def find(v: str) -> str:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    tree = []
    for (a, b), _ in ranked:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
            tree.append((a, b))
        if len(tree) == len(vertices) - 1:
            break
    return tree


def _orient_away_from(
    vertices: Sequence[str], skeleton: Sequence[tuple[str, str]], root: str
) -> list[tuple[str, str]]:
    neigh: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in skeleton:
        neigh[a].add(b)
        neigh[b].add(a)
    edges = []
    queue = [root]
    visited = {root}
    while queue:
        node = queue.pop(0)
        for other in sorted(neigh[node]):
            if other not in visited:
                visited.add(other)
                edges.append((node, other))
                queue.append(other)
    return edges


def chow_liu(
    data: Dataset, target: str, orientation: Sequence[tuple[str, str]] | None = None
) -> CandidateModel:
    """Maximum spanning tree over pairwise mutual information.

    By default the skeleton is oriented away from the target; an explicit
    orientation (for instance expert-chosen directions) must cover exactly
    the skeleton edges.
    """
    names = data.schema.names
    if len(names) < 2:
        raise ValueError("need at least 2 variables")
    if target not in names:
        raise ValueError(f"unknown target {target!r}")
    weight = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            x, y = sorted((a, b))
            weight[(x, y)] = mutual_information(contingency_table(data, (x, y)))
    skeleton = _max_spanning_tree(sorted(names), weight)
    if orientation is None:
        edges = _orient_away_from(names, skeleton, target)
        how = "root-at-target"
    else:
        wanted = {frozenset(e) for e in skeleton}
        got = {frozenset(e) for e in orientation}
        if wanted != got or len(orientation) != len(skeleton):
            raise DataError(
                "orientation does not match the learned skeleton: "
                f"skeleton {sorted(tuple(sorted(e)) for e in wanted)}"
            )
        edges = list(orientation)
        how = "file"
    return CandidateModel(
        "chowliu", Dag(names, tuple(sorted(edges))),
        {"algorithm": "chow_liu", "target": target, "orientation": how},
    )


def tan(data: Dataset, class_variable: str) -> CandidateModel:
    """Tree-augmented naive Bayes: class parents everything, plus a feature
    tree weighted by class-conditional mutual information."""
    names = data.schema.names
    if class_variable not in names:
        raise ValueError(f"unknown class variable {class_variable!r}")
    features = [n for n in names if n != class_variable]
    if len(features) < 2:
        raise ValueError("tree-augmented structure needs at least 2 features")
    weight = {}
    for i, a in enumerate(features):
        for b in features[i + 1 :]:
            x, y = sorted((a, b))
            table = contingency_table(data, (x, y, class_variable))
            weight[(x, y)] = conditional_mutual_information(table)
    skeleton = _max_spanning_tree(sorted(features), weight)
    root = min(features)
    edges = _orient_away_from(features, skeleton, root)
    edges.extend((class_variable, f) for f in features)
    return CandidateModel(
        "tan", Dag(names, tuple(sorted(edges))),
        {"algorithm": "tan", "class": class_variable, "root": root},
    )


def naive(data: Dataset, class_variable: str) -> CandidateModel:
    """Benchmark star: the class is the only parent of every feature."""
    names = data.schema.names
    if class_variable not in names:
        raise ValueError(f"unknown class variable {class_variable!r}")
    edges = tuple(sorted((class_variable, n) for n in names if n != class_variable))
    return CandidateModel("naive", Dag(names, edges), {"algorithm": "naive", "class": class_variable})
