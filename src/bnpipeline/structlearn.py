"""Candidate structure learners: greedy BIC search, spanning trees, benchmarks.

Every learner is deterministic given its inputs and seed. Ties between
equally scored moves or equally weighted tree edges are broken
lexicographically so results are stable across platforms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

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


def _adjacency(nodes: Sequence[str], edges: Sequence[tuple[str, str]]) -> tuple[dict, dict]:
    """(parents, children): each node's set of parents and of children."""
    parents: dict[str, set[str]] = {n: set() for n in nodes}
    children: dict[str, set[str]] = {n: set() for n in nodes}
    for p, c in edges:
        parents[c].add(p)
        children[p].add(c)
    return parents, children


def _legal_moves(
    ordered: Sequence[str], children: dict[str, set[str]], constraints: EdgeConstraints
) -> Iterator[tuple[str, str, str]]:
    """Every single-arc add, delete or reverse that keeps the graph acyclic
    and the constraints met, as (op, u, v) for the arc u -> v."""
    for u in ordered:
        for v in ordered:
            if u == v or v in children[u] or constraints.forbids(u, v):
                continue
            if not _has_path(children, v, u):
                yield "add", u, v
    for u in ordered:
        for v in sorted(children[u]):
            if not constraints.requires(u, v):
                yield "delete", u, v
    for u in ordered:
        for v in sorted(children[u]):
            if constraints.requires(u, v) or constraints.forbids(v, u):
                continue
            children[u].discard(v)
            creates_cycle = _has_path(children, u, v)
            children[u].add(v)
            if not creates_cycle:
                yield "reverse", u, v


def _apply(
    parents: dict[str, set[str]], children: dict[str, set[str]], op: str, u: str, v: str
) -> None:
    if op in ("delete", "reverse"):
        parents[v].discard(u)
        children[u].discard(v)
    if op == "add":
        parents[v].add(u)
        children[u].add(v)
    elif op == "reverse":
        parents[u].add(v)
        children[v].add(u)


def _greedy_climb(
    nodes: Sequence[str],
    start_edges: Sequence[tuple[str, str]],
    local_score: Callable[[str, tuple[str, ...]], float],
    constraints: EdgeConstraints,
) -> tuple[tuple[tuple[str, str], ...], float]:
    """Best-improvement climb from start_edges. local_score(node, parents)
    gets the parents as a sorted tuple."""
    parents, children = _adjacency(nodes, start_edges)

    def score_of(node: str, pset: set[str]) -> float:
        return local_score(node, tuple(sorted(pset)))

    def gain(op: str, u: str, v: str) -> float:
        if op == "add":
            return score_of(v, parents[v] | {u}) - score_of(v, parents[v])
        delta = score_of(v, parents[v] - {u}) - score_of(v, parents[v])
        if op == "delete":
            return delta
        return delta + score_of(u, parents[u] | {v}) - score_of(u, parents[u])

    total = sum(score_of(n, parents[n]) for n in nodes)
    ordered = sorted(nodes)
    tol = 1e-9  # deltas this close count as ties so direction is deterministic
    while True:
        moves = [(move, gain(*move)) for move in _legal_moves(ordered, children, constraints)]
        if not moves:
            break
        best_delta = max(delta for _, delta in moves)
        if best_delta <= tol:
            break
        move, step = min((key, d) for key, d in moves if d >= best_delta - tol)
        _apply(parents, children, *move)
        total += step
    return tuple(sorted((p, c) for c, ps in parents.items() for p in ps)), total


# random legal moves that turn the best DAG so far into a restart's start, as
# bnlearn's hc(restart, perturb) does (Scutari 2010, J. Stat. Softw. 35(3));
# a few moves keep every family near the sizes the data supports
PERTURB_MOVES = 5


def _perturb(
    nodes: Sequence[str],
    edges: Sequence[tuple[str, str]],
    constraints: EdgeConstraints,
    rng: np.random.Generator,
) -> tuple[tuple[str, str], ...]:
    """edges after PERTURB_MOVES moves, each drawn uniformly from the legal
    adds, deletes and reverses of the graph the previous move left."""
    parents, children = _adjacency(nodes, edges)
    ordered = sorted(nodes)
    for _ in range(PERTURB_MOVES):
        moves = list(_legal_moves(ordered, children, constraints))
        if not moves:
            break
        _apply(parents, children, *moves[rng.integers(len(moves))])
    return tuple(sorted((p, c) for c, ps in parents.items() for p in ps))


def _search(
    data: Dataset,
    local_score: Callable[[str, tuple[str, ...]], float],
    constraints: EdgeConstraints | None,
    restarts: int,
    seed: int,
) -> tuple[Dag, float]:
    """hill_climb's search; every climb calls local_score, so pass a memo."""
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
        start = _perturb(names, best_edges, cons, rng)
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
    lexicographically smallest (operation, parent, child). Each restart
    climbs from the best DAG so far after PERTURB_MOVES random legal moves,
    drawn from SeedSequence(seed, spawn_key=(k,)) for restart k; the best
    climb is kept, and every climb shares one memo of family scores.
    """
    bic = functools.cache(functools.partial(local_bic, data))
    dag, score = _search(data, bic, constraints, restarts, seed)
    return CandidateModel(
        "hc", dag,
        {"algorithm": "hill_climb", "score": "bic", "restarts": restarts, "seed": seed,
         "final_score": score},
    )


def bd_learn(
    data: Dataset,
    constraints: EdgeConstraints | None = None,
    alpha0: float = 1.0,
    bdeu_ess: float | None = None,
    seed: int = 0,
) -> CandidateModel:
    """Maximize the Dirichlet marginal-likelihood score under the prior
    build_ranking ranks by: bdeu_ess when given, else flat alpha0.

    Up to 5 variables every DAG is enumerated; beyond that the greedy
    searcher runs with the marginal likelihood in place of BIC.
    """
    names = data.schema.names
    local = functools.cache(
        functools.partial(local_log_marginal_likelihood, data, alpha0=alpha0, bdeu_ess=bdeu_ess)
    )
    prior = {"alpha0": alpha0, "bdeu_ess": bdeu_ess}
    if len(names) > 5:
        dag, score = _search(data, local, constraints, 0, seed)
        return CandidateModel(
            "bd", dag, {"algorithm": "bd_greedy", **prior, "seed": seed, "final_score": score}
        )

    cons = constraints or EdgeConstraints()
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
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
        score = sum(local(node, tuple(sorted(p for p, c in edges if c == node))) for node in names)
        if score > best_score:
            best_score = score
            best_edges = tuple(sorted(edges))
    if best_edges is None:
        raise ConstraintError("no DAG satisfies the constraints")
    return CandidateModel(
        "bd", Dag(names, best_edges),
        {"algorithm": "bd_exhaustive", **prior, "final_score": best_score},
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
