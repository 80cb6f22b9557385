"""One memo of family scores per (data, score, prior), against references
that each keep their own cache.

The references below are the greedy climb with one cache per climb, the
exhaustive bd search with its own cache, and the ranking that passes one
dict of local scores through log_marginal_likelihood. A memo must change no
result: the learners and the ranking give `==` edges, scores and rankings.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bnpipeline import structlearn
from bnpipeline.bayesnet import Dag, GraphError
from bnpipeline.dataset import Dataset, Schema, VariableSpec
from bnpipeline.modelselect import ModelRanking, build_ranking, local_log_marginal_likelihood
from bnpipeline.simulate import _channel, sample_dataset
from bnpipeline.structlearn import (
    CandidateModel,
    EdgeConstraints,
    bd_learn,
    chow_liu,
    hill_climb,
    local_bic,
    naive,
    tan,
)

PRIORS = [{"alpha0": 1.0}, {"alpha0": 0.3}, {"bdeu_ess": 4.0}]


# -- references ---------------------------------------------------------------

def reference_has_path(children, src, dst):
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


def reference_greedy_climb(nodes, start_edges, local_score, constraints):
    parents = {n: set() for n in nodes}
    children = {n: set() for n in nodes}
    for p, c in start_edges:
        parents[c].add(p)
        children[p].add(c)

    cache = {}

    def score_of(node, pset):
        key = (node, tuple(sorted(pset)))
        if key not in cache:
            cache[key] = local_score(node, key[1])
        return cache[key]

    total = sum(score_of(n, parents[n]) for n in nodes)
    ordered = sorted(nodes)
    tol = 1e-9
    while True:
        moves = []
        for u in ordered:
            for v in ordered:
                if u == v:
                    continue
                if v in children[u]:
                    continue
                if constraints.forbids(u, v):
                    continue
                if reference_has_path(children, v, u):
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
                creates_cycle = reference_has_path(children, u, v)
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


def reference_search(data, local_score, constraints, restarts, seed):
    """The climb from the whitelist, then each restart from the best DAG so
    far perturbed by structlearn._perturb, each climb with its own cache."""
    names = data.schema.names
    cons = constraints or EdgeConstraints()
    best_edges, best_score = reference_greedy_climb(names, cons.whitelist, local_score, cons)
    for k in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        start = structlearn._perturb(names, best_edges, cons, rng)
        edges, score = reference_greedy_climb(names, start, local_score, cons)
        if score > best_score:
            best_edges, best_score = edges, score
    return Dag(names, best_edges), best_score


def reference_bd_learn(data, constraints, prior):
    names = data.schema.names
    local = lambda node, ps: local_log_marginal_likelihood(data, node, ps, **prior)
    if len(names) > 5:
        return reference_search(data, local, constraints, 0, 0)

    cons = constraints or EdgeConstraints()
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    cache = {}

    def score_edges(edges):
        total = 0.0
        for node in names:
            ps = tuple(sorted(p for p, c in edges if c == node))
            key = (node, ps)
            if key not in cache:
                cache[key] = local(node, ps)
            total += cache[key]
        return total

    best_edges = None
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
        if not required <= set(edges):
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
    return Dag(names, best_edges), best_score


def reference_log_marginal_likelihood(dag, data, prior, scored):
    families = [(node, dag.parents(node)) for node in dag.nodes]
    for family in families:
        if family not in scored:
            scored[family] = local_log_marginal_likelihood(data, *family, **prior)
    return sum(scored[family] for family in families)


def reference_build_ranking(candidates, data, prior, benchmark="naive"):
    scored = {}
    scores = {
        c.label: reference_log_marginal_likelihood(c.dag, data, prior, scored) for c in candidates
    }
    entries = tuple(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))
    chain = tuple(
        (entries[i][0], entries[i + 1][0], entries[i][1] - entries[i + 1][1])
        for i in range(len(entries) - 1)
    )
    ordered = [label for label, _ in entries]
    pairwise = tuple(
        (a, b, scores[a] - scores[b]) for i, a in enumerate(ordered) for b in ordered[i + 1 :]
    )
    below = tuple(
        label
        for label, s in entries
        if benchmark in scores and label != benchmark and s < scores[benchmark]
    )
    return ModelRanking(entries, chain, pairwise, below)


# -- random problems ----------------------------------------------------------

@st.composite
def problems(draw, sizes=st.integers(2, 7)):
    """(data, constraints): columns that copy an earlier column through noise
    or are uniform, and an acyclic whitelist with a disjoint blacklist."""
    v = draw(sizes)
    cards = draw(st.lists(st.integers(2, 3), min_size=v, max_size=v))
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = tuple(f"V{i}" for i in range(v))
    schema = Schema(tuple(
        VariableSpec(name, tuple(str(s) for s in range(r)), "target" if i == 0 else "predictor")
        for i, (name, r) in enumerate(zip(names, cards))
    ))
    records = np.empty((n, v), dtype=np.int64)
    for j, r in enumerate(cards):
        noise = rng.integers(0, r, n)
        if j and rng.random() < 0.7:
            source = records[:, rng.integers(0, j)] % r
            records[:, j] = np.where(rng.random(n) < rng.uniform(0.5, 0.95), source, noise)
        else:
            records[:, j] = noise
    order = list(rng.permutation(names))
    pairs = [(a, b) for a, b in itertools.permutations(names, 2)]
    white = tuple(
        (a, b) for a, b in pairs if order.index(a) < order.index(b) and rng.random() < 0.1
    )
    black = tuple(p for p in pairs if p not in white and rng.random() < 0.15)
    constraints = EdgeConstraints(white, black) if draw(st.booleans()) else None
    return Dataset(schema, records), constraints


def candidates_of(data, constraints, rng):
    """The learners' candidates plus a user structure whose edge lines are
    shuffled, so dag.parents gives its parents out of sorted order."""
    target = data.schema.target
    models = [hill_climb(data, constraints), chow_liu(data, target), naive(data, target)]
    if len(data.schema.names) >= 3:
        models.append(tan(data, target))
    dense = list(models[-1].dag.edges) + [
        e for e in hill_climb(data).dag.edges if e not in models[-1].dag.edges
    ]
    try:
        shuffled = [dense[i] for i in rng.permutation(len(dense))]
        models.append(CandidateModel("user", Dag(data.schema.names, tuple(shuffled))))
    except GraphError:
        pass
    return models


# -- the memo changes no result -----------------------------------------------

@given(problems(), st.integers(0, 2), st.integers(0, 1000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_hill_climb_equals_the_per_climb_cache(problem, restarts, seed):
    data, constraints = problem
    model = hill_climb(data, constraints, restarts, seed)
    dag, score = reference_search(
        data, lambda node, ps: local_bic(data, node, ps), constraints, restarts, seed
    )
    assert model.dag == dag
    assert model.provenance["final_score"] == score
    cons = constraints or EdgeConstraints()
    assert set(cons.whitelist) <= set(model.dag.edges)
    assert not set(cons.blacklist) & set(model.dag.edges)


@given(problems(st.sampled_from([2, 3, 4, 6, 7])), st.sampled_from(PRIORS))
@settings(max_examples=40, deadline=None, derandomize=True)
@example((Dataset(
    Schema(tuple(VariableSpec(f"V{i}", ("0", "1"), "target" if i == 0 else "predictor")
                 for i in range(5))),
    np.array([[0, 0, 1, 1, 0], [1, 1, 0, 1, 1], [0, 0, 0, 0, 1], [1, 1, 1, 1, 0],
              [0, 1, 0, 0, 0], [1, 1, 1, 0, 1], [0, 0, 1, 1, 1], [1, 0, 0, 1, 0]]),
), EdgeConstraints((("V1", "V2"),), (("V3", "V4"),))), {"bdeu_ess": 4.0})
def test_bd_learn_equals_its_own_cache(problem, prior):
    data, constraints = problem
    model = bd_learn(data, constraints, **prior)
    dag, score = reference_bd_learn(data, constraints, prior)
    assert model.dag == dag
    assert model.provenance["final_score"] == score


@given(problems(), st.sampled_from(PRIORS), st.integers(0, 1000))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_ranking_equals_the_shared_dict(problem, prior, seed):
    data, constraints = problem
    models = candidates_of(data, constraints, np.random.default_rng(seed))
    assert build_ranking(models, data, **prior) == reference_build_ranking(models, data, prior)


# -- restarts -----------------------------------------------------------------

def wide_tree_data(v, n=5000, seed=60):
    """A random five-state tree rooted at T, each node's parent uniform over
    the earlier nodes and each CPT a noisy channel, sampled n times."""
    rng = np.random.default_rng(seed)
    names = ["T"] + [f"X{i}" for i in range(1, v)]
    schema = Schema(tuple(
        VariableSpec(name, tuple("12345"), "target" if name == "T" else "predictor")
        for name in names
    ))
    edges = tuple((names[int(rng.integers(0, i))], names[i]) for i in range(1, v))
    tables = {"T": np.full((1, 5), 0.2), **{child: _channel(rng, 5) for _, child in edges}}
    return sample_dataset(Dag(tuple(names), edges), schema, tables, n, seed=5)


@pytest.mark.parametrize("v, n", [(8, 300), (20, 2000)])
def test_restarts_score_each_family_once(monkeypatch, v, n):
    data = wide_tree_data(v, n)
    calls = []

    def counting(data, node, parents):
        calls.append((node, tuple(parents)))
        return local_bic(data, node, parents)

    monkeypatch.setattr(structlearn, "local_bic", counting)
    plain = hill_climb(data, restarts=0, seed=1).provenance["final_score"]
    calls.clear()
    restarted = hill_climb(data, restarts=3, seed=1).provenance["final_score"]
    assert len(calls) == len(set(calls))
    assert restarted >= plain


@given(problems(), st.integers(0, 1000))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_perturbation_keeps_the_constraints_and_acyclicity(problem, seed):
    data, constraints = problem
    cons = constraints or EdgeConstraints()
    best = hill_climb(data, cons).dag.edges
    rng = np.random.default_rng(seed)
    start = structlearn._perturb(data.schema.names, best, cons, rng)
    Dag(data.schema.names, start)  # raises on a cycle
    assert set(cons.whitelist) <= set(start)
    assert not set(cons.blacklist) & set(start)
    moved = set(start) ^ set(best)
    # each move adds, deletes or reverses one arc: at most two changed arcs
    assert len(moved) <= 2 * structlearn.PERTURB_MOVES
