import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnpipeline.bayesnet import Dag, fit_conjugate
from bnpipeline.dataset import DataError, Dataset, Schema, VariableSpec, contingency_table
from bnpipeline.infotheory import mutual_information
from bnpipeline.modelselect import log_marginal_likelihood
from bnpipeline.simulate import sample_dataset
from bnpipeline.structlearn import (
    ConstraintError,
    EdgeConstraints,
    bd_learn,
    bic_score,
    chow_liu,
    hill_climb,
    local_bic,
    naive,
    read_constraints,
    read_orientation,
    tan,
)


def make_schema(cards, names=None, target_index=0):
    names = names or [chr(ord("A") + i) for i in range(len(cards))]
    specs = [
        VariableSpec(n, tuple(str(s) for s in range(r)), "target" if i == target_index else "predictor")
        for i, (n, r) in enumerate(zip(names, cards))
    ]
    return Schema(tuple(specs))


def coupled_pair_data(n=2000, hit=0.9, seed=0):
    schema = make_schema([2, 2])
    dag = Dag(schema.names, (("A", "B"),))
    tables = {
        "A": np.array([[0.5, 0.5]]),
        "B": np.array([[hit, 1 - hit], [1 - hit, hit]]),
    }
    return sample_dataset(dag, schema, tables, n, seed)


def independent_data(m=3, n=2000, seed=1):
    schema = make_schema([2] * m)
    rng = np.random.default_rng(seed)
    return Dataset(schema, rng.integers(0, 2, size=(n, m)))


def all_two_node_dags(names):
    a, b = names
    return [Dag(names), Dag(names, ((a, b),)), Dag(names, ((b, a),))]


def neighbor_dags(dag, constraints=None):
    cons = constraints or EdgeConstraints()
    out = []
    nodes = dag.nodes
    edges = set(dag.edges)
    for u in nodes:
        for v in nodes:
            if u == v or (u, v) in edges or cons.forbids(u, v):
                continue
            try:
                out.append(Dag(nodes, dag.edges + ((u, v),)))
            except Exception:
                pass
    for u, v in dag.edges:
        if cons.requires(u, v):
            continue
        out.append(Dag(nodes, tuple(e for e in dag.edges if e != (u, v))))
        if not cons.forbids(v, u):
            try:
                out.append(Dag(nodes, tuple(e for e in dag.edges if e != (u, v)) + ((v, u),)))
            except Exception:
                pass
    return out


class TestBicScore:
    def test_single_binary_node_hand_value(self):
        schema = make_schema([2], names=["A"])
        data = Dataset(schema, np.array([[0], [0], [1]]))
        expected = 2 * math.log(2 / 3) + math.log(1 / 3) - 0.5 * math.log(3)
        assert bic_score(Dag(("A",)), data) == pytest.approx(expected, abs=1e-9)
        assert bic_score(Dag(("A",)), data) == pytest.approx(-2.458849, abs=1e-6)

    def test_empty_graph_beats_edges_on_independent_data(self):
        data = independent_data(m=3, n=3000, seed=4)
        empty = Dag(data.schema.names)
        for dag in (
            Dag(data.schema.names, (("A", "B"),)),
            Dag(data.schema.names, (("A", "B"), ("B", "C"))),
        ):
            assert bic_score(empty, data) > bic_score(dag, data)

    def test_likelihood_term_never_drops_when_adding_parent(self):
        rng = np.random.default_rng(12)
        schema = make_schema([3, 2, 2])
        data = Dataset(schema, rng.integers(0, 2, size=(200, 3)))

        def ll(node, parents):
            q = 1
            for p in parents:
                q *= data.schema.cardinality(p)
            r = data.schema.cardinality(node)
            penalty = 0.5 * math.log(data.n_records) * q * (r - 1)
            return local_bic(data, node, parents) + penalty

        for node in data.schema.names:
            others = [n for n in data.schema.names if n != node]
            assert ll(node, (others[0],)) >= ll(node, ()) - 1e-9
            assert ll(node, tuple(others)) >= ll(node, (others[0],)) - 1e-9

    def test_decomposability_of_arc_change(self):
        data = coupled_pair_data(n=400, seed=5)
        empty = Dag(data.schema.names)
        linked = Dag(data.schema.names, (("A", "B"),))
        family_delta = local_bic(data, "B", ("A",)) - local_bic(data, "B", ())
        assert bic_score(linked, data) - bic_score(empty, data) == pytest.approx(
            family_delta, abs=1e-9
        )


class TestHillClimb:
    def test_two_dependent_variables_single_arc(self):
        data = coupled_pair_data()
        model = hill_climb(data)
        assert model.dag.edges == (("A", "B"),)  # direction from the tie-break
        best = max(bic_score(d, data) for d in all_two_node_dags(data.schema.names))
        assert bic_score(model.dag, data) == pytest.approx(best, abs=1e-9)

    def test_independent_variables_empty_graph(self):
        model = hill_climb(independent_data(m=3, n=3000, seed=2))
        assert model.dag.edges == ()

    def test_whitelist_always_present(self):
        data = independent_data(m=3, n=1000, seed=3)
        cons = EdgeConstraints(whitelist=(("A", "C"),))
        model = hill_climb(data, cons)
        assert ("A", "C") in model.dag.edges

    def test_blacklist_respected(self):
        data = coupled_pair_data()
        cons = EdgeConstraints(blacklist=(("A", "B"),))
        model = hill_climb(data, cons)
        assert ("A", "B") not in model.dag.edges

    def test_local_optimality(self):
        rng = np.random.default_rng(8)
        schema = make_schema([2, 3, 2, 2])
        data = Dataset(schema, rng.integers(0, 2, size=(300, 4)))
        model = hill_climb(data)
        base = bic_score(model.dag, data)
        for neighbor in neighbor_dags(model.dag):
            assert bic_score(neighbor, data) <= base + 1e-9

    def test_restarts_deterministic_and_not_worse(self):
        data = coupled_pair_data(n=500, seed=6)
        plain = hill_climb(data, restarts=0, seed=1)
        restarted = hill_climb(data, restarts=3, seed=1)
        again = hill_climb(data, restarts=3, seed=1)
        assert restarted.dag == again.dag
        assert bic_score(restarted.dag, data) >= bic_score(plain.dag, data) - 1e-9

    def test_conflicting_constraints_rejected(self):
        with pytest.raises(ConstraintError):
            EdgeConstraints(whitelist=(("A", "B"),), blacklist=(("A", "B"),))
        with pytest.raises(ConstraintError):
            EdgeConstraints(whitelist=(("A", "B"), ("B", "A")))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_constraints_hold_on_random_sets(self, seed):
        rng = np.random.default_rng(seed)
        schema = make_schema([2, 2, 2, 2])
        data = Dataset(schema, rng.integers(0, 2, size=(80, 4)))
        names = schema.names
        pairs = [(a, b) for a in names for b in names if a != b]
        white = []
        black = []
        for pair in pairs:
            roll = rng.random()
            if roll < 0.08:
                white.append(pair)
            elif roll < 0.25:
                black.append(pair)
        try:
            cons = EdgeConstraints(tuple(white), tuple(black))
        except ConstraintError:
            return
        model = hill_climb(data, cons)
        for e in cons.whitelist:
            assert e in model.dag.edges
        for e in cons.blacklist:
            assert e not in model.dag.edges


# -- spanning-tree brute force ------------------------------------------------

def prufer_to_edges(seq, n):
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def best_tree_weight(names, weight):
    n = len(names)
    if n == 2:
        return weight[tuple(sorted(names))]
    best = -np.inf
    for seq in itertools.product(range(n), repeat=n - 2):
        total = sum(
            weight[tuple(sorted((names[a], names[b])))] for a, b in prufer_to_edges(seq, n)
        )
        best = max(best, total)
    return best


def tree_weight(dag, weight):
    return sum(weight[tuple(sorted(e))] for e in dag.edges)


class TestChowLiu:
    def test_skeleton_follows_mi_ordering(self):
        # A drives B strongly and B drives C; the A-C link is the weak one
        schema = make_schema([2, 2, 2])
        dag = Dag(schema.names, (("A", "B"), ("B", "C")))
        tables = {
            "A": np.array([[0.5, 0.5]]),
            "B": np.array([[0.9, 0.1], [0.1, 0.9]]),
            "C": np.array([[0.8, 0.2], [0.2, 0.8]]),
        }
        data = sample_dataset(dag, schema, tables, 4000, seed=3)
        model = chow_liu(data, "A")
        skeleton = {tuple(sorted(e)) for e in model.dag.edges}
        assert skeleton == {("A", "B"), ("B", "C")}

    def test_weight_optimal_against_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = int(rng.integers(3, 7))
            schema = make_schema([2] * m)
            data = Dataset(schema, rng.integers(0, 2, size=(60, m)))
            weight = {}
            names = schema.names
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    weight[(a, b)] = mutual_information(contingency_table(data, (a, b)))
            model = chow_liu(data, names[0])
            assert tree_weight(model.dag, weight) == pytest.approx(
                best_tree_weight(list(names), weight), abs=1e-12
            )

    def test_ties_resolve_deterministically(self):
        schema = make_schema([2, 2, 2])
        data = Dataset(schema, np.tile([[0, 0, 0], [1, 1, 1]], (10, 1)))
        a = chow_liu(data, "A")
        b = chow_liu(data, "A")
        assert a.dag == b.dag
        assert len(a.dag.edges) == 2

    def test_default_orientation_points_away_from_target(self):
        schema = make_schema([2, 2, 2, 2])
        dag = Dag(schema.names, (("A", "B"), ("A", "C"), ("C", "D")))
        tables = {
            "A": np.array([[0.5, 0.5]]),
            "B": np.array([[0.85, 0.15], [0.15, 0.85]]),
            "C": np.array([[0.85, 0.15], [0.15, 0.85]]),
            "D": np.array([[0.85, 0.15], [0.15, 0.85]]),
        }
        data = sample_dataset(dag, schema, tables, 5000, seed=9)
        model = chow_liu(data, "A")
        assert set(model.dag.edges) == set(dag.edges)
        assert model.dag.parents("A") == ()

    def test_orientation_file(self, tmp_path):
        schema = make_schema([2, 2])
        data = sample_dataset(
            Dag(schema.names, (("A", "B"),)),
            schema,
            {"A": np.array([[0.5, 0.5]]), "B": np.array([[0.9, 0.1], [0.1, 0.9]])},
            500,
            seed=1,
        )
        path = tmp_path / "dirs.txt"
        path.write_text("B -> A\n")
        model = chow_liu(data, "A", read_orientation(path))
        assert model.dag.edges == (("B", "A"),)
        bad = tmp_path / "bad.txt"
        bad.write_text("A -> B\nB -> A\n")
        with pytest.raises(DataError):
            chow_liu(data, "A", read_orientation(bad))

    def test_recovers_known_tree_skeleton(self):
        schema = make_schema([5] * 6, names=["T", "U", "V", "W", "X", "Y"])
        edges = (("T", "U"), ("U", "V"), ("V", "W"), ("U", "X"), ("X", "Y"))
        dag = Dag(schema.names, edges)
        rng = np.random.default_rng(30)
        tables = {"T": np.full((1, 5), 0.2)}
        for node in schema.names[1:]:
            perm = rng.permutation(5)
            table = np.full((5, 5), 0.45 / 4)
            table[np.arange(5), perm] = 0.55
            tables[node] = table
        data = sample_dataset(dag, schema, tables, 5000, seed=77)
        model = chow_liu(data, "T")
        assert {tuple(sorted(e)) for e in model.dag.edges} == {
            tuple(sorted(e)) for e in edges
        }


class TestTan:
    def test_two_features(self):
        schema = make_schema([2, 2, 2], names=["CLS", "X1", "X2"])
        rng = np.random.default_rng(2)
        data = Dataset(schema, rng.integers(0, 2, size=(200, 3)))
        model = tan(data, "CLS")
        assert set(model.dag.edges) == {("CLS", "X1"), ("CLS", "X2"), ("X1", "X2")}

    def test_feature_in_degree_at_most_two(self):
        schema = make_schema([3, 2, 2, 2, 2], names=["CLS", "P", "Q", "R", "S"])
        rng = np.random.default_rng(4)
        data = Dataset(schema, rng.integers(0, 2, size=(300, 5)))
        model = tan(data, "CLS")
        for f in ("P", "Q", "R", "S"):
            parents = model.dag.parents(f)
            assert "CLS" in parents
            assert len(parents) <= 2
        assert model.dag.parents("CLS") == ()
        # class arcs plus a spanning tree over the four features
        assert len(model.dag.edges) == 4 + 3

    def test_needs_two_features(self):
        schema = make_schema([2, 2], names=["CLS", "X"])
        data = Dataset(schema, np.zeros((5, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            tan(data, "CLS")


class TestNaive:
    def test_star_shape(self):
        data = independent_data(m=4, n=10)
        model = naive(data, "A")
        assert len(model.dag.edges) == 3
        for f in ("B", "C", "D"):
            assert model.dag.parents(f) == ("A",)
        assert model.dag.parents("A") == ()


class TestBdLearn:
    def test_two_node_dependent_matches_enumeration(self):
        data = coupled_pair_data(n=800, seed=11)
        model = bd_learn(data)
        best = max(
            all_two_node_dags(data.schema.names),
            key=lambda d: log_marginal_likelihood(d, data),
        )
        assert log_marginal_likelihood(model.dag, data) == pytest.approx(
            log_marginal_likelihood(best, data), abs=1e-9
        )
        assert len(model.dag.edges) == 1

    def test_score_identity_with_marginal_likelihood(self):
        data = coupled_pair_data(n=300, seed=13)
        model = bd_learn(data)
        assert model.provenance["final_score"] == pytest.approx(
            log_marginal_likelihood(model.dag, data), abs=1e-9
        )

    def test_independent_data_empty_graph(self):
        model = bd_learn(independent_data(m=3, n=2000, seed=14))
        assert model.dag.edges == ()

    def test_greedy_mode_beyond_five_nodes(self):
        data = independent_data(m=6, n=300, seed=15)
        model = bd_learn(data)
        assert model.provenance["algorithm"] == "bd_greedy"
        assert model.dag.nodes == data.schema.names

    def test_exhaustive_respects_constraints(self):
        data = independent_data(m=3, n=200, seed=16)
        cons = EdgeConstraints(whitelist=(("A", "B"),), blacklist=(("B", "C"),))
        model = bd_learn(data, cons)
        assert ("A", "B") in model.dag.edges
        assert ("B", "C") not in model.dag.edges


class TestConstraintFiles:
    def test_parse(self, tmp_path):
        path = tmp_path / "cons.txt"
        path.write_text("# rules\nrequire A -> B\nforbid C -> A\n")
        cons = read_constraints(path)
        assert cons.whitelist == (("A", "B"),)
        assert cons.blacklist == (("C", "A"),)

    def test_bad_directive(self, tmp_path):
        path = tmp_path / "cons.txt"
        path.write_text("demand A -> B\n")
        with pytest.raises(DataError):
            read_constraints(path)
