import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnpipeline import bayesnet
from bnpipeline.bayesnet import (
    Cpt,
    CycleError,
    Dag,
    DuplicateEdge,
    EnumerationTooLarge,
    FittedNetwork,
    cpt_parameter_count,
    fit_conjugate,
    joint_marginal,
    min_fill_order,
    missing_groups,
    posterior_marginal,
    read_structure,
    sensitivity,
    sensitivity_report,
    subtract_counts,
    target_pair_marginals,
    topological_sort,
    write_fitted_network,
    write_structure,
)
from bnpipeline.bayesnet import eliminate
from bnpipeline.dataset import DataError, Dataset, Schema, VariableSpec
from bnpipeline.dataset import ingest_csv, read_schema
from bnpipeline.infotheory import entropy, mutual_information
from bnpipeline.simulate import sample_dataset


def make_schema(cards, target_index=0):
    specs = []
    for i, r in enumerate(cards):
        name = chr(ord("A") + i)
        role = "target" if i == target_index else "predictor"
        specs.append(VariableSpec(name, tuple(str(s) for s in range(r)), role))
    return Schema(tuple(specs))


def random_network(rng, max_nodes=5, max_states=4):
    m = int(rng.integers(2, max_nodes + 1))
    cards = [int(rng.integers(2, max_states + 1)) for _ in range(m)]
    schema = make_schema(cards)
    names = schema.names
    order = list(rng.permutation(list(names)))
    edges = []
    for i, u in enumerate(order):
        for v in order[i + 1 :]:
            if rng.random() < 0.45:
                edges.append((u, v))
    dag = Dag(names, tuple(edges))
    n = int(rng.integers(20, 120))
    records = np.column_stack([rng.integers(0, r, size=n) for r in cards])
    data = Dataset(schema, records)
    return fit_conjugate(dag, data)


def brute_force_conditional(network, evidence, query):
    """Oracle: walk the entire state space calculating product-of-CPT mass."""
    schema = network.schema
    names = [n for n in schema.names if n in network.dag.nodes]
    cards = [schema.cardinality(n) for n in names]
    means = {n: network.cpts[n].posterior_mean for n in names}
    out = np.zeros(schema.cardinality(query))
    for combo in itertools.product(*(range(r) for r in cards)):
        state = dict(zip(names, combo))
        if any(state[v] != s for v, s in evidence.items() if v in state):
            continue
        mass = 1.0
        for node in names:
            cpt = network.cpts[node]
            row = 0
            for p in cpt.parent_order:
                row = row * schema.cardinality(p) + state[p]
            mass *= means[node][row, state[node]]
        out[state[query]] += mass
    return out / out.sum()


class TestDagOps:
    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag(("A", "B"), (("A", "B"), ("B", "A")))

    def test_three_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag(("A", "B", "C"), (("A", "B"), ("B", "C"), ("C", "A")))

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            Dag(("A", "B"), (("A", "B"), ("A", "B")))

    def test_self_loop_rejected(self):
        with pytest.raises(Exception):
            Dag(("A",), (("A", "A"),))

    def test_topological_sort(self):
        dag = Dag(("C", "A", "B"), (("A", "B"), ("B", "C")))
        assert topological_sort(dag) == ["A", "B", "C"]


class TestStructureFiles:
    def test_round_trip(self, tmp_path):
        dag = Dag(("A", "B", "C", "D"), (("A", "B"), ("B", "C")))
        path = tmp_path / "net.structure"
        write_structure(dag, path)
        loaded = read_structure(path)
        assert set(loaded.nodes) == set(dag.nodes)
        assert set(loaded.edges) == set(dag.edges)
        # canonical rewrite is stable
        write_structure(loaded, tmp_path / "net2.structure")
        assert (tmp_path / "net2.structure").read_bytes() == path.read_bytes()

    def test_comments_and_isolated(self, tmp_path):
        path = tmp_path / "net.structure"
        path.write_text("# proposal\nA -> B  # main link\nnode Z\n")
        dag = read_structure(path)
        assert set(dag.nodes) == {"A", "B", "Z"}
        assert dag.edges == (("A", "B"),)

    def test_arrow_line_from_a_variable_named_node_is_an_edge(self, tmp_path):
        path = tmp_path / "net.structure"
        path.write_text("node -> A\nnode B\n")
        dag = read_structure(path)
        assert set(dag.nodes) == {"node", "A", "B"}
        assert dag.edges == (("node", "A"),)
        path.write_text("node ->\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:1:")):
            read_structure(path)

    def test_cyclic_file_rejected(self, tmp_path):
        path = tmp_path / "net.structure"
        path.write_text("A -> B\nB -> A\n")
        with pytest.raises(Exception):
            read_structure(path)


class TestSubtractCounts:
    def test_equals_refit_on_remaining_rows(self):
        net = random_network(np.random.default_rng(8))
        data = Dataset(net.schema, np.column_stack(
            [np.random.default_rng(9).integers(0, net.schema.cardinality(n), 60)
             for n in net.schema.names]
        ))
        whole = fit_conjugate(net.dag, data, alpha0=0.5)
        rest = subtract_counts(whole, data.subset(range(20)), np.zeros(20, dtype=np.int64))
        refit = fit_conjugate(net.dag, data.subset(range(20, 60)), alpha0=0.5)
        for node, cpt in refit.cpts.items():
            assert rest[node].shape == (1, *cpt.counts.shape)
            assert np.array_equal(rest[node][0], cpt.counts)

    def test_rows_not_fitted_rejected(self):
        net = random_network(np.random.default_rng(8))
        empty = fit_conjugate(net.dag, Dataset(net.schema, np.empty((0, len(net.schema.names)))))
        rows = Dataset(net.schema, np.zeros((1, len(net.schema.names)), dtype=np.int64))
        with pytest.raises(ValueError, match="below 0"):
            subtract_counts(empty, rows, np.zeros(1, dtype=np.int64))

    def test_fold_axis_equals_one_subtraction_per_fold(self):
        net = random_network(np.random.default_rng(10))
        rng = np.random.default_rng(11)
        data = Dataset(net.schema, np.column_stack(
            [rng.integers(0, net.schema.cardinality(n), 90) for n in net.schema.names]
        ))
        whole = fit_conjugate(net.dag, data, alpha0=0.5)
        held_out = data.subset(range(30))
        folds = rng.integers(0, 4, 30)
        folds[-1] = 3  # the largest index sets the number of folds
        stacks = subtract_counts(whole, held_out, folds)
        for f in range(4):
            rows = np.flatnonzero(folds == f)
            want = subtract_counts(whole, held_out.subset(rows), np.zeros(len(rows), dtype=np.int64))
            for node, stack in stacks.items():
                assert len(stack) == 4
                assert np.array_equal(stack[f], want[node][0])

    def test_fold_rows_not_fitted_rejected(self):
        net = random_network(np.random.default_rng(8))
        empty = fit_conjugate(net.dag, Dataset(net.schema, np.empty((0, len(net.schema.names)))))
        rows = Dataset(net.schema, np.zeros((2, len(net.schema.names)), dtype=np.int64))
        with pytest.raises(ValueError, match="below 0"):
            subtract_counts(empty, rows, np.array([0, 1]))


def reconstructed_review_structure():
    """Tree-skeleton network over one 10-state root target, a 5-state second
    root, and seven 5-state descendants, with one two-parent collider."""
    states10 = tuple(str(i) for i in range(1, 11))
    states5 = tuple(str(i) for i in range(1, 6))
    specs = [VariableSpec("FINAL_EVAL", states10, "target")]
    for name in (
        "COLLAB_INFL", "DEC_MAKING", "INNOV_SIMPL", "INTEGRITY",
        "LEAD_INCL", "PROP_TO_CHANGE", "VAL_FOR_CLI", "VISION",
    ):
        specs.append(VariableSpec(name, states5))
    schema = Schema(tuple(specs))
    edges = (
        ("FINAL_EVAL", "LEAD_INCL"),
        ("FINAL_EVAL", "INTEGRITY"),
        ("FINAL_EVAL", "VAL_FOR_CLI"),
        ("FINAL_EVAL", "DEC_MAKING"),
        ("DEC_MAKING", "COLLAB_INFL"),
        ("PROP_TO_CHANGE", "COLLAB_INFL"),
        ("PROP_TO_CHANGE", "VISION"),
        ("VISION", "INNOV_SIMPL"),
    )
    dag = Dag(schema.names, edges)
    data = Dataset(schema, np.empty((0, 9), dtype=np.int64))
    return fit_conjugate(dag, data)


class TestSharedFamilyCounts:
    def test_each_family_counted_once_across_fits(self, monkeypatch):
        net = random_network(np.random.default_rng(12), max_nodes=5)
        rng = np.random.default_rng(13)
        data = Dataset(net.schema, np.column_stack(
            [rng.integers(0, net.schema.cardinality(n), 50) for n in net.schema.names]
        ))
        dags = [net.dag, Dag(net.dag.nodes), net.dag]
        alone = [fit_conjugate(dag, data, 0.5) for dag in dags]
        counted_families = []
        count = bayesnet.family_counts
        monkeypatch.setattr(
            bayesnet, "family_counts", lambda d, node, parents: counted_families.append((node, parents)) or count(d, node, parents)
        )
        counted = {}
        shared = [fit_conjugate(dag, data, 0.5, counted) for dag in dags]
        assert sorted(counted_families) == sorted(set(counted_families)) == sorted(counted)
        for got, want in zip(shared, alone):
            for node, cpt in want.cpts.items():
                assert np.array_equal(got.cpts[node].counts, cpt.counts)


class TestParameterCounts:
    def test_review_structure_counts(self):
        net = reconstructed_review_structure()
        assert cpt_parameter_count(net, "FINAL_EVAL") == 10
        assert cpt_parameter_count(net, "PROP_TO_CHANGE") == 5
        assert cpt_parameter_count(net, "LEAD_INCL") == 10 * 5
        assert cpt_parameter_count(net, "INTEGRITY") == 10 * 5
        assert cpt_parameter_count(net, "VAL_FOR_CLI") == 10 * 5
        assert cpt_parameter_count(net, "DEC_MAKING") == 10 * 5
        assert cpt_parameter_count(net, "INNOV_SIMPL") == 5 * 5
        assert cpt_parameter_count(net, "VISION") == 5 * 5
        assert cpt_parameter_count(net, "COLLAB_INFL") == 25 * 5

    def test_skeleton_is_a_tree(self):
        net = reconstructed_review_structure()
        assert len(net.dag.edges) == len(net.dag.nodes) - 1


class TestFitConjugate:
    def test_empty_data_gives_prior(self):
        schema = make_schema([2, 2])
        data = Dataset(schema, np.empty((0, 2), dtype=np.int64))
        net = fit_conjugate(Dag(schema.names, (("A", "B"),)), data)
        assert np.all(net.cpts["B"].posterior == 1.0)

    def test_root_binary_counts(self):
        schema = make_schema([2])
        data = Dataset(schema, np.array([[0], [0], [1]]))
        net = fit_conjugate(Dag(schema.names), data)
        assert net.cpts["A"].posterior.tolist() == [[3.0, 2.0]]
        assert net.cpts["A"].posterior_mean.tolist() == [[0.6, 0.4]]

    def test_unseen_parent_config_stays_prior(self):
        schema = make_schema([2, 2])
        data = Dataset(schema, np.array([[0, 0], [0, 1]]))
        net = fit_conjugate(Dag(schema.names, (("A", "B"),)), data)
        assert net.cpts["B"].posterior[1].tolist() == [1.0, 1.0]

    def test_pseudo_count_bookkeeping(self):
        rng = np.random.default_rng(7)
        net = random_network(rng)
        data_counts = {n: net.cpts[n].counts for n in net.dag.nodes}
        for node in net.dag.nodes:
            cpt = net.cpts[node]
            r = cpt.alpha.shape[1]
            sums = cpt.posterior.sum(axis=1)
            expected = 1.0 * r + data_counts[node].sum(axis=1)
            assert np.allclose(sums, expected)

    def test_alpha_must_be_positive(self):
        schema = make_schema([2])
        data = Dataset(schema, np.array([[0]]))
        with pytest.raises(ValueError):
            fit_conjugate(Dag(schema.names), data, alpha0=0.0)
        with pytest.raises(ValueError):
            Cpt("A", (), np.zeros((1, 2)), np.zeros((1, 2)))

    def test_export_csv(self, tmp_path):
        schema = make_schema([2, 3])
        data = Dataset(schema, np.array([[0, 1], [1, 2]]))
        net = fit_conjugate(Dag(schema.names, (("A", "B"),)), data)
        write_fitted_network(net, tmp_path / "fit.csv")
        lines = (tmp_path / "fit.csv").read_text().splitlines()
        assert lines[0] == "node,parent_config,state,alpha_posterior"
        assert len(lines) == 1 + 2 + 2 * 3

    def test_export_labels_multi_parent_configs(self, tmp_path):
        schema = make_schema([2, 2, 2])
        data = Dataset(schema, np.array([[0, 1, 1], [1, 0, 1]]))
        net = fit_conjugate(Dag(schema.names, (("A", "C"), ("B", "C"))), data)
        write_fitted_network(net, tmp_path / "fit.csv")
        rows = [ln.split(",") for ln in (tmp_path / "fit.csv").read_text().splitlines()[1:]]
        c_labels = {r[1] for r in rows if r[0] == "C"}
        assert c_labels == {"A=0|B=0", "A=0|B=1", "A=1|B=0", "A=1|B=1"}
        roots = {r[1] for r in rows if r[0] in ("A", "B")}
        assert roots == {"-"}
        # the exported posterior row for the observed config carries the count
        observed = [r for r in rows if r[0] == "C" and r[1] == "A=0|B=1"]
        assert [float(r[3]) for r in observed] == [1.0, 2.0]


class TestJointQuery:
    def test_root_marginal(self):
        schema = make_schema([3])
        data = Dataset(schema, np.array([[0], [0], [2]]))
        net = fit_conjugate(Dag(schema.names), data)
        assert np.allclose(joint_marginal(net, {}, ("A",)), [0.5, 1 / 6, 1 / 3])

    def test_full_parent_evidence_returns_cpt_row(self):
        schema = make_schema([2, 2])
        data = Dataset(schema, np.array([[0, 0], [0, 0], [0, 1], [1, 1]]))
        net = fit_conjugate(Dag(schema.names, (("A", "B"),)), data)
        expected = net.cpts["B"].posterior_mean[0]
        assert np.allclose(joint_marginal(net, {"A": 0}, ("B",)), expected)

    def test_chain_matches_hand_sum(self):
        schema = make_schema([2, 2, 2])
        rng = np.random.default_rng(0)
        data = Dataset(schema, rng.integers(0, 2, size=(40, 3)))
        net = fit_conjugate(Dag(schema.names, (("A", "B"), ("B", "C"))), data)
        pb = net.cpts["B"].posterior_mean
        pc = net.cpts["C"].posterior_mean
        hand = np.array([
            sum(pb[0, b] * pc[b, c] for b in (0, 1)) for c in (0, 1)
        ])
        assert np.allclose(joint_marginal(net, {"A": 0}, ("C",)), hand, atol=1e-12)

    def test_matches_brute_force_on_random_networks(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            net = random_network(rng)
            names = list(net.dag.nodes)
            query = names[int(rng.integers(len(names)))]
            evidence = {}
            for n in names:
                if n != query and rng.random() < 0.5:
                    evidence[n] = int(rng.integers(net.schema.cardinality(n)))
            got = joint_marginal(net, evidence, (query,))
            want = brute_force_conditional(net, evidence, query)
            assert np.allclose(got, want, atol=1e-9)
            assert got.min() >= 0
            assert got.sum() == pytest.approx(1.0, abs=1e-10)

    def test_enumeration_cap(self):
        schema = make_schema([4, 4, 4])
        data = Dataset(schema, np.zeros((1, 3), dtype=np.int64))
        net = fit_conjugate(Dag(schema.names), data)
        with pytest.raises(EnumerationTooLarge):
            joint_marginal(net, {}, ("A",), max_states=10)

    def test_observed_query_is_point_mass(self):
        schema = make_schema([2, 2])
        data = Dataset(schema, np.array([[0, 1]]))
        net = fit_conjugate(Dag(schema.names, (("A", "B"),)), data)
        assert joint_marginal(net, {"B": 1, "A": 0}, ("B",)).tolist() == [0.0, 1.0]

    def test_bad_evidence_state(self):
        schema = make_schema([2, 2])
        net = fit_conjugate(Dag(schema.names), Dataset(schema, np.array([[0, 0]])))
        with pytest.raises(ValueError):
            joint_marginal(net, {"A": 5}, ("B",))

    def test_marginal_query_order_is_respected(self):
        rng = np.random.default_rng(23)
        net = random_network(rng, max_nodes=4)
        names = list(net.dag.nodes)
        a, b = names[0], names[-1]
        ab = joint_marginal(net, {}, (a, b))
        ba = joint_marginal(net, {}, (b, a))
        assert np.allclose(ab, ba.T, atol=1e-12)
        assert ab.shape == (net.schema.cardinality(a), net.schema.cardinality(b))


def deterministic_link_network(hit=1.0):
    """B copies A with probability hit; built from sharp pseudo-counts."""
    schema = make_schema([3, 3])
    dag = Dag(schema.names, (("A", "B"),))
    big = 1e7
    cpt_a = Cpt("A", (), np.full((1, 3), 1e-6) + np.array([[1.0, 1.0, 1.0]]) * big / 3, np.zeros((1, 3)))
    table = np.full((3, 3), (1 - hit) / 2 * big)
    np.fill_diagonal(table, hit * big)
    cpt_b = Cpt("B", ("A",), table + 1e-6, np.zeros((3, 3)))
    return FittedNetwork(dag, schema, {"A": cpt_a, "B": cpt_b})


def connected(dag, node):
    """The nodes of node's component of the skeleton of dag."""
    reach, todo = {node}, [node]
    while todo:
        u = todo.pop()
        for v in dag.parents(u) + dag.children(u):
            if v not in reach:
                reach.add(v)
                todo.append(v)
    return reach


class TestSensitivity:
    def test_disconnected_components_zero(self):
        schema = make_schema([2, 2])
        rng = np.random.default_rng(1)
        data = Dataset(schema, rng.integers(0, 2, size=(30, 2)))
        net = fit_conjugate(Dag(schema.names), data)  # no edges at all
        assert sensitivity(net, "A", "B") == pytest.approx(0.0, abs=1e-10)

    def test_bijective_link_gives_target_entropy(self):
        net = deterministic_link_network(hit=1.0)
        ht = entropy(joint_marginal(net, {}, ("A",)))
        assert sensitivity(net, "A", "B") == pytest.approx(ht, abs=1e-4)

    def test_matches_enumerated_joint_oracle(self):
        rng = np.random.default_rng(9)
        seen = {"target with parents": 0, "other component": 0}
        for _ in range(10):
            net = random_network(rng, max_nodes=4)
            names = list(net.dag.nodes)
            t, v = names[0], names[1]
            got = sensitivity(net, t, v)
            # oracle: entropies straight off a brute-force walk of the joint
            joint = np.zeros((net.schema.cardinality(t), net.schema.cardinality(v)))
            cards = {n: net.schema.cardinality(n) for n in names}
            means = {n: net.cpts[n].posterior_mean for n in names}
            for combo in itertools.product(*(range(cards[n]) for n in names)):
                state = dict(zip(names, combo))
                mass = 1.0
                for node in names:
                    cpt = net.cpts[node]
                    row = 0
                    for p in cpt.parent_order:
                        row = row * cards[p] + state[p]
                    mass *= means[node][row, state[node]]
                joint[state[t], state[v]] += mass
            joint /= joint.sum()
            want = entropy(joint.sum(axis=1)) + entropy(joint.sum(axis=0)) - entropy(joint)
            assert got == pytest.approx(want, abs=1e-9)
            assert got >= -1e-10
            assert got <= min(entropy(joint.sum(axis=1)), entropy(joint.sum(axis=0))) + 1e-9
            # the score is exactly the network-implied mutual information
            assert got == pytest.approx(mutual_information(joint * 1e6), abs=1e-6)
            # every predictor of one report, for every target: targets with
            # parents, and predictors in other components than the target's
            full = full_joint(net)
            full /= full.sum()
            for t in names:
                report = dict(sensitivity_report(net, t))
                assert sorted(report) == sorted(set(names) - {t})
                seen["target with parents"] += bool(net.dag.parents(t))
                for v in report:
                    it, iv = names.index(t), names.index(v)
                    pair = full.sum(axis=tuple(i for i in range(len(names)) if i not in (it, iv)))
                    want = pair if it < iv else pair.T
                    assert report[v] == pytest.approx(mutual_information(want), abs=1e-9)
                    seen["other component"] += v not in connected(net.dag, t)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("block_cells", [bayesnet._BLOCK_CELLS, 1])
    def test_pair_marginals_equal_the_per_pair_queries(self, monkeypatch, block_cells):
        # with one cell a block, each target state is calibrated on its own
        monkeypatch.setattr(bayesnet, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(12)
        for _ in range(10):
            net = random_network(rng)
            for t in net.dag.nodes:
                pairs = target_pair_marginals(net, t)
                assert list(pairs) == [v for v in net.dag.nodes if v != t]
                for v, joint in pairs.items():
                    assert np.allclose(joint, joint_marginal(net, {}, (t, v)), rtol=0, atol=1e-15)

    def test_one_report_plans_one_elimination(self, monkeypatch):
        calls = []
        plan = bayesnet._elimination_steps

        def counted(*args, **kwargs):
            calls.append(args)
            return plan(*args, **kwargs)

        monkeypatch.setattr(bayesnet, "_elimination_steps", counted)
        rng = np.random.default_rng(11)
        cards = [int(rng.integers(2, 4)) for _ in range(10)]
        schema = make_schema(cards)
        names = schema.names
        dag = Dag(names, tuple((names[i], names[j]) for j in range(1, 10) for i in range(j) if rng.random() < 0.3))
        data = Dataset(schema, np.column_stack([rng.integers(0, r, size=50) for r in cards]))
        report = sensitivity_report(fit_conjugate(dag, data), names[3])
        assert len(report) == 9
        assert len(calls) == 1

    def test_report_sorted_and_complete(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, max_nodes=5)
        target = net.dag.nodes[0]
        report = sensitivity_report(net, target)
        assert len(report) == len(net.dag.nodes) - 1
        scores = [s for _, s in report]
        assert scores == sorted(scores, reverse=True)
        per_pair = {v: sensitivity(net, target, v) for v, _ in report}
        for v, s in report:
            assert s == pytest.approx(per_pair[v], abs=1e-9)

    def test_identical_rows_score_zero(self):
        # every feature row identical: features carry nothing about the target
        schema = make_schema([2, 2])
        dag = Dag(schema.names, (("A", "B"),))
        cpt_a = Cpt("A", (), np.array([[2.0, 3.0]]), np.zeros((1, 2)))
        cpt_b = Cpt("B", ("A",), np.array([[5.0, 1.0], [5.0, 1.0]]), np.zeros((2, 2)))
        net = FittedNetwork(dag, schema, {"A": cpt_a, "B": cpt_b})
        report = sensitivity_report(net, "A")
        assert report[0][1] == pytest.approx(0.0, abs=1e-12)


DATA = Path(__file__).resolve().parents[1] / "data"


def full_joint(network):
    """Oracle: the whole joint at posterior-mean parameters, one axis per node."""
    schema = network.schema
    names = list(network.dag.nodes)
    joint = np.zeros(tuple(schema.cardinality(n) for n in names))
    for combo in itertools.product(*(range(schema.cardinality(n)) for n in names)):
        state = dict(zip(names, combo))
        mass = 1.0
        for node in names:
            cpt = network.cpts[node]
            row = 0
            for p in cpt.parent_order:
                row = row * schema.cardinality(p) + state[p]
            mass *= cpt.posterior_mean[row, state[node]]
        joint[combo] = mass
    return joint


class TestEliminate:
    def test_batched_records_with_missing_values_match_brute_force(self):
        rng = np.random.default_rng(51)
        for _ in range(15):
            net = random_network(rng)
            names = list(net.schema.names)
            query = names[int(rng.integers(len(names)))]
            records = np.column_stack(
                [rng.integers(0, net.schema.cardinality(n), size=12) for n in names]
            )
            records[rng.random(records.shape) < 0.4] = -1
            mean = {n: net.cpts[n].posterior_mean[None] for n in names}
            mass = eliminate(net, mean, records, (query,))
            got = mass / mass.sum(axis=1, keepdims=True)
            for row, probs in zip(records, got):
                evidence = {n: int(s) for n, s in zip(names, row) if s >= 0 and n != query}
                assert np.allclose(probs, brute_force_conditional(net, evidence, query), atol=1e-9)

    def test_array_evidence_adds_a_record_axis(self):
        rng = np.random.default_rng(52)
        net = random_network(rng, max_nodes=4)
        query, *observed = net.dag.nodes
        states = {n: rng.integers(0, net.schema.cardinality(n), size=7) for n in observed}
        got = joint_marginal(net, states, (query,))
        assert got.shape == (7, net.schema.cardinality(query))
        for i in range(7):
            single = joint_marginal(net, {n: int(a[i]) for n, a in states.items()}, (query,))
            assert np.allclose(got[i], single, atol=1e-12)
        # an observed query variable is a point mass on each record's state
        point = joint_marginal(net, states, (observed[0],))
        assert np.array_equal(point.argmax(axis=1), states[observed[0]])
        assert np.all(point.max(axis=1) == 1.0)

    def test_pair_marginals_match_full_enumeration(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            net = random_network(rng)
            names = list(net.dag.nodes)
            joint = full_joint(net)
            joint /= joint.sum()
            for a, b in itertools.permutations(names, 2):
                ia, ib = names.index(a), names.index(b)
                pair = joint.sum(axis=tuple(i for i in range(len(names)) if i not in (ia, ib)))
                want = pair if ia < ib else pair.T
                assert np.allclose(joint_marginal(net, {}, (a, b)), want, atol=1e-9)


def unique_groups(observed):
    """Reference: the groups np.unique(axis=0) finds, in its order."""
    patterns, inverse = np.unique(observed, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    return [(pattern, np.flatnonzero(inverse == g)) for g, pattern in enumerate(patterns)]


class TestMissingGroups:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        st.integers(0, 2000), st.integers(1, 130), st.integers(1, 40),
        st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
    )
    def test_matches_np_unique(self, rows, cols, distinct, density, seed):
        # rows drawn from a pool of patterns, so that groups hold several rows
        rng = np.random.default_rng(seed)
        pool = rng.random((distinct, cols)) < density
        observed = pool[rng.integers(0, distinct, rows)]
        got = missing_groups(observed)
        want = unique_groups(observed)
        assert len(got) == len(want)
        for (pattern, members), (want_pattern, want_members) in zip(got, want):
            assert pattern.dtype == bool and np.array_equal(pattern, want_pattern)
            assert np.array_equal(members, want_members)


class TestEliminateSets:
    @pytest.mark.parametrize("block_cells", [bayesnet._BLOCK_CELLS, 1])
    def test_matches_one_call_per_set(self, monkeypatch, block_cells):
        monkeypatch.setattr(bayesnet, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(54)
        for _ in range(12):
            net = random_network(rng)
            names = list(net.schema.names)
            query = (names[int(rng.integers(len(names)))],)
            n_sets = int(rng.integers(1, 5))
            stacks = {  # (sets, configs, states)
                n: np.stack([rng.dirichlet(row, size=n_sets) for row in net.cpts[n].posterior], axis=1)
                for n in names
            }
            records = np.column_stack(
                [rng.integers(0, net.schema.cardinality(n), size=30) for n in names]
            )
            records[rng.random(records.shape) < 0.4] = -1
            sets = rng.integers(0, n_sets, size=30)
            got = eliminate(net, stacks, records, query, sets=sets)
            for s in range(n_sets):
                own = eliminate(net, {n: stack[s : s + 1] for n, stack in stacks.items()}, records[sets == s], query)
                assert np.array_equal(got[sets == s], own)

    def test_posterior_marginal_scores_each_record_under_its_network(self):
        rng = np.random.default_rng(55)
        net = random_network(rng)
        data = Dataset(net.schema, np.column_stack(
            [rng.integers(0, net.schema.cardinality(n), 60) for n in net.schema.names]
        ))
        whole = fit_conjugate(net.dag, data)
        folds = np.repeat([0, 1, 2], 20)
        counts = subtract_counts(whole, data, folds)
        query = (net.schema.target,)
        got = posterior_marginal(whole, data.records, query, counts=counts, sets=folds)
        for f in range(3):
            refit = fit_conjugate(net.dag, data.subset(np.flatnonzero(folds != f)))
            assert np.array_equal(got[folds == f], posterior_marginal(refit, data.records[folds == f], query))
        with pytest.raises(ValueError, match="together"):
            posterior_marginal(whole, data.records, query, counts=counts)
        with pytest.raises(ValueError, match="sets"):
            posterior_marginal(whole, data.records, query, counts=counts, sets=folds + 1)
        with pytest.raises(ValueError, match="tables"):
            posterior_marginal(whole, data.records, query, counts={n: c[:, :1] for n, c in counts.items()}, sets=folds)


class TestSensitivityRanking:
    def test_demo_alt_scores_non_negative_and_ties_in_label_order(self):
        data = ingest_csv(DATA / "synthetic.csv", read_schema(DATA / "synthetic.schema"))
        net = fit_conjugate(read_structure(DATA / "alt.structure"), data)
        report = sensitivity_report(net, "EVAL")
        assert all(score >= 0.0 for _, score in report)
        # F1 roots its own component (F1 -> F4, F5; F4 -> F8), so all four
        # are independent of EVAL and tie at exactly zero, in label order
        assert report[-4:] == [("F1", 0.0), ("F4", 0.0), ("F5", 0.0), ("F8", 0.0)]
        assert all(score > 0.0 for _, score in report[:-4])


class TestMinFillOrder:
    def test_star_leaves_go_before_an_unqueried_centre(self):
        # every leaf adds no fill edge, the centre would add one per pair of
        # leaves; leaves tie on fill and go by step size, then label
        scopes = [("C",), ("C", "L1"), ("C", "L2"), ("C", "L3"), ("C", "L4")]
        card = {"C": 3, "L1": 2, "L2": 5, "L3": 4, "L4": 2}
        assert min_fill_order(scopes, card, keep=("L2",)) == ["L1", "L4", "L3", "C"]
        # with no leaf kept, the last leaf and the centre form one edge and
        # tie on fill and size, so the label decides
        assert min_fill_order(scopes, card, keep=()) == ["L1", "L4", "L3", "C", "L2"]

    def test_chain_is_eliminated_without_fill(self):
        names = [f"V{i}" for i in range(6)]
        scopes = [(names[0],)] + list(zip(names, names[1:]))
        order = min_fill_order(scopes, dict.fromkeys(names, 5), keep=("V0",))
        assert sorted(order) == names[1:]
        # each pick is an end of what is left of the chain, so no step holds
        # more than two variables
        left = set(names)
        for v in order:
            left.discard(v)
            i = names.index(v)
            assert len(left & set(names[max(i - 1, 0) : i + 2])) <= 1


def five_state_chain(n_vars, n_records, seed):
    """Data sampled from V00 -> V01 -> ... with a noisy copy at each link."""
    names = [f"V{i:02d}" for i in range(n_vars)]
    schema = Schema(tuple(
        VariableSpec(n, tuple("12345"), "target" if i == 0 else "predictor") for i, n in enumerate(names)
    ))
    dag = Dag(schema.names, tuple(zip(names, names[1:])))
    tables = {n: np.full((5, 5), 0.05) + np.eye(5) * 0.75 for n in names[1:]}
    tables[names[0]] = np.full((1, 5), 0.2)
    return dag, sample_dataset(dag, schema, tables, n_records, seed=seed)


class TestWideNetworks:
    def test_sixty_variable_chain_sensitivity_matches_the_two_node_network(self):
        dag, data = five_state_chain(60, 500, seed=17)
        report = dict(sensitivity_report(fit_conjugate(dag, data), "V00"))
        assert len(report) == 59
        # the CPTs below V01 sum out to 1, so the pair marginal of (V00, V01)
        # is that of the network over those two columns alone
        pair = data.schema.restrict(["V00", "V01"])
        two = fit_conjugate(Dag(pair.names, (("V00", "V01"),)), Dataset(pair, data.records[:, :2]))
        assert report["V01"] == pytest.approx(sensitivity(two, "V00", "V01"), abs=1e-12)
