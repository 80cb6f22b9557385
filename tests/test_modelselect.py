import math

import numpy as np
import pytest

from bnpipeline import modelselect
from bnpipeline.bayesnet import Dag
from bnpipeline.dataset import Dataset, Schema, VariableSpec
from bnpipeline.modelselect import (
    build_ranking,
    local_log_marginal_likelihood,
    log_bayes_factor,
    log_marginal_likelihood,
    write_bf_table,
)
from bnpipeline.structlearn import CandidateModel, naive


def make_schema(cards, names=None, target_index=0):
    names = names or [chr(ord("A") + i) for i in range(len(cards))]
    specs = [
        VariableSpec(n, tuple(str(s) for s in range(r)), "target" if i == target_index else "predictor")
        for i, (n, r) in enumerate(zip(names, cards))
    ]
    return Schema(tuple(specs))


def monte_carlo_log_ml(dag, data, draws=100_000, seed=0):
    """Prior-average likelihood estimate with a crude standard error.

    Averages exp(log-likelihood) over parameters sampled from the prior and
    returns (estimate, standard error) on a stabilized scale along with the
    shift used, so callers can compare against exp(closed_form - shift).
    """
    rng = np.random.default_rng(seed)
    loglik = np.zeros(draws)
    schema = data.schema
    for node in dag.nodes:
        r = schema.cardinality(node)
        parents = dag.parents(node)
        q = 1
        for p in parents:
            q *= schema.cardinality(p)
        counts = np.zeros((q, r))
        cfg = np.zeros(data.n_records, dtype=np.int64)
        for p in sorted(parents, key=schema.index):
            cfg = cfg * schema.cardinality(p) + data.column(p)
        np.add.at(counts, (cfg, data.column(node)), 1)
        for j in range(q):
            theta = rng.dirichlet(np.ones(r), size=draws)
            loglik += counts[j] @ np.log(theta).T
    shift = loglik.max()
    w = np.exp(loglik - shift)
    return float(w.mean()), float(w.std(ddof=1) / math.sqrt(draws)), float(shift)


class TestLogMarginalLikelihood:
    def test_empty_dataset_scores_zero(self):
        schema = make_schema([2, 3])
        data = Dataset(schema, np.empty((0, 2), dtype=np.int64))
        assert log_marginal_likelihood(Dag(schema.names, (("A", "B"),)), data) == 0.0

    def test_single_binary_node_beta_integral(self):
        # two zeros and a one under a flat prior integrate to 1/12
        schema = make_schema([2])
        data = Dataset(schema, np.array([[0], [0], [1]]))
        assert log_marginal_likelihood(Dag(("A",)), data) == pytest.approx(
            math.log(1 / 12), abs=1e-9
        )

    def test_decomposes_over_independent_nodes(self):
        schema = make_schema([3, 3])
        rng = np.random.default_rng(1)
        col = rng.integers(0, 3, size=40)
        data = Dataset(schema, np.column_stack([col, col]))
        dag = Dag(schema.names)
        total = log_marginal_likelihood(dag, data)
        per_node = [
            local_log_marginal_likelihood(data, n, ()) for n in schema.names
        ]
        assert total == pytest.approx(sum(per_node), abs=1e-12)
        assert per_node[0] == pytest.approx(per_node[1], abs=1e-12)

    def test_matches_monte_carlo_prior_average(self):
        rng = np.random.default_rng(5)
        for trial in range(4):
            m = int(rng.integers(1, 3))
            cards = [int(rng.integers(2, 4)) for _ in range(m)]
            schema = make_schema(cards)
            n = int(rng.integers(5, 20))
            data = Dataset(schema, np.column_stack([rng.integers(0, r, n) for r in cards]))
            edges = (("A", "B"),) if (m == 2 and rng.random() < 0.7) else ()
            dag = Dag(schema.names, edges)
            closed = log_marginal_likelihood(dag, data)
            est, se, shift = monte_carlo_log_ml(dag, data, draws=100_000, seed=trial)
            assert abs(est - math.exp(closed - shift)) <= 3 * se

    def test_bdeu_mode(self):
        schema = make_schema([2])
        data = Dataset(schema, np.array([[0], [0], [1]]))
        dag = Dag(("A",))
        # ess equal to the cell count reproduces the flat-prior score
        assert log_marginal_likelihood(dag, data, bdeu_ess=2.0) == pytest.approx(
            log_marginal_likelihood(dag, data, alpha0=1.0), abs=1e-12
        )
        assert log_marginal_likelihood(dag, data, bdeu_ess=1.0) != pytest.approx(
            log_marginal_likelihood(dag, data, alpha0=1.0), abs=1e-6
        )
        with pytest.raises(ValueError):
            log_marginal_likelihood(dag, data, bdeu_ess=-1.0)


def three_candidates(seed=2):
    schema = make_schema([2, 2, 2])
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2, size=(120, 1))
    noisy = (base.ravel() ^ (rng.random(120) < 0.15)).astype(np.int64)
    other = rng.integers(0, 2, size=120)
    data = Dataset(schema, np.column_stack([base.ravel(), noisy, other]))
    models = [
        CandidateModel("chain", Dag(schema.names, (("A", "B"), ("B", "C")))),
        CandidateModel("pair", Dag(schema.names, (("A", "B"),))),
        naive(data, "A"),
    ]
    return models, data


class TestBayesFactor:
    def test_self_comparison_zero(self):
        models, data = three_candidates()
        assert log_bayes_factor(models[0].dag, models[0].dag, data) == 0.0

    def test_antisymmetry(self):
        models, data = three_candidates()
        ab = log_bayes_factor(models[0].dag, models[1].dag, data)
        ba = log_bayes_factor(models[1].dag, models[0].dag, data)
        assert ab == pytest.approx(-ba, abs=1e-12)

    def test_telescoping_additivity(self):
        models, data = three_candidates()
        ac = log_bayes_factor(models[0].dag, models[2].dag, data)
        ab = log_bayes_factor(models[0].dag, models[1].dag, data)
        bc = log_bayes_factor(models[1].dag, models[2].dag, data)
        assert ac == pytest.approx(ab + bc, abs=1e-9)

    def test_variable_mismatch(self):
        models, data = three_candidates()
        other = Dag(("A", "B"))
        with pytest.raises(ValueError):
            log_bayes_factor(models[0].dag, other, data)


class TestRanking:
    def test_chain_follows_sorted_order(self):
        models, data = three_candidates()
        ranking = build_ranking(models, data)
        labels = [label for label, _ in ranking.entries]
        scores = [s for _, s in ranking.entries]
        assert scores == sorted(scores, reverse=True)
        assert len(ranking.chain) == len(models) - 1
        for i, (better, worse, bf) in enumerate(ranking.chain):
            assert better == labels[i]
            assert worse == labels[i + 1]
            assert bf >= 0
        # the second column of each row is the first column of the next row
        for row, nxt in zip(ranking.chain, ranking.chain[1:]):
            assert row[1] == nxt[0]

    @pytest.mark.parametrize("prior", [{"alpha0": 1.0}, {"bdeu_ess": 4.0}])
    def test_shared_families_are_scored_once(self, monkeypatch, prior):
        models, data = three_candidates()
        alone = {m.label: log_marginal_likelihood(m.dag, data, **prior) for m in models}
        counted = []
        family_counts = modelselect.family_counts

        def counting(d, node, parents):
            counted.append((node, parents))
            return family_counts(d, node, parents)

        monkeypatch.setattr(modelselect, "family_counts", counting)
        ranking = build_ranking(models, data, **prior)
        families = {(node, m.dag.parents(node)) for m in models for node in m.dag.nodes}
        assert sorted(counted) == sorted(families) and len(families) < 9
        assert dict(ranking.entries) == alone  # the same floats, bit for bit

    def test_chain_telescopes_to_extreme_bayes_factor(self):
        models, data = three_candidates()
        ranking = build_ranking(models, data)
        total = sum(bf for _, _, bf in ranking.chain)
        best = dict(ranking.entries)[ranking.entries[0][0]]
        worst = dict(ranking.entries)[ranking.entries[-1][0]]
        assert total == pytest.approx(best - worst, abs=1e-9)

    def test_pairwise_count_and_orientation(self):
        models, data = three_candidates()
        ranking = build_ranking(models, data)
        k = len(models)
        assert len(ranking.pairwise) == k * (k - 1) // 2
        for _, _, bf in ranking.pairwise:
            assert bf >= 0

    def test_flags_models_below_naive(self):
        schema = make_schema([2, 2, 2])
        rng = np.random.default_rng(9)
        base = rng.integers(0, 2, size=60)
        data = Dataset(
            schema,
            np.column_stack([
                base,
                (base ^ (rng.random(60) < 0.1)).astype(np.int64),
                (base ^ (rng.random(60) < 0.1)).astype(np.int64),
            ]),
        )
        bench = naive(data, "A")
        # ignoring two strong dependencies has to cost evidence
        nolinks = CandidateModel("nolinks", Dag(schema.names))
        ranking = build_ranking([bench, nolinks], data)
        assert ranking.below_naive == ("nolinks",)
        assert ranking.entries[0][0] == "naive"
        # identical structure under two labels gives a zero-factor pair
        twin = CandidateModel("twin", bench.dag)
        ranking2 = build_ranking([bench, twin], data)
        assert ranking2.pairwise[0][2] == pytest.approx(0.0, abs=1e-12)
        assert ranking2.below_naive == ()

    def test_duplicate_labels_rejected(self):
        models, data = three_candidates()
        with pytest.raises(ValueError):
            build_ranking([models[0], models[0]], data)

    def test_csv_export(self, tmp_path):
        models, data = three_candidates()
        ranking = build_ranking(models, data)
        write_bf_table(ranking.pairwise, tmp_path / "bf.csv")
        lines = (tmp_path / "bf.csv").read_text().splitlines()
        assert lines[0] == "model_1,model_2,log_bf"
        assert len(lines) == 1 + len(ranking.pairwise)
