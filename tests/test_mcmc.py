import csv
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bnpipeline import bayesnet
from bnpipeline.bayesnet import Cpt, Dag, FittedNetwork, fit_conjugate
from bnpipeline.bayesnet import eliminate, posterior_marginal
from bnpipeline.dataset import Dataset, Schema, VariableSpec
from bnpipeline.mcmc import (
    ConstantChain,
    McmcConfig,
    export_traces,
    gelman_rubin,
    posterior_predict,
    sample_parameters,
    summarize_distribution,
    write_predictions,
)
from bnpipeline.mcmc import _draw_chain
from bnpipeline.simulate import sample_dataset
from test_bayesnet import random_network


def make_schema(cards, names=None, target_index=0):
    names = names or [chr(ord("A") + i) for i in range(len(cards))]
    specs = [
        VariableSpec(n, tuple(str(s) for s in range(r)), "target" if i == target_index else "predictor")
        for i, (n, r) in enumerate(zip(names, cards))
    ]
    return Schema(tuple(specs))


def single_node_network(posterior_row):
    row = np.asarray(posterior_row, dtype=float)[None, :]
    schema = make_schema([row.shape[1]])
    dag = Dag(schema.names)
    cpt = Cpt("A", (), row, np.zeros_like(row))
    return FittedNetwork(dag, schema, {"A": cpt})


def toy_chain_network(seed=0, n=300):
    schema = make_schema([3, 3, 3])
    dag = Dag(schema.names, (("A", "B"), ("B", "C")))
    rng = np.random.default_rng(seed)
    tables = {
        "A": rng.dirichlet([4, 4, 4], size=1),
        "B": rng.dirichlet([2, 2, 2], size=3),
        "C": rng.dirichlet([2, 2, 2], size=3),
    }
    data = sample_dataset(dag, schema, tables, n, seed=seed + 1)
    return fit_conjugate(dag, data)


def tv_distance(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(seed=1, chains=0)
        with pytest.raises(ValueError):
            McmcConfig(seed=1, sample_iters=0)
        with pytest.raises(ValueError):
            McmcConfig(seed=1, thin=0)
        with pytest.raises(ValueError):
            McmcConfig(seed=1, burnin_iters=-1)

    def test_kept_per_chain(self):
        assert McmcConfig(seed=1, sample_iters=10).kept_per_chain == 10
        assert McmcConfig(seed=1, sample_iters=10, thin=3).kept_per_chain == 4


class TestSampleParameters:
    def test_prior_sampling_mean(self):
        net = single_node_network([1.0, 1.0, 1.0])
        cfg = McmcConfig(seed=5, chains=2, adapt_iters=0, burnin_iters=0, sample_iters=4000)
        draws = sample_parameters(net, cfg)["A"][0].reshape(3, -1).T
        se = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - 1 / 3) <= 3 * se + 1e-3)

    def test_posterior_mean_two_one(self):
        net = single_node_network([3.0, 2.0])  # counts (2,1) plus flat prior
        cfg = McmcConfig(seed=6, chains=3, adapt_iters=100, burnin_iters=100, sample_iters=4000)
        draws = sample_parameters(net, cfg)["A"][0, 0].ravel()
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.6) <= 3 * se + 1e-3

    def test_same_seed_identical(self):
        net = toy_chain_network()
        cfg = McmcConfig(seed=7, chains=2, adapt_iters=10, burnin_iters=10, sample_iters=50)
        a = sample_parameters(net, cfg)
        b = sample_parameters(net, cfg)
        assert list(a) == list(b) == ["A", "B", "C"]
        for node in a:
            assert np.array_equal(a[node], b[node])

    def test_rows_stay_on_simplex(self):
        net = toy_chain_network()
        cfg = McmcConfig(seed=8, chains=2, adapt_iters=0, burnin_iters=0, sample_iters=200)
        for arr in sample_parameters(net, cfg).values():
            assert np.all(arr >= 0)
            assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-9)

    def test_thinning_and_monitor_subset(self):
        net = toy_chain_network()
        cfg = McmcConfig(seed=9, chains=2, adapt_iters=0, burnin_iters=0, sample_iters=100, thin=4)
        draws = sample_parameters(net, cfg, nodes=["B"])
        assert list(draws) == ["B"]
        assert draws["B"].shape == (3, 3, 2, 25)  # (configs, states, chains, kept)

    def test_unknown_node(self):
        net = toy_chain_network()
        with pytest.raises(ValueError):
            sample_parameters(net, McmcConfig(seed=1), nodes=["Z"])

    @pytest.mark.parametrize("schedule, same_as", [
        ({"adapt_iters": 500, "burnin_iters": 500, "sample_iters": 25}, {"sample_iters": 25}),
        ({"sample_iters": 100, "thin": 4}, {"sample_iters": 25}),
    ])
    def test_draws_depend_only_on_the_kept_count(self, schedule, same_as):
        # exact draws need no warm-up or thinning: only the kept rows are drawn
        net = toy_chain_network()
        base = {"seed": 12, "chains": 2, "adapt_iters": 0, "burnin_iters": 0}
        a = sample_parameters(net, McmcConfig(**{**base, **schedule}))
        b = sample_parameters(net, McmcConfig(**{**base, **same_as}))
        for node in a:
            assert a[node].shape[2:] == (2, 25)
            assert np.array_equal(a[node], b[node])


class TestSummaries:
    def test_percent_row_summary(self):
        percents = [0.03, 0.01, 0.15, 0.99, 23.94, 70.8, 3.82, 0.1, 0.07, 0.1]
        probs = np.array(percents) / 100.0
        mean, mode = summarize_distribution(probs, [float(v) for v in range(1, 11)])
        assert round(mean, 4) == 5.7813
        assert mode == 5  # state labelled "6"

    def test_tie_breaks_to_lowest_state(self):
        _, mode = summarize_distribution([0.4, 0.4, 0.2], [1.0, 2.0, 3.0])
        assert mode == 0


class TestPosteriorPredict:
    def test_single_node_exact_is_posterior_mean(self):
        net = single_node_network([3.0, 2.0])
        (pred,) = posterior_predict(net, [{}], mode="exact")
        assert np.allclose(pred.probs, [0.6, 0.4])
        assert pred.predicted == 0
        assert pred.mean == pytest.approx(0.6 * 0 + 0.4 * 1)

    def test_single_node_mcmc_close_to_conjugate(self):
        net = single_node_network([3.0, 2.0])
        cfg = McmcConfig(seed=3, chains=2, adapt_iters=0, burnin_iters=0, sample_iters=5000)
        (pred,) = posterior_predict(net, [{}], config=cfg, mode="mcmc")
        assert tv_distance(pred.probs, [0.6, 0.4]) < 0.02

    def test_mcmc_matches_exact_on_toy_chain(self):
        net = toy_chain_network(seed=4)
        cfg = McmcConfig(seed=11, chains=2, adapt_iters=0, burnin_iters=0, sample_iters=10000)
        records = [{"B": 1, "C": 2}, {"B": 0, "C": 0}, {"C": 1}]
        exact = posterior_predict(net, records, mode="exact")
        sampled = posterior_predict(net, records, config=cfg, mode="mcmc")
        for e, s in zip(exact, sampled):
            assert tv_distance(e.probs, s.probs) < 0.02

    def test_convergence_toward_exact_with_more_draws(self):
        # the Monte-Carlo average over parameter draws closes in on the closed form
        net = toy_chain_network(seed=12, n=60)
        records = np.array([[-1, 2, 0]])
        exact = posterior_marginal(net, records, (net.schema.target,))
        improved = 0
        for rep in range(20):
            small = McmcConfig(seed=100 + rep, chains=1, sample_iters=2000)
            big = McmcConfig(seed=100 + rep, chains=1, sample_iters=200_000)
            if tv_distance(draw_average(net, records, "A", big), exact) < tv_distance(
                draw_average(net, records, "A", small), exact
            ):
                improved += 1
        assert improved >= 18

    def test_unobserved_states_keep_mass(self):
        # target declared on ten states but observed only on the first eight
        schema = Schema((
            VariableSpec("T", tuple(str(i) for i in range(1, 11)), "target"),
            VariableSpec("F", ("0", "1")),
        ))
        rng = np.random.default_rng(13)
        records = np.column_stack([rng.integers(0, 8, 200), rng.integers(0, 2, 200)])
        data = Dataset(schema, records)
        net = fit_conjugate(Dag(schema.names, (("T", "F"),)), data)
        for mode, cfg in (
            ("exact", None),
            ("mcmc", McmcConfig(seed=1, chains=2, adapt_iters=0, burnin_iters=0, sample_iters=2000)),
        ):
            (pred,) = posterior_predict(net, [{"F": 1}], config=cfg, mode=mode)
            assert np.all(pred.probs > 0)
            assert pred.probs.size == 10

    def test_determinism(self):
        net = toy_chain_network(seed=15)
        cfg = McmcConfig(seed=21, chains=2, adapt_iters=5, burnin_iters=5, sample_iters=500)
        a = posterior_predict(net, [{"B": 1}], config=cfg, mode="mcmc")
        b = posterior_predict(net, [{"B": 1}], config=cfg, mode="mcmc")
        assert np.array_equal(a[0].probs, b[0].probs)

    def test_modes_give_the_closed_form(self):
        net = toy_chain_network(seed=18)
        records = [{"B": 1, "C": 2}, {"C": 0}, {}]
        cfg = McmcConfig(seed=22, chains=2, sample_iters=100)
        exact = posterior_predict(net, records, mode="exact")
        for config in (cfg, None):
            for e, m in zip(exact, posterior_predict(net, records, config=config, mode="mcmc")):
                assert np.array_equal(e.probs, m.probs)

    def test_true_states_attached(self):
        net = toy_chain_network(seed=16)
        preds = posterior_predict(net, [{"B": 0, "C": 0}], mode="exact", true_states=[2])
        assert preds[0].true_state == 2

    def test_errors(self):
        net = toy_chain_network(seed=17)
        with pytest.raises(ValueError):
            posterior_predict(net, [{"A": 0, "B": 0}], mode="exact")  # target as evidence
        with pytest.raises(ValueError):
            posterior_predict(net, [{"Z": 0}], mode="exact")
        with pytest.raises(ValueError):
            posterior_predict(net, [{"B": 9}], mode="exact")
        with pytest.raises(ValueError):
            posterior_predict(net, [{"B": 0}], mode="typo")

    def test_predictions_csv(self, tmp_path):
        spec = VariableSpec("T", tuple(str(i) for i in range(1, 4)), "target")
        probs = np.array([[0.2, 0.5, 0.3], [0.7, 0.2, 0.1]])
        write_predictions(probs, np.array([2, 1]), spec, tmp_path / "p.csv")
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines[0] == "state_1,state_2,state_3,mean,predicted,true"
        assert lines[1] == "20.00,50.00,30.00,2.1000,2,3"
        assert lines[2] == "70.00,20.00,10.00,1.4000,1,2"


class TestGelmanRubin:
    def test_same_distribution_chains_near_one(self):
        net = toy_chain_network(seed=18)
        cfg = McmcConfig(seed=30, chains=3, adapt_iters=0, burnin_iters=0, sample_iters=2000)
        rhat = gelman_rubin(sample_parameters(net, cfg))
        assert max(rhat.values()) < 1.05

    def test_disjoint_chains_blow_up(self):
        rng = np.random.default_rng(0)
        low = 0.1 + 0.001 * rng.standard_normal(500)
        high = 0.9 + 0.001 * rng.standard_normal(500)
        rhat = gelman_rubin({"A": np.stack([low, high]).reshape(1, 1, 2, 500)})
        assert rhat["A_0"] > 1.1

    def test_constant_chains_error(self):
        flat = np.full((1, 1, 2, 100), 0.5)
        with pytest.raises(ConstantChain):
            gelman_rubin({"A": flat})

    def test_preconditions(self):
        with pytest.raises(ValueError, match="no monitored parameters"):
            gelman_rubin({})
        one_chain = np.random.default_rng(1).random((1, 1, 1, 100))
        with pytest.raises(ValueError, match="need at least 2 chains"):
            gelman_rubin({"A": one_chain})
        short = np.random.default_rng(2).random((1, 1, 1, 5))
        with pytest.raises(ValueError, match="need at least 10 samples per chain"):
            gelman_rubin({"A": np.concatenate([short, short], axis=2)})


def posteriors_of(network, draws):
    return {n: network.cpts[n].posterior for n in draws}


def read_density(path):
    """(grid, density) columns of a density CSV, after checking its header."""
    lines = path.read_text().splitlines()
    assert lines[0] == "value,density"
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).T


def trapezoid_area(xs, ys):
    # the trapezoid rule by hand: np.trapezoid needs numpy 2
    return float(np.sum((ys[1:] + ys[:-1]) * np.diff(xs)) / 2)


class TestExportTraces:
    def test_files_and_row_counts(self, tmp_path):
        net = single_node_network([2.0, 3.0, 4.0])
        cfg = McmcConfig(seed=40, chains=3, adapt_iters=0, burnin_iters=0, sample_iters=1000)
        draws = sample_parameters(net, cfg)
        export_traces(draws, posteriors_of(net, draws), tmp_path)
        for k in range(3):
            trace = tmp_path / f"trace_A_{k}.csv"
            assert trace.is_file()
            lines = trace.read_text().splitlines()
            assert lines[0] == "chain,iteration,value"
            assert len(lines) == 1 + 3 * 1000
            assert read_density(tmp_path / f"density_A_{k}.csv").shape == (2, 256)
        # same run, same files
        again = tmp_path / "again"
        export_traces(draws, posteriors_of(net, draws), again)
        assert (again / "trace_A_1.csv").read_bytes() == (tmp_path / "trace_A_1.csv").read_bytes()

    def test_density_integrates_to_one(self, tmp_path):
        net = single_node_network([5.0, 5.0])
        cfg = McmcConfig(seed=41, chains=2, adapt_iters=0, burnin_iters=0, sample_iters=800)
        draws = sample_parameters(net, cfg)
        export_traces(draws, posteriors_of(net, draws), tmp_path)
        xs, ys = read_density(tmp_path / "density_A_0.csv")
        # one curve over the pooled draws of both chains
        assert xs[0] == draws["A"][0, 0].min() and xs[-1] == draws["A"][0, 0].max()
        assert trapezoid_area(xs, ys) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("row", [[2.5, 3.0, 1.5], [0.7, 0.4], [1.0, 6.0, 0.2, 3.3]])
    def test_density_is_the_beta_pdf_point_by_point(self, tmp_path, row):
        net = single_node_network(row)
        draws = sample_parameters(net, McmcConfig(seed=42, chains=2, sample_iters=300))
        export_traces(draws, posteriors_of(net, draws), tmp_path)
        for k, a in enumerate(row):
            b = sum(row) - a
            beta = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
            xs, ys = read_density(tmp_path / f"density_A_{k}.csv")
            for x, y in zip(xs, ys):
                assert y == pytest.approx(x ** (a - 1) * (1 - x) ** (b - 1) / beta, rel=1e-12)

    def test_density_matches_a_histogram_of_200k_draws(self, tmp_path):
        net = single_node_network([3.0, 5.0, 2.0])
        draws = sample_parameters(net, McmcConfig(seed=43, chains=2, sample_iters=100_000))
        export_traces(draws, posteriors_of(net, draws), tmp_path)
        xs, ys = read_density(tmp_path / "density_A_0.csv")
        pooled = draws["A"][0, 0].ravel()
        n = pooled.size
        # 15 bins of 17 grid intervals each: the curve's mass in a bin by the
        # trapezoid rule against the share of the draws that fall in it. The
        # bound is five binomial standard errors plus 1e-4 for the rule.
        edges = xs[::17]
        counts, _ = np.histogram(pooled, bins=edges)
        for i, count in enumerate(counts):
            lo, hi = 17 * i, 17 * (i + 1) + 1
            mass = trapezoid_area(xs[lo:hi], ys[lo:hi])
            assert abs(count / n - mass) <= 5 * math.sqrt(mass * (1 - mass) / n) + 1e-4

    @pytest.mark.parametrize("row, series, want", [
        # alpha0 = 1e-9 at a state no record saw: every draw is exactly 0 or 1
        ([1e-9, 5.0], [[0.0, 0.0], [1.0, 1.0]], [math.inf, math.inf]),
        # 5 + 1e-20 - 5 is 0, and lgamma(0) raises: b is the other entries' sum
        ([1e-20, 5.0], [[0.0, 0.0], [1.0, 1.0]], [math.inf, math.inf]),
        # Beta(1, 1) is 1 on [0, 1], ends included: 0 * log 0 counts as 0
        ([1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]),
        # Beta(2, 1) is 2x and Beta(1, 2) is 2(1 - x)
        ([2.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], [0.0, 2.0]),
    ])
    def test_degenerate_draws_give_no_nan_and_no_warning(self, tmp_path, row, series, want):
        chains = np.asarray(series)[:, None, :].repeat(2, axis=1)  # (states, chains, kept)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            export_traces({"A": chains[None]}, {"A": np.asarray([row])}, tmp_path)
        _, ys = read_density(tmp_path / "density_A_0.csv")
        assert [ys[0], ys[-1]] == pytest.approx(want, rel=1e-12)
        for k in range(2):
            assert not np.isnan(read_density(tmp_path / f"density_A_{k}.csv")[1]).any()


def averaged_mass_brute_force(network, stack, evidence, query):
    """Oracle: walk every state of the unobserved variables once per draw,
    multiply the draw's CPT entries, average the per-query-state mass over
    draws and normalize. Families with every variable observed are left out,
    as the estimator leaves them out."""
    schema = network.schema
    names = list(network.dag.nodes)
    hidden = [n for n in names if n not in evidence]
    families = [n for n in names if set(network.cpts[n].parent_order + (n,)) & set(hidden)]
    n_draws = len(next(iter(stack.values())))
    mass = np.zeros((n_draws, schema.cardinality(query)))
    for combo in itertools.product(*(range(schema.cardinality(n)) for n in hidden)):
        state = dict(evidence, **dict(zip(hidden, combo)))
        term = np.ones(n_draws)
        for node in families:
            row = 0
            for p in network.cpts[node].parent_order:
                row = row * schema.cardinality(p) + state[p]
            term *= stack[node][:, row, state[node]]
        mass[:, state[query]] += term
    average = mass.mean(axis=0)
    return average / average.sum()


def summed_over_draws(network, stack, records, query):
    """eliminate's mass of each record summed over the draws of stack: each
    record repeated once per draw, each copy reading its draw's parameter
    set, and the per-draw masses summed here."""
    n_draws = len(next(iter(stack.values())))
    sets = np.tile(np.arange(n_draws), len(records))
    mass = eliminate(network, stack, np.repeat(records, n_draws, axis=0), query, sets=sets)
    return mass.reshape(len(records), n_draws, *mass.shape[1:]).sum(axis=1)


class TestEliminateDrawStack:
    def test_draw_stack_matches_averaged_brute_force(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            net = random_network(rng)
            names = list(net.schema.names)
            query = names[0]
            stack = {
                n: np.stack([rng.dirichlet(row, size=5) for row in net.cpts[n].posterior], axis=1)
                for n in names
            }
            records = np.column_stack(
                [rng.integers(0, net.schema.cardinality(n), size=6) for n in names]
            )
            records[rng.random(records.shape) < 0.4] = -1
            mass = summed_over_draws(net, stack, records, (query,))
            got = mass / mass.sum(axis=1, keepdims=True)
            for row, probs in zip(records, got):
                evidence = {n: int(s) for n, s in zip(names, row) if s >= 0 and n != query}
                want = averaged_mass_brute_force(net, stack, evidence, query)
                assert np.allclose(probs, want, atol=1e-9)

    def test_seven_draws_match_brute_force_at_any_block_size(self, monkeypatch):
        rng = np.random.default_rng(62)
        for _ in range(8):
            net = random_network(rng, max_nodes=6)
            names = list(net.schema.names)
            query = names[int(rng.integers(len(names)))]
            # (configs, states, draws) buffers read through transposed views, as _draw_chain returns them
            stack = {
                n: np.stack([rng.dirichlet(row, size=7).T for row in net.cpts[n].posterior]).transpose(2, 0, 1)
                for n in names
            }
            records = np.column_stack(
                [rng.integers(0, net.schema.cardinality(n), size=16) for n in names]
            )
            records[rng.random(records.shape) < 0.5] = -1
            default = summed_over_draws(net, stack, records, (query,))
            monkeypatch.setattr(bayesnet, "_BLOCK_CELLS", 1)  # one record per block
            single = summed_over_draws(net, stack, records, (query,))
            monkeypatch.undo()
            assert np.allclose(single, default, rtol=1e-12, atol=1e-12)
            got = default / default.sum(axis=1, keepdims=True)
            for row, probs in zip(records, got):
                evidence = {n: int(s) for n, s in zip(names, row) if s >= 0 and n != query}
                want = averaged_mass_brute_force(net, stack, evidence, query)
                assert np.allclose(probs, want, atol=1e-9)

    def test_a_stack_of_draws_needs_sets(self):
        # without sets a stack of several entries would be read at entry 0
        net = random_network(np.random.default_rng(63))
        stack = {n: np.stack([cpt.posterior_mean] * 2) for n, cpt in net.cpts.items()}
        records = np.full((3, len(net.schema.names)), -1)
        with pytest.raises(ValueError, match="need sets, one index per record"):
            eliminate(net, stack, records, (net.schema.names[0],))


class TestSamplerReference:
    @pytest.mark.parametrize("alpha0", [0.05, 1.0])
    def test_draws_equal_per_row_dirichlet_calls(self, alpha0):
        # at alpha0 = 0.05 the CPT rows no record reaches have every entry
        # below 0.1, where numpy's dirichlet breaks sticks instead of
        # normalizing gamma variates
        schema = make_schema([3, 3, 3])
        dag = Dag(schema.names, (("A", "B"), ("B", "C")))
        records = np.array([[0, 0, 1], [0, 1, 1], [1, 0, 2], [0, 0, 0]])
        net = fit_conjugate(dag, Dataset(schema, records), alpha0)
        if alpha0 < 0.1:
            assert (net.cpts["C"].posterior.max(axis=1) < 0.1).any()
        cfg = McmcConfig(seed=23, chains=3, sample_iters=30)
        draws = sample_parameters(net, cfg)
        for chain in range(cfg.chains):
            rng = np.random.default_rng(np.random.SeedSequence(23, spawn_key=(chain, 0)))
            for node in schema.names:
                post = net.cpts[node].posterior
                want = np.empty((30,) + post.shape)
                for j, row in enumerate(post):
                    want[:, j, :] = rng.dirichlet(row, size=30)
                assert np.array_equal(draws[node][:, :, chain], want.transpose(1, 2, 0))


def tan_network(predictors=10, states=5, n=300, seed=71):
    """Target T and a chain of predictors, each with parents T and the
    previous predictor: 1 + 5 + 9 * 25 = 231 CPT rows at the defaults."""
    names = ["T"] + [f"X{i}" for i in range(predictors)]
    schema = make_schema([states] * len(names), names)
    edges = [("T", x) for x in names[1:]] + list(zip(names[1:], names[2:]))
    rng = np.random.default_rng(seed)
    records = rng.integers(0, states, size=(n, len(names)))
    return fit_conjugate(Dag(schema.names, tuple(edges)), Dataset(schema, records))


def draw_average(network, records, target, config):
    """Reference: the Monte-Carlo predictive. Every chain's Dirichlet draws of
    every node, the joint mass of each draw by elimination, summed over
    draws and normalized once."""
    nodes = list(network.dag.nodes)
    mass = 0.0
    for chain in range(config.chains):
        buffers = {n: np.empty(network.cpts[n].posterior.shape + (config.kept_per_chain,)) for n in nodes}
        draws = _draw_chain(network, nodes, config, chain, buffers)
        mass = mass + summed_over_draws(network, draws, records, (target,))
    return mass / mass.sum(axis=1, keepdims=True)


def with_prior(network, prior):
    """The network's counts under a flat "alpha0=<a>" prior, or a
    "bdeu_ess=<ess>" one that spreads ess / (configs * states) over each table."""
    kind, value = prior.split("=")
    cpts = {}
    for node, cpt in network.cpts.items():
        cell = float(value) if kind == "alpha0" else float(value) / cpt.counts.size
        cpts[node] = Cpt(node, cpt.parent_order, np.full(cpt.counts.shape, cell), cpt.counts)
    return FittedNetwork(network.dag, network.schema, cpts)


class TestClosedFormPredictive:
    @pytest.mark.parametrize("seed", [81, 82, 83, 84])
    @pytest.mark.parametrize("prior", ["alpha0=1", "alpha0=0.3", "bdeu_ess=1", "bdeu_ess=10"])
    def test_is_the_draw_average(self, seed, prior):
        # E[p(t, x | theta)] = p(t, x | posterior mean): the rows are
        # independent Dirichlets and each term uses a row at most once
        rng = np.random.default_rng(seed)
        net = with_prior(random_network(rng), prior)
        names = list(net.schema.names)
        target = names[int(rng.integers(len(names)))]
        records = np.column_stack([rng.integers(0, net.schema.cardinality(n), size=12) for n in names])
        records[rng.random(records.shape) < 0.4] = -1
        records[0] = -1  # a record that observes nothing
        cfg = McmcConfig(seed=seed, chains=3, sample_iters=4000)
        draws = cfg.chains * cfg.kept_per_chain
        got = posterior_marginal(net, records, (target,))
        assert np.allclose(got.sum(axis=1), 1.0)
        assert np.abs(got - draw_average(net, records, target, cfg)).max() < 3 / math.sqrt(draws)

    def test_holds_no_draws(self):
        net = tan_network()
        assert sum(cpt.posterior.shape[0] for cpt in net.cpts.values()) >= 200
        one_draw = 8 * sum(cpt.posterior.size for cpt in net.cpts.values())
        records = np.random.default_rng(6).integers(0, 5, size=(40, len(net.schema.names)))
        tracemalloc.start()
        try:
            probs = posterior_marginal(net, records, (net.schema.target,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.shape == (40, 5)
        # the posterior means and a few blocks of working arrays; one chain of
        # the demo's 2,000 kept draws would be 2,000 times one_draw
        assert peak < 50 * one_draw


def reference_parameters(draws):
    """'<node>_<index>' -> per-chain 1-D draws, index config * states + state."""
    out = {}
    for node, arr in draws.items():
        q, r, chains, _ = arr.shape
        for j in range(q):
            for k in range(r):
                out[f"{node}_{j * r + k}"] = [arr[j, k, c] for c in range(chains)]
    return out


def reference_gelman_rubin(draws):
    """Split-chain r-hat one parameter at a time."""
    params = reference_parameters(draws)
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


def reference_beta_pdf(x, a, b):
    """The Beta(a, b) density at x by math.lgamma and math.log, one point at
    a time; inf where an exponent below 0 meets an end of [0, 1]."""
    if (x == 0.0 and a < 1.0) or (x == 1.0 and b < 1.0):
        return math.inf
    log_pdf = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    if a != 1.0:
        log_pdf += (a - 1.0) * math.log(x) if x > 0.0 else -math.inf
    if b != 1.0:
        log_pdf += (b - 1.0) * math.log1p(-x) if x < 1.0 else -math.inf
    return math.exp(log_pdf)


def reference_export_traces(draws, posteriors, out):
    """Trace CSVs written one csv.writer row at a time, and per parameter
    the density's (grid, values): 256 points from the pooled draws' min to
    max, and the Beta pdf of the pseudo-count and the sum of the other
    entries of its row."""
    out.mkdir(parents=True, exist_ok=True)
    traces, densities = [], []
    for name, chains in reference_parameters(draws).items():
        node, index = name.rsplit("_", 1)
        trace_path = out / f"trace_{node}_{index}.csv"
        with open(trace_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["chain", "iteration", "value"])
            for chain_no, series in enumerate(chains, 1):
                for it, value in enumerate(series, 1):
                    writer.writerow([chain_no, it, repr(float(value))])
        traces.append(trace_path)
        row = posteriors[node][int(index) // posteriors[node].shape[1]].tolist()
        k = int(index) % len(row)
        a, b = row[k], math.fsum(row[:k] + row[k + 1 :])
        pooled = np.concatenate(chains)
        grid = np.linspace(pooled.min(), pooled.max(), 256)
        densities.append((grid, [reference_beta_pdf(x, a, b) for x in grid.tolist()]))
    return traces, densities


def monitored_network(seed):
    """A seeded random network with at least two nodes that have parents,
    and the nodes to monitor: those, then one more node when there is one."""
    rng = np.random.default_rng(seed)
    while True:
        net = random_network(rng)
        with_parents = [n for n in net.dag.nodes if net.dag.parents(n)]
        if len(with_parents) >= 2:
            rest = [n for n in net.dag.nodes if n not in with_parents]
            return net, with_parents + rest[:1]


class TestDiagnosticsReference:
    @pytest.mark.parametrize("seed, chains, kept", [
        (91, 2, 31), (92, 3, 40), (93, 4, 25), (94, 3, 777), (95, 2, 2000), (96, 4, 10),
    ])
    def test_rhat_and_files_equal_the_per_parameter_reference(self, tmp_path, seed, chains, kept):
        net, monitor = monitored_network(seed)
        draws = sample_parameters(net, McmcConfig(seed=seed, chains=chains, sample_iters=kept), monitor)
        assert [draws[n].shape[2:] for n in monitor] == [(chains, kept)] * len(monitor)
        want = reference_gelman_rubin(draws)
        got = gelman_rubin(draws)
        assert list(got) == list(want)
        assert got == want
        written = export_traces(draws, posteriors_of(net, draws), tmp_path / "new")
        traces, densities = reference_export_traces(draws, posteriors_of(net, draws), tmp_path / "ref")
        assert [p.name for p in written] == [
            name for p in traces for name in (p.name, p.name.replace("trace_", "density_"))
        ]
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == sorted(p.name for p in written)
        for new, ref in zip(written[::2], traces):
            assert new.read_bytes() == ref.read_bytes()
        for new, (grid, dens) in zip(written[1::2], densities):
            xs, ys = read_density(new)
            assert xs.tolist() == grid.tolist()
            np.testing.assert_allclose(ys, dens, rtol=1e-12, atol=0)

    def test_constant_chain_names_the_first_constant_parameter(self):
        rng = np.random.default_rng(97)
        draws = {"A": rng.random((1, 2, 2, 20)), "B": rng.random((2, 2, 2, 20))}
        draws["B"][1, 0] = 0.25  # B_2
        draws["B"][1, 1] = 0.75  # B_3
        with pytest.raises(ConstantChain, match="parameter B_2 has") as got:
            gelman_rubin(draws)
        with pytest.raises(ConstantChain) as want:
            reference_gelman_rubin(draws)
        assert str(got.value) == str(want.value)
