import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnpipeline.bayesnet import Dag, fit_conjugate, subtract_counts
from bnpipeline.dataset import Dataset, Schema, VariableSpec, make_split, numeric_state_values
from bnpipeline.evaluation import (
    CvResult,
    Metrics,
    cross_validate,
    final_evaluation,
    metrics,
    write_cv_csv,
    write_final_metrics,
)
from bnpipeline.mcmc import posterior_predict, write_predictions
from bnpipeline.simulate import benchmark_alternative, benchmark_network, sample_dataset
from bnpipeline.structlearn import CandidateModel, naive


class TestMetrics:
    def test_accuracy_rounding_to_four_places(self):
        pred = [1.0] * 35
        truth = [1.0] * 12 + [2.0] * 23
        m = metrics(pred, truth)
        assert m.cases == 35
        assert m.correct == 12
        assert round(m.accuracy, 4) == 0.3429

    def test_hand_example(self):
        m = metrics([6, 7, 4, 4], [5, 6, 4, 5])
        assert m.accuracy == 0.25
        assert m.rmse == pytest.approx(math.sqrt(3 / 4), abs=1e-12)
        assert m.rmse == pytest.approx(0.8660, abs=1e-4)
        assert m.large_errors == 0

    def test_perfect(self):
        m = metrics([1, 2, 3], [1, 2, 3])
        assert m.accuracy == 1.0
        assert m.rmse == 0.0

    def test_large_error_is_strictly_more_than_one(self):
        m = metrics([1, 1, 1], [2, 3, 4])
        assert m.large_errors == 2

    def test_literal_rmse_variant(self):
        pred, truth = [4.0, 1.0], [0.0, 4.0]
        standard = metrics(pred, truth)
        literal = metrics(pred, truth, literal_rmse=True)
        assert standard.rmse == pytest.approx(math.sqrt((16 + 9) / 2))
        assert literal.rmse == pytest.approx(math.sqrt(16 + 9) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics([], [])

    @given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), min_size=1, max_size=40),
           st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_order_invariance(self, pairs, rnd):
        pred = [float(p) for p, _ in pairs]
        truth = [float(t) for _, t in pairs]
        base = metrics(pred, truth)
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        shuffled = metrics([pred[i] for i in order], [truth[i] for i in order])
        assert shuffled == base

    def test_rmse_zero_iff_exact(self):
        assert metrics([2, 2], [2, 2]).rmse == 0.0
        assert metrics([2, 2], [2, 3]).rmse > 0.0


def small_problem(n=260, seed=1):
    dag, schema, tables = benchmark_network()
    keep = ["EVAL", "F1", "F2", "F3"]
    sub_schema = schema.restrict(keep)
    sub_dag = Dag(tuple(sub_schema.names), (("EVAL", "F1"), ("EVAL", "F2"), ("EVAL", "F3")))
    sub_tables = {k: tables[k] for k in keep}
    data = sample_dataset(sub_dag, sub_schema, sub_tables, n, seed)
    return sub_dag, data


class TestCrossValidate:
    def test_deterministic(self):
        dag, data = small_problem()
        split = make_split(data.n_records, 0.2, 4, 0.1, seed=3)
        cands = [CandidateModel("truth", dag), naive(data, "EVAL")]
        a = cross_validate(cands, data, split)
        b = cross_validate(cands, data, split)
        assert a == b

    def test_fold_times_model_bookkeeping(self):
        dag, data = small_problem()
        split = make_split(data.n_records, 0.2, 4, 0.1, seed=3)
        cands = [CandidateModel("truth", dag), naive(data, "EVAL")]
        cv = cross_validate(cands, data, split)
        assert len(cv.fold_metrics) == 4 * 2
        for _, _, m in cv.fold_metrics:
            assert m.cases == split.fold_size

    def test_no_leakage_matches_manual_fold_pipeline(self):
        # the harness must reproduce a by-hand fit on train-minus-fold rows,
        # which by construction never sees the validation records
        dag, data = small_problem(n=200, seed=5)
        split = make_split(data.n_records, 0.25, 3, 0.12, seed=9)
        cand = CandidateModel("truth", dag)
        cv = cross_validate([cand], data, split)
        values = numeric_state_values(data.schema.spec("EVAL"))
        for label, fold_no, got in cv.fold_metrics:
            fold = split.folds[fold_no - 1]
            train_rows = sorted(set(split.train_idx) - set(fold))
            net = fit_conjugate(dag, data.subset(train_rows))
            records = [{n: int(data.column(n)[i]) for n in data.schema.names if n != "EVAL"} for i in fold]
            truths = data.column("EVAL")[fold]
            preds = posterior_predict(net, records, mode="exact", target="EVAL")
            manual = metrics(
                [values[p.predicted] for p in preds], [values[t] for t in truths]
            )
            assert manual == got

    def test_fold_networks_match_refit_on_train_minus_fold(self):
        # each fold's network is the training fit minus the fold's counts; its
        # counts, and so its metrics, must equal a from-scratch refit
        dag, data = small_problem(n=200, seed=5)
        split = make_split(data.n_records, 0.25, 3, 0.12, seed=9)
        cands = [CandidateModel("truth", dag), naive(data, "EVAL")]
        cv = cross_validate(cands, data, split)
        values = numeric_state_values(data.schema.spec("EVAL"))
        train_data = data.subset(split.train_idx)
        dags = {c.label: c.dag for c in cands}
        for label, fold_no, got in cv.fold_metrics:
            fold = split.folds[fold_no - 1]
            train_rows = sorted(set(split.train_idx) - set(fold))
            net = fit_conjugate(dags[label], data.subset(train_rows))
            subtracted = subtract_counts(fit_conjugate(dags[label], train_data), data.subset(fold), np.zeros(len(fold)))
            for node, cpt in net.cpts.items():
                assert np.array_equal(subtracted[node][0], cpt.counts)
            records = [{n: int(data.column(n)[i]) for n in data.schema.names if n != "EVAL"} for i in fold]
            truths = data.column("EVAL")[fold]
            preds = posterior_predict(net, records, target="EVAL")
            manual = metrics(
                [values[p.predicted] for p in preds], [values[t] for t in truths]
            )
            assert manual == got

    def test_winner_has_min_average_rmse(self):
        dag, data = small_problem()
        split = make_split(data.n_records, 0.2, 4, 0.1, seed=3)
        cands = [CandidateModel("truth", dag), naive(data, "EVAL")]
        cv = cross_validate(cands, data, split)
        best_rmse = min(rmse for _, rmse in cv.averages.values())
        assert cv.averages[cv.best][1] == best_rmse

    def test_true_structure_beats_degraded_competitors(self):
        dag, schema, tables = benchmark_network()
        data = sample_dataset(dag, schema, tables, 3000, seed=21)
        split = make_split(data.n_records, 0.15, 5, 0.08, seed=2)
        cands = [
            CandidateModel("truth", dag),
            CandidateModel("pruned", benchmark_alternative(dag)),
            naive(data, "EVAL"),
        ]
        cv = cross_validate(cands, data, split)
        assert cv.best == "truth"

    def test_duplicate_labels_rejected(self):
        dag, data = small_problem()
        split = make_split(data.n_records, 0.2, 4, 0.1, seed=3)
        with pytest.raises(ValueError):
            cross_validate([CandidateModel("x", dag), CandidateModel("x", dag)], data, split)

    def test_csv_export(self, tmp_path):
        dag, data = small_problem()
        split = make_split(data.n_records, 0.2, 4, 0.1, seed=3)
        cv = cross_validate([CandidateModel("truth", dag), naive(data, "EVAL")], data, split)
        write_cv_csv(cv, tmp_path / "cv.csv")
        lines = (tmp_path / "cv.csv").read_text().splitlines()
        assert lines[0] == "model,fold,cases,correct,accuracy,rmse"
        assert len(lines) == 1 + 8 + 2
        assert sum(ln.split(",")[1] == "mean" for ln in lines[1:]) == 2


class TestFinalEvaluation:
    def test_one_prediction_per_test_record(self):
        dag, data = small_problem()
        split = make_split(data.n_records, 0.2, 4, 0.1, seed=4)
        summary, probs, truths, network = final_evaluation(CandidateModel("truth", dag), data, split)
        assert probs.shape == (len(split.test_idx), data.schema.cardinality("EVAL"))
        assert truths.tolist() == data.column("EVAL")[split.test_idx].tolist()
        assert summary.cases == len(split.test_idx)
        assert network.dag == dag

    def test_summary_consistent_with_confusion_trace(self):
        dag, data = small_problem()
        split = make_split(data.n_records, 0.2, 4, 0.1, seed=4)
        summary, probs, truths, _ = final_evaluation(CandidateModel("truth", dag), data, split)
        r = data.schema.cardinality("EVAL")
        matrix = np.zeros((r, r), dtype=np.int64)  # (predicted, true) counts
        np.add.at(matrix, (probs.argmax(axis=1), truths), 1)
        assert np.trace(matrix) / matrix.sum() == pytest.approx(summary.accuracy)

    def test_distributions_match_posterior_predict(self):
        dag, data = small_problem()
        split = make_split(data.n_records, 0.2, 4, 0.1, seed=4)
        _, probs, truths, network = final_evaluation(CandidateModel("truth", dag), data, split)
        records = [{n: int(data.column(n)[i]) for n in data.schema.names if n != "EVAL"} for i in split.test_idx]
        preds = posterior_predict(network, records, target="EVAL", true_states=truths)
        assert np.allclose(probs, [p.probs for p in preds], rtol=0, atol=1e-12)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert [p.predicted for p in preds] == probs.argmax(axis=1).tolist()

    def test_predictions_csv_as_one_row_per_posterior_predictive(self, tmp_path):
        # write_predictions formats the arrays as each record's
        # PosteriorPredictive: percents, mean, modal and true state
        dag, data = small_problem()
        split = make_split(data.n_records, 0.2, 4, 0.1, seed=4)
        _, probs, truths, network = final_evaluation(CandidateModel("truth", dag), data, split)
        spec = data.schema.spec("EVAL")
        write_predictions(probs, truths, spec, tmp_path / "p.csv")
        records = [{n: int(data.column(n)[i]) for n in data.schema.names if n != "EVAL"} for i in split.test_idx]
        rows = [[f"state_{s}" for s in spec.states] + ["mean", "predicted", "true"]]
        for p in posterior_predict(network, records, target="EVAL", true_states=truths):
            rows.append([f"{100.0 * x:.2f}" for x in p.probs] + [f"{p.mean:.4f}", spec.states[p.predicted], spec.states[p.true_state]])
        assert (tmp_path / "p.csv").read_text(encoding="utf-8") == "".join(",".join(r) + "\n" for r in rows)

    def test_metrics_csv(self, tmp_path):
        m = Metrics(cases=35, correct=12, large_errors=3, accuracy=12 / 35, rmse=0.8783)
        write_final_metrics(m, tmp_path / "final.csv")
        lines = (tmp_path / "final.csv").read_text().splitlines()
        assert lines[0] == "cases,correct,large_errors,accuracy,rmse"
        assert lines[1].startswith("35,12,3,")
