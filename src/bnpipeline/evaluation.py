"""Classification metrics and the cross-validation harness.

Predictions and truths are compared on the numeric value of the target
states (the parsed label when labels are numbers). RMSE is the default
selection criterion because it penalizes large mistakes, not just wrong
ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bayesnet import Cpt, Dag, FittedNetwork, fit_conjugate, posterior_marginal, subtract_counts
from .dataset import Dataset, SplitPlan, numeric_state_values, write_rows
from .structlearn import CandidateModel


@dataclass(frozen=True)
class Metrics:
    """Test-set summary: counts, accuracy, and root-mean-square error.

    large_errors counts predictions whose numeric value is off by more
    than one state.
    """

    cases: int
    correct: int
    large_errors: int
    accuracy: float
    rmse: float


def metrics(pred: Sequence[float], truth: Sequence[float], literal_rmse: bool = False) -> Metrics:
    """Accuracy, large-error count and RMSE of numeric predictions.

    literal_rmse divides the Euclidean distance by the number of cases
    instead of taking the root of the mean squared error.
    """
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError("prediction and truth must be equal-length vectors")
    if p.size == 0:
        raise ValueError("no predictions to score")
    err = p - t
    correct = int((err == 0).sum())
    if literal_rmse:
        rmse = float(np.linalg.norm(err) / p.size)
    else:
        rmse = float(math.sqrt(np.mean(err ** 2)))
    return Metrics(
        cases=int(p.size),
        correct=correct,
        large_errors=int((np.abs(err) > 1).sum()),
        accuracy=correct / p.size,
        rmse=rmse,
    )


@dataclass(frozen=True)
class CvResult:
    """Per-(model, fold) metrics, per-model fold averages, and the winner."""

    fold_metrics: tuple[tuple[str, int, Metrics], ...]
    averages: dict[str, tuple[float, float]]  # label -> (mean accuracy, mean rmse)
    best: str


def _training_fit(dag: Dag, data: Dataset, test: Dataset, alpha0: float) -> FittedNetwork:
    """fit_conjugate of dag on the rows of data outside test, a subset of
    them (the training rows of a split): each family's table on data, which
    a run counts once (dataset.contingency_table), less its table on test,
    by subtract_counts with test as its one fold. Counts are exact integers,
    so this equals a fit on those rows bit for bit, without copying them."""
    network = fit_conjugate(dag, data, alpha0)
    counts = subtract_counts(network, test, np.zeros(test.n_records, dtype=np.int64))
    cpts = {node: Cpt(node, cpt.parent_order, cpt.alpha, counts[node][0]) for node, cpt in network.cpts.items()}
    return FittedNetwork(network.dag, network.schema, cpts)


def cross_validate(
    candidates: Sequence[CandidateModel],
    data: Dataset,
    split: SplitPlan,
    alpha0: float = 1.0,
    literal_rmse: bool = False,
) -> CvResult:
    """Fit every candidate on train-minus-fold and score it on each fold.

    Each candidate is fitted once on the training split (_training_fit),
    data's table memo serving the families the candidates share. Its
    network for a fold is that fit minus the fold's own family counts,
    which equals a refit on train-minus-fold because counts are additive.
    Per candidate, one subtract_counts call counts the held-out rows of
    every fold in one pass per family, with a leading fold axis, and one
    posterior_marginal call scores the rows of every fold, each under its
    own fold's counts. Each fold's metrics come from its own rows, and
    fold_metrics lists the (fold, candidate) pairs fold by fold. The winner
    is the model with the smallest average RMSE over folds (ties go to the
    lexicographically first label).
    """
    if not candidates:
        raise ValueError("no candidate models")
    labels = [c.label for c in candidates]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate candidate labels: {labels}")
    target = data.schema.target
    values = np.asarray(numeric_state_values(data.schema.spec(target)))
    test = data.subset(split.test_idx)
    fitted = [_training_fit(cand.dag, data, test, alpha0) for cand in candidates]

    sizes = [fold.size for fold in split.folds]
    held_out = data.subset(np.concatenate(split.folds))
    folds = np.repeat(np.arange(len(sizes)), sizes)
    bounds = np.cumsum([0, *sizes]).tolist()
    truth = values[held_out.column(target)]
    predicted = []  # per candidate: the predicted value of every held-out row
    for network in fitted:
        counts = subtract_counts(network, held_out, folds)
        probs = posterior_marginal(network, held_out.records, (target,), counts=counts, sets=folds)
        predicted.append(values[probs.argmax(axis=1)])

    results = []
    sums: dict[str, list[float]] = {c.label: [0.0, 0.0] for c in candidates}
    for f, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        for label, pred in zip(labels, predicted):
            m = metrics(pred[lo:hi], truth[lo:hi], literal_rmse=literal_rmse)
            results.append((label, f + 1, m))
            sums[label][0] += m.accuracy
            sums[label][1] += m.rmse
    n_folds = len(split.folds)
    averages = {label: (acc / n_folds, rmse / n_folds) for label, (acc, rmse) in sums.items()}
    best = min(averages, key=lambda lbl: (averages[lbl][1], lbl))
    return CvResult(tuple(results), averages, best)


def final_evaluation(
    best: CandidateModel,
    data: Dataset,
    split: SplitPlan,
    alpha0: float = 1.0,
    literal_rmse: bool = False,
) -> tuple[Metrics, np.ndarray, np.ndarray, FittedNetwork]:
    """Retrain on the full training split (_training_fit) and score the
    held-out test set: its metrics, each test row's target distribution
    (one row of probabilities per record), their true target states and the
    network."""
    target = data.schema.target
    values = np.asarray(numeric_state_values(data.schema.spec(target)))
    test = data.subset(split.test_idx)
    network = _training_fit(best.dag, data, test, alpha0)
    truths = test.column(target)
    probs = posterior_marginal(network, test.records, (target,))
    summary = metrics(values[probs.argmax(axis=1)], values[truths], literal_rmse=literal_rmse)
    return summary, probs, truths, network


def write_cv_csv(cv: CvResult, path: str | Path) -> None:
    """Per-fold rows plus one 'mean' row per model."""
    rows = [[label, fold, m.cases, m.correct, repr(m.accuracy), repr(m.rmse)] for label, fold, m in cv.fold_metrics]
    rows += [[label, "mean", "", "", repr(acc), repr(rmse)] for label, (acc, rmse) in sorted(cv.averages.items())]
    write_rows(path, ["model", "fold", "cases", "correct", "accuracy", "rmse"], rows)


def write_final_metrics(m: Metrics, path: str | Path) -> None:
    row = [m.cases, m.correct, m.large_errors, repr(m.accuracy), repr(m.rmse)]
    write_rows(path, ["cases", "correct", "large_errors", "accuracy", "rmse"], [row])
