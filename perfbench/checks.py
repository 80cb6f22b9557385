"""Checks on every phase's output files.

Each check compares an output against a computation made apart from the
package (see oracles.py) or against a property the method must have. None
compares against a stored copy of an earlier run's output.
"""

from __future__ import annotations

import configparser
import csv
import math
from pathlib import Path

import numpy as np

from oracles import (
    Table,
    counts,
    entropy,
    log_marginal_likelihood,
    mutual_information,
    network_marginal,
    normalized_mi,
    posterior_mean_cpts,
    read_fitted_network,
    read_structure,
    target_posterior,
)

# Largest allowed |Monte-Carlo - exact| target probability, times sqrt(draws).
# The estimate averages D independent posterior draws, so its error shrinks
# as 1/sqrt(D); at the demo's 6,000 draws the tolerance is 0.039. Over split
# seeds 0-24 of the demo the largest error seen was 0.88/sqrt(D), on TAN.
MC_TOLERANCE_SQRT_DRAWS = 3.0


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _lines(path: Path) -> list[str]:
    return [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]


def _non_increasing(values: list[float]) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


def read_config(out: Path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read(out / "effective_config.ini", encoding="utf-8")
    return cfg


def _alpha0(cfg: configparser.ConfigParser) -> float:
    _require(not cfg["model"]["bdeu_ess"], "the oracles cover flat alpha0 priors only")
    return float(cfg["model"]["alpha0"])


def _structures(out: Path) -> dict[str, dict[str, tuple[str, ...]]]:
    return {p.stem: read_structure(p) for p in sorted((out / "structures").glob("*.structure"))}


def check_select(out: Path, table: Table) -> None:
    """score_mi.csv holds every pair once, sorted, with MI' counted from the CSV."""
    rows = _rows(out / "score_mi.csv")
    names = table.names
    expected = {
        (x, y): normalized_mi(counts(table, (x, y))) for i, x in enumerate(names) for y in names[i + 1 :]
    }
    got = {(r["x"], r["y"]): float(r["mi_norm"]) for r in rows}
    _require(len(rows) == len(expected) and set(got) == set(expected), "score_mi.csv: wrong set of pairs")
    for pair, value in expected.items():
        _require(abs(got[pair] - value) <= 1e-9, f"score_mi.csv: {pair} is {got[pair]}, expected {value}")
    _require(_non_increasing([float(r["mi_norm"]) for r in rows]), "score_mi.csv: not sorted by score")


def check_learn(out: Path, table: Table) -> None:
    """Every sensitivity score is MI(target; predictor) under the structure's
    posterior-mean CPTs and lies in [-1e-12, H(target)]."""
    cfg = read_config(out)
    alpha0 = _alpha0(cfg)
    selected = set(_lines(out / "selected_variables.txt"))
    learners = [s.strip() for s in cfg["learn"]["learners"].split(",") if s.strip()]
    users = [s.split("=", 1)[0].strip() for s in cfg["learn"]["user_structures"].split(",") if s.strip()]
    reports = {p.stem[len("sensitivity_") :]: p for p in out.glob("sensitivity_*.csv")}
    _require(set(reports) == set(learners + users), f"sensitivity reports {sorted(reports)} != candidates")
    target = table.target
    for label, path in sorted(reports.items()):
        parents = read_structure(out / "structures" / f"{label}.structure")
        _require(set(parents) == selected, f"{label}.structure does not cover the selected variables")
        cpts = posterior_mean_cpts(table, parents, alpha0)
        h_target = entropy(network_marginal(parents, cpts, (target,)))
        rows = _rows(path)
        _require(
            sorted(r["variable"] for r in rows) == sorted(selected - {target}),
            f"{path.name}: wrong variables",
        )
        for r in rows:
            score = float(r["score"])
            expected = mutual_information(network_marginal(parents, cpts, (target, r["variable"])))
            _require(abs(score - expected) <= 1e-9, f"{path.name}: {r['variable']} is {score}, expected {expected}")
            _require(-1e-12 <= score <= h_target + 1e-12, f"{path.name}: {score} outside [0, H(target)]")
        _require(_non_increasing([float(r["score"]) for r in rows]), f"{path.name}: not sorted by score")


def check_compare(out: Path, table: Table) -> None:
    """Log Bayes factors match marginal likelihoods computed with math.lgamma;
    chain factors are non-negative and telescope; flags match the naive score."""
    alpha0 = _alpha0(read_config(out))
    ml = {label: log_marginal_likelihood(table, ps, alpha0) for label, ps in _structures(out).items()}

    def tol(a: str, b: str) -> float:
        return 1e-11 * max(abs(ml[a]), abs(ml[b])) + 1e-9

    pairwise = _rows(out / "bf_pairwise.csv")
    pairs = [frozenset((r["model_1"], r["model_2"])) for r in pairwise]
    expected_pairs = {frozenset((a, b)) for a in ml for b in ml if a != b}
    _require(len(pairs) == len(expected_pairs) and set(pairs) == expected_pairs, "bf_pairwise.csv: wrong pairs")
    for r in pairwise:
        a, b, bf = r["model_1"], r["model_2"], float(r["log_bf"])
        _require(bf >= 0.0, f"bf_pairwise.csv: {a} over {b} is negative")
        _require(abs(bf - (ml[a] - ml[b])) <= tol(a, b), f"bf_pairwise.csv: {a} over {b} is {bf}, expected {ml[a] - ml[b]}")

    chain = _rows(out / "bf_chain.csv")
    order = [chain[0]["model_1"]] + [r["model_2"] for r in chain]
    _require(sorted(order) == sorted(ml), "bf_chain.csv: does not rank every model once")
    _require(
        all(r["model_1"] == prev["model_2"] for prev, r in zip(chain, chain[1:])), "bf_chain.csv: links do not join"
    )
    for r in chain:
        a, b, bf = r["model_1"], r["model_2"], float(r["log_bf"])
        _require(bf >= 0.0, f"bf_chain.csv: {a} over {b} is negative")
        _require(abs(bf - (ml[a] - ml[b])) <= tol(a, b), f"bf_chain.csv: {a} over {b} is {bf}, expected {ml[a] - ml[b]}")
    span = {(r["model_1"], r["model_2"]): float(r["log_bf"]) for r in pairwise}[(order[0], order[-1])]
    telescoped = sum(float(r["log_bf"]) for r in chain)
    _require(abs(telescoped - span) <= len(chain) * tol(order[0], order[-1]), "bf_chain.csv: factors do not telescope")

    flagged = set(_lines(out / "flagged_models.txt"))
    for label in ml:
        if abs(ml[label] - ml["naive"]) > tol(label, "naive"):
            _require((label in flagged) == (ml[label] < ml["naive"]), f"flagged_models.txt: wrong flag on {label}")
    _require(_lines(out / "surviving_models.txt") == [m for m in order if m not in flagged], "surviving_models.txt: wrong list")


def _split(out: Path, n: int) -> tuple[list[int], list[int], dict[str, list[int]]]:
    rows = _rows(out / "split_plan.csv")
    _require([int(r["row_index"]) for r in rows] == list(range(n)), "split_plan.csv: does not list every record once")
    groups: dict[str, list[int]] = {}
    for r in rows:
        groups.setdefault(r["assignment"], []).append(int(r["row_index"]))
    test = groups.get("test", [])
    train = sorted(i for key, rows_ in groups.items() if key != "test" for i in rows_)
    return test, train, groups


def check_cv(out: Path, table: Table) -> None:
    """Mean rows are the fold averages, the chosen model has the smallest mean
    RMSE (ties to the first label), and the split has the configured sizes."""
    cfg = read_config(out)
    n = table.records.shape[0]
    fold_count = int(cfg["split"]["fold_count"])
    literal_rmse = cfg["predict"]["literal_rmse"] == "true"
    fold_size = int(round(float(cfg["split"]["fold_fraction"]) * n))
    test, _, groups = _split(out, n)
    _require(len(test) == int(round(float(cfg["split"]["test_fraction"]) * n)), "split_plan.csv: wrong test size")
    for f in range(1, fold_count + 1):
        _require(len(groups.get(f"fold_{f}", [])) == fold_size, f"split_plan.csv: fold_{f} has the wrong size")

    models = _lines(out / "surviving_models.txt")
    rows = _rows(out / "cv_metrics.csv")
    means = {}
    for label in models:
        folds = [r for r in rows if r["model"] == label and r["fold"] != "mean"]
        _require([int(r["fold"]) for r in folds] == list(range(1, fold_count + 1)), f"cv_metrics.csv: folds of {label}")
        for r in folds:
            acc, rmse = float(r["accuracy"]), float(r["rmse"])
            _require(int(r["cases"]) == fold_size, f"cv_metrics.csv: {label} fold {r['fold']} case count")
            _require(acc == int(r["correct"]) / int(r["cases"]), f"cv_metrics.csv: {label} fold {r['fold']} accuracy")
            # every wrong prediction is off by at least one numeric state
            if not literal_rmse:
                _require(rmse * rmse >= 1.0 - acc - 1e-12, f"cv_metrics.csv: {label} fold {r['fold']} rmse too small")
        mean_rows = [r for r in rows if r["model"] == label and r["fold"] == "mean"]
        _require(len(mean_rows) == 1, f"cv_metrics.csv: {label} needs one mean row")
        for key in ("accuracy", "rmse"):
            average = sum(float(r[key]) for r in folds) / fold_count
            stated = float(mean_rows[0][key])
            _require(math.isclose(stated, average, rel_tol=1e-12, abs_tol=1e-15), f"cv_metrics.csv: {label} mean {key}")
        means[label] = float(mean_rows[0]["rmse"])
    _require(len(rows) == len(models) * (fold_count + 1), "cv_metrics.csv: rows for unknown models")
    best = min(models, key=lambda m: (means[m], m))
    _require(_lines(out / "chosen_model.txt") == [best], f"chosen_model.txt: expected {best}")


def _numeric_values(states: tuple[str, ...]) -> list[float]:
    try:
        return [float(s) for s in states]
    except ValueError:
        return [float(k) for k in range(1, len(states) + 1)]


def check_fit_predict(out: Path, table: Table) -> None:
    """The fitted network holds the training counts plus the prior for the
    configured model, or else the cross-validation winner; every
    prediction row is a rounded distribution whose mean and mode agree with
    it and whose probabilities match the exact posterior (within a Monte-Carlo
    tolerance); final_metrics.csv follows from predictions.csv."""
    cfg = read_config(out)
    alpha0 = _alpha0(cfg)
    target = table.target
    test, train, _ = _split(out, table.records.shape[0])
    label = cfg["predict"]["model"] or _lines(out / "chosen_model.txt")[0]
    parents = read_structure(out / "structures" / f"{label}.structure")
    fitted_parents, posterior = read_fitted_network(out / "fitted_network.csv", table.states)
    _require(fitted_parents == parents, "fitted_network.csv: parents differ from the chosen structure")
    train_table = table.rows(train)
    for node, ps in parents.items():
        expected = counts(train_table, ps + (node,)) + alpha0
        _require(np.allclose(posterior[node], expected, rtol=0, atol=1e-9), f"fitted_network.csv: counts of {node}")
    cpts = {node: post / post.sum(axis=-1, keepdims=True) for node, post in posterior.items()}

    states = table.states[target]
    values = _numeric_values(states)
    r = len(states)
    if cfg["predict"]["mode"] == "mcmc":
        draws = int(cfg["mcmc"]["chains"]) * math.ceil(int(cfg["mcmc"]["sample_iters"]) / int(cfg["mcmc"]["thin"]))
        tolerance = MC_TOLERANCE_SQRT_DRAWS / math.sqrt(draws)
    else:
        tolerance = 0.005 / 100 + 1e-12  # rounding to two decimals of a percent
    rows = _rows(out / "predictions.csv")
    _require(len(rows) == len(test), "predictions.csv: one row per test record expected")
    errors = []
    for row, k in zip(rows, test):
        pct = [float(row[f"state_{s}"]) for s in states]
        _require(abs(sum(pct) - 100.0) <= 0.005 * r + 1e-9, f"predictions.csv: row for record {k} sums to {sum(pct)}")
        mean = sum(p * v for p, v in zip(pct, values)) / 100.0
        mean_tol = 0.005 * r * max(abs(v) for v in values) / 100.0 + 5e-5 + 1e-9
        _require(abs(float(row["mean"]) - mean) <= mean_tol, f"predictions.csv: mean of record {k}")
        _require(pct[states.index(row["predicted"])] >= max(pct) - 0.01, f"predictions.csv: mode of record {k}")
        _require(row["true"] == states[table.col(target)[k]], f"predictions.csv: true state of record {k}")
        record = dict(zip(table.names, table.records[k].tolist()))
        evidence = {v: record[v] for v in parents if v != target}
        exact = target_posterior(parents, cpts, target, evidence)
        errors.append(max(abs(p / 100.0 - e) for p, e in zip(pct, exact)))
    _require(max(errors) <= tolerance, f"predictions.csv: {max(errors):.4f} from the exact posterior > {tolerance:.4f}")

    pred = np.array([values[states.index(row["predicted"])] for row in rows])
    truth = np.array([values[states.index(row["true"])] for row in rows])
    err = pred - truth
    if cfg["predict"]["literal_rmse"] == "true":
        rmse = float(np.linalg.norm(err)) / len(rows)
    else:
        rmse = math.sqrt(float(np.mean(err**2)))
    (final,) = _rows(out / "final_metrics.csv")
    correct = int((err == 0).sum())
    _require(int(final["cases"]) == len(rows), "final_metrics.csv: cases")
    _require(int(final["correct"]) == correct, "final_metrics.csv: correct")
    _require(int(final["large_errors"]) == int((np.abs(err) > 1).sum()), "final_metrics.csv: large_errors")
    _require(float(final["accuracy"]) == correct / len(rows), "final_metrics.csv: accuracy")
    _require(math.isclose(float(final["rmse"]), rmse, rel_tol=1e-12), "final_metrics.csv: rmse")

    threshold = float(cfg["output"]["rhat_threshold"])
    rhat = _rows(out / "rhat.csv")
    _require(rhat and all(float(r["r_hat"]) <= threshold for r in rhat), "rhat.csv: r_hat above the threshold")


def check_report(out: Path, table: Table) -> None:
    """report.md bundles the chosen model and the final metrics."""
    text = (out / "report.md").read_text(encoding="utf-8")
    chosen = _lines(out / "chosen_model.txt")[0]
    _require(text.startswith("# Pipeline report\n"), "report.md: missing title")
    _require(f"## Chosen model\n\n```\n{chosen}\n```" in text, "report.md: chosen model missing")
    (final,) = _rows(out / "final_metrics.csv")
    _require(f"| {final['cases']} | {final['correct']} |" in text, "report.md: final metrics missing")


CHECKS = (
    ("select", check_select),
    ("learn", check_learn),
    ("compare", check_compare),
    ("cv", check_cv),
    ("fit-predict", check_fit_predict),
    ("report", check_report),
)


def check_outputs(out: Path, table: Table) -> list[str]:
    """Run every check; return one message per failed check."""
    failures = []
    for phase, check in CHECKS:
        try:
            check(out, table)
        except (CheckFailed, OSError, KeyError, ValueError, IndexError) as exc:
            # a missing or unparsable output file fails its check too
            failures.append(f"{phase}: {type(exc).__name__}: {exc}")
    return failures
