"""Every output check passes on a real run and fails on a perturbed file."""

import csv
import shutil

import pytest

import checks
import oracles
import workloads
from bnpipeline.cli import main

PHASES = ("select", "learn", "compare", "cv", "fit-predict", "report")


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One reduced-size pipeline run: its inputs, output directory and records."""
    work = tmp_path_factory.mktemp("work")
    inputs = workloads.prepare("demo", seed=3, work=work, small=True)
    out = work / "out"
    for phase in PHASES:
        assert main([phase, "--config", str(inputs.config), "--out", str(out), "--seed", "3"]) == 0
    return out, oracles.read_table(inputs.dataset, inputs.schema)


def _edit_csv(path, row, column, change):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows[row][column] = change(rows[row][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _scale(factor):
    return lambda value: repr(float(value) * factor)


def _shift_prediction(path):
    """Move 20 points of one record's distribution between two states and
    rewrite its mean and mode to match, so only the posterior check can tell."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = rows[0]
    states = [k[len("state_") :] for k in row if k.startswith("state_")]
    pct = [float(row[f"state_{s}"]) for s in states]
    high = max(range(len(pct)), key=pct.__getitem__)
    low = min(range(len(pct)), key=pct.__getitem__)
    pct[high] -= 20.0
    pct[low] += 20.0
    for s, p in zip(states, pct):
        row[f"state_{s}"] = f"{p:.2f}"
    row["mean"] = f"{sum(p * float(s) for p, s in zip(pct, states)) / 100:.4f}"
    row["predicted"] = states[max(range(len(pct)), key=pct.__getitem__)]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _other_model(out):
    chosen = (out / "chosen_model.txt").read_text().strip()
    surviving = (out / "surviving_models.txt").read_text().split()
    (out / "chosen_model.txt").write_text(next(m for m in surviving if m != chosen) + "\n")


# name -> (check, perturbation of a copied output directory, expected message)
PERTURBATIONS = {
    "score_mi": (
        checks.check_select,
        lambda out: _edit_csv(out / "score_mi.csv", 0, "mi_norm", _scale(1.001)),
        "score_mi.csv",
    ),
    "sensitivity": (
        checks.check_learn,
        lambda out: _edit_csv(out / "sensitivity_naive.csv", 0, "score", _scale(1.001)),
        "sensitivity_naive.csv",
    ),
    "sensitivity_bound": (
        checks.check_learn,
        lambda out: _edit_csv(out / "sensitivity_hc.csv", -1, "score", lambda v: "-1e-6"),
        "sensitivity_hc.csv",
    ),
    "bf_pairwise": (
        checks.check_compare,
        lambda out: _edit_csv(out / "bf_pairwise.csv", 0, "log_bf", lambda v: repr(float(v) + 0.5)),
        "bf_pairwise.csv",
    ),
    "bf_chain": (
        checks.check_compare,
        lambda out: _edit_csv(out / "bf_chain.csv", -1, "log_bf", lambda v: repr(float(v) + 0.5)),
        "bf_chain.csv",
    ),
    "flagged": (
        checks.check_compare,
        lambda out: (out / "flagged_models.txt").write_text("truth\n"),
        "flagged_models.txt",
    ),
    "cv_mean": (
        checks.check_cv,
        lambda out: _edit_csv(out / "cv_metrics.csv", -1, "rmse", lambda v: repr(float(v) + 1e-6)),
        "mean rmse",
    ),
    "cv_fold": (
        checks.check_cv,
        lambda out: _edit_csv(out / "cv_metrics.csv", 0, "correct", lambda v: str(int(v) - 1)),
        "accuracy",
    ),
    "chosen_model": (checks.check_cv, _other_model, "chosen_model.txt"),
    "split_plan": (
        checks.check_cv,
        lambda out: _edit_csv(out / "split_plan.csv", 0, "assignment", lambda v: "train_only" if v == "test" else "test"),
        "split_plan.csv",
    ),
    "fitted_network": (
        checks.check_fit_predict,
        lambda out: _edit_csv(out / "fitted_network.csv", 0, "alpha_posterior", lambda v: repr(float(v) + 1.0)),
        "fitted_network.csv",
    ),
    "prediction_sum": (
        checks.check_fit_predict,
        lambda out: _edit_csv(out / "predictions.csv", 0, "state_1", lambda v: f"{float(v) + 1:.2f}"),
        "sums to",
    ),
    "prediction_posterior": (
        checks.check_fit_predict,
        lambda out: _shift_prediction(out / "predictions.csv"),
        "exact posterior",
    ),
    "final_metrics": (
        checks.check_fit_predict,
        lambda out: _edit_csv(out / "final_metrics.csv", 0, "correct", lambda v: str(int(v) + 1)),
        "final_metrics.csv: correct",
    ),
    "rhat": (
        checks.check_fit_predict,
        lambda out: _edit_csv(out / "rhat.csv", 0, "r_hat", lambda v: "1.5"),
        "rhat.csv",
    ),
    "report": (
        checks.check_report,
        lambda out: (out / "report.md").write_text((out / "report.md").read_text().replace("## Chosen model", "")),
        "chosen model missing",
    ),
}


def test_every_check_passes_on_a_real_run(run):
    out, table = run
    assert checks.check_outputs(out, table) == []


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_check_catches_perturbed_file(run, tmp_path, name):
    out, table = run
    check, perturb, message = PERTURBATIONS[name]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    check(copy, table)
    perturb(copy)
    with pytest.raises(checks.CheckFailed, match=message):
        check(copy, table)


def test_missing_output_is_a_failure(run, tmp_path):
    out, table = run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / "bf_chain.csv").unlink()
    assert [f.split(":")[0] for f in checks.check_outputs(copy, table)] == ["compare"]
