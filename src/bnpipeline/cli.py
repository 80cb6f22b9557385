"""Command-line pipeline: select, learn, compare, cv, fit-predict, report.

Each phase reads the shared config plus the previous phase's files from the
output directory and writes plain CSV/text artifacts, so every step of a
run can be audited or rerun in isolation. All randomness flows from the
configured seed; reruns are byte-identical.

Exit codes: 0 success, 2 configuration error (including an output directory
that cannot be created), 3 data error (including a query over the inference
cost cap, or evidence whose mass underflows to 0), 4 convergence diagnostic
failure (including a monitored parameter whose draws do not vary within a
chain).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from pathlib import Path

import numpy as np

from . import bayesnet, evaluation, infotheory, mcmc, modelselect, structlearn
from .config import ConfigError, PipelineConfig, load_config, write_effective_config
from .dataset import (
    DataError, Dataset, content_lines, load_dataset, make_split, read_schema, store_cache, write_rows, write_split_plan,
)


class DiagnosticFailure(Exception):
    pass


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None
    return path


def _out(cfg: PipelineConfig) -> Path:
    return _make_dir(Path(cfg.out_dir))


def _load_data(cfg: PipelineConfig) -> Dataset:
    """The configured dataset under its schema, read through the cache
    file in the output directory (load_dataset), which this creates: the
    first phase of a run parses the CSV, and the later ones load its
    records and the tables select counted from that one file."""
    schema = read_schema(cfg.schema_path)
    if cfg.target is not None and schema.target != cfg.target:
        raise ConfigError(
            f"config target {cfg.target!r} does not match schema target {schema.target!r}"
        )
    data = load_dataset(cfg.dataset_path, schema, _out(cfg))
    if data.n_records == 0:
        raise DataError(f"{cfg.dataset_path}: no records after the header row")
    return data


def _selected_data(cfg: PipelineConfig, data: Dataset) -> Dataset:
    marker = _out(cfg) / "selected_variables.txt"
    if not marker.is_file():
        return data
    names = [line for _, line in content_lines(marker.read_text(encoding="utf-8"))]
    if tuple(names) == data.schema.names:  # every variable, in schema order: nothing to copy
        return data
    return data.select_variables(names)


# ---------------------------------------------------------------------------
# phase 1: feature selection
# ---------------------------------------------------------------------------

def _best_scores(table: infotheory.ScoreTable, scores) -> dict[str, float]:
    """Each variable's largest score over the rows that name it as x or y;
    0 when none does."""
    best = np.zeros(len(table.names))
    np.maximum.at(best, table.x, scores)
    np.maximum.at(best, table.y, scores)
    return dict(zip(table.names, best.tolist()))


def cmd_select(cfg: PipelineConfig) -> None:
    data = _load_data(cfg)
    unknown = [n for n in cfg.keep if n not in data.schema.names]
    if unknown:
        raise ConfigError(f"[selection] keep names {unknown}, which are not schema variables")
    out = _out(cfg)
    pairwise, triple, delta = infotheory.build_score_tables(data)
    store_cache(data, out)  # every later phase starts with these tables counted
    infotheory.write_score_table(pairwise, out / "score_mi.csv")
    infotheory.write_score_table(triple, out / "score_cmi.csv")
    infotheory.write_score_table(delta, out / "score_delta.csv")
    mi_edges, mi_counts = infotheory.histogram(pairwise.mi_norm, cfg.hist_bins)
    infotheory.write_histogram(mi_edges, mi_counts, out / "hist_mi.csv")
    if len(triple):
        cmi_edges, cmi_counts = infotheory.histogram(triple.cmi_norm, cfg.hist_bins)
    else:
        cmi_edges, cmi_counts = [], []  # two variables: nothing to condition on
    infotheory.write_histogram(cmi_edges, cmi_counts, out / "hist_cmi.csv")

    target = data.schema.target
    best_mi = _best_scores(pairwise, pairwise.mi_norm)
    best_cmi = _best_scores(triple, triple.cmi_norm)

    proposed = [
        n for n in data.schema.names
        if n != target and best_mi[n] < cfg.min_mi and best_cmi[n] < cfg.min_cmi
    ]
    dropped = [n for n in proposed if n not in cfg.keep]
    kept_by_override = [n for n in proposed if n in cfg.keep]
    selected = [n for n in data.schema.names if n not in dropped]

    (out / "selected_variables.txt").write_text(
        "\n".join(selected) + "\n", encoding="utf-8"
    )
    report = [
        f"thresholds: min_mi={cfg.min_mi} min_cmi={cfg.min_cmi}",
        f"proposed drop list: {', '.join(proposed) if proposed else '(none)'}",
        f"dropped: {', '.join(dropped) if dropped else '(none)'}",
        f"kept by config override: {', '.join(kept_by_override) if kept_by_override else '(none)'}",
        "edit [selection] keep in the config to retain a low-scoring variable.",
    ]
    (out / "selection_report.txt").write_text("\n".join(report) + "\n", encoding="utf-8")
    write_effective_config(cfg, out / "effective_config.ini")


# ---------------------------------------------------------------------------
# phase 2: structure learning
# ---------------------------------------------------------------------------

def _covering(dag: bayesnet.Dag, data: Dataset, what: str) -> bayesnet.Dag:
    """dag, if its nodes are exactly the selected variables of data; else a
    DataError naming what, the structure's label or file."""
    if set(dag.nodes) != set(data.schema.names):
        raise DataError(
            f"structure {what} covers {sorted(dag.nodes)} but the selected "
            f"variables are {sorted(data.schema.names)}"
        )
    return dag


def _learn_candidates(cfg: PipelineConfig, data: Dataset) -> list[structlearn.CandidateModel]:
    target = data.schema.target
    constraints = (
        structlearn.read_constraints(cfg.constraints_path) if cfg.constraints_path else None
    )
    orientation = (
        structlearn.read_orientation(cfg.orientation_path) if cfg.orientation_path else None
    )
    candidates = []
    for learner in cfg.learners:
        try:
            if learner == "hc":
                candidates.append(
                    structlearn.hill_climb(data, constraints, cfg.hc_restarts, cfg.seed)
                )
            elif learner == "chowliu":
                candidates.append(structlearn.chow_liu(data, target, orientation))
            elif learner == "tan":
                candidates.append(structlearn.tan(data, target))
            elif learner == "naive":
                candidates.append(structlearn.naive(data, target))
            elif learner == "bd":
                candidates.append(structlearn.bd_learn(data, constraints, cfg.alpha0, cfg.bdeu_ess))
        except (ValueError, structlearn.ConstraintError) as exc:
            raise DataError(f"learner {learner!r} failed: {exc}") from exc
    for label, path in cfg.user_structures:
        dag = _covering(bayesnet.read_structure(path), data, repr(label))
        candidates.append(structlearn.CandidateModel(label, dag, {"algorithm": "user", "path": path}))
    return candidates


def cmd_learn(cfg: PipelineConfig) -> None:
    data = _selected_data(cfg, _load_data(cfg))
    out = _out(cfg)
    candidates = _learn_candidates(cfg, data)
    target = data.schema.target
    reports = [
        bayesnet.sensitivity_report(bayesnet.fit_conjugate(cand.dag, data, cfg.alpha0), target)
        for cand in candidates
    ]
    # every candidate succeeded: write them all, then remove the outputs of
    # an earlier run's other candidates
    structures = _make_dir(out / "structures")
    written = set()
    for cand, report in zip(candidates, reports):
        structure = structures / f"{cand.label}.structure"
        bayesnet.write_structure(cand.dag, structure)
        sensitivity = out / f"sensitivity_{cand.label}.csv"
        write_rows(sensitivity, ["variable", "score"], [(name, repr(score)) for name, score in report])
        written.update([structure, sensitivity])
    for stale in [*structures.glob("*.structure"), *out.glob("sensitivity_*.csv")]:
        if stale not in written:
            stale.unlink()
    write_effective_config(cfg, out / "effective_config.ini")


# ---------------------------------------------------------------------------
# phase 3: Bayes-factor comparison
# ---------------------------------------------------------------------------

def _stored_candidates(cfg: PipelineConfig, data: Dataset) -> list[structlearn.CandidateModel]:
    structures = _out(cfg) / "structures"
    if not structures.is_dir():
        raise ConfigError(f"no structures directory under {cfg.out_dir}; run learn first")
    candidates = []
    for path in sorted(structures.glob("*.structure")):
        dag = _covering(bayesnet.read_structure(path), data, str(path))
        candidates.append(structlearn.CandidateModel(path.stem, dag, {"path": str(path)}))
    if not candidates:
        raise ConfigError(f"no structures found under {structures}; run learn first")
    return candidates


def cmd_compare(cfg: PipelineConfig) -> None:
    data = _selected_data(cfg, _load_data(cfg))
    out = _out(cfg)
    candidates = _stored_candidates(cfg, data)
    if not any(c.label == "naive" for c in candidates):
        bench = structlearn.naive(data, data.schema.target)
        bayesnet.write_structure(bench.dag, out / "structures" / "naive.structure")
        candidates.append(bench)
    if len(candidates) < 2:
        raise ConfigError(
            f"compare needs at least 2 candidate models, found {[c.label for c in candidates]}; "
            "add [learn] learners or user_structures"
        )
    ranking = modelselect.build_ranking(candidates, data, cfg.alpha0, cfg.bdeu_ess)
    modelselect.write_bf_table(ranking.pairwise, out / "bf_pairwise.csv")
    modelselect.write_bf_table(ranking.chain, out / "bf_chain.csv")
    (out / "flagged_models.txt").write_text(
        "".join(f"{label}\n" for label in ranking.below_naive), encoding="utf-8"
    )
    surviving = [label for label, _ in ranking.entries if label not in ranking.below_naive]
    (out / "surviving_models.txt").write_text(
        "\n".join(surviving) + "\n", encoding="utf-8"
    )
    write_effective_config(cfg, out / "effective_config.ini")


# ---------------------------------------------------------------------------
# phase 4a: cross-validation
# ---------------------------------------------------------------------------

def _cv_candidates(cfg: PipelineConfig, data: Dataset) -> list[structlearn.CandidateModel]:
    out = _out(cfg)
    stored = {c.label: c for c in _stored_candidates(cfg, data)}
    surviving = out / "surviving_models.txt"
    if surviving.is_file():
        labels = [line for _, line in content_lines(surviving.read_text(encoding="utf-8"))]
        unknown = [lbl for lbl in labels if lbl not in stored]
        if unknown:
            raise ConfigError(f"surviving models {unknown} have no stored structure; rerun learn/compare")
        return [stored[lbl] for lbl in labels]
    return [stored[lbl] for lbl in sorted(stored)]


def cmd_cv(cfg: PipelineConfig) -> None:
    data = _selected_data(cfg, _load_data(cfg))
    out = _out(cfg)
    candidates = _cv_candidates(cfg, data)
    split = make_split(
        data.n_records, cfg.test_fraction, cfg.fold_count, cfg.fold_fraction, cfg.seed
    )
    write_split_plan(split, out / "split_plan.csv")
    cv = evaluation.cross_validate(
        candidates, data, split, alpha0=cfg.alpha0, literal_rmse=cfg.literal_rmse
    )
    evaluation.write_cv_csv(cv, out / "cv_metrics.csv")
    (out / "chosen_model.txt").write_text(cv.best + "\n", encoding="utf-8")
    write_effective_config(cfg, out / "effective_config.ini")


# ---------------------------------------------------------------------------
# phase 4b: final fit, prediction, diagnostics
# ---------------------------------------------------------------------------

def cmd_fit_predict(cfg: PipelineConfig) -> None:
    data = _selected_data(cfg, _load_data(cfg))
    out = _out(cfg)
    label = cfg.chosen_model
    if label is None:
        chosen = out / "chosen_model.txt"
        if not chosen.is_file():
            raise ConfigError("no chosen model: run cv first or set [predict] model")
        label = chosen.read_text(encoding="utf-8").strip()
    stored = {c.label: c for c in _stored_candidates(cfg, data)}
    if label not in stored:
        raise ConfigError(f"chosen model {label!r} has no stored structure")
    best = stored[label]

    split = make_split(
        data.n_records, cfg.test_fraction, cfg.fold_count, cfg.fold_fraction, cfg.seed
    )
    summary, probs, truths, network = evaluation.final_evaluation(
        best, data, split, alpha0=cfg.alpha0, literal_rmse=cfg.literal_rmse
    )
    target = data.schema.target
    monitor = list(cfg.monitor) if cfg.monitor else [target]
    unknown = [n for n in monitor if n not in network.cpts]
    if unknown:
        raise ConfigError(f"monitor names {unknown} are not nodes of the chosen structure")
    draws = mcmc.sample_parameters(network, cfg.mcmc_config(), monitor)
    rhat = mcmc.gelman_rubin(draws)
    # every check that can fail without writing has passed; an r-hat over
    # the threshold still writes everything, then fails
    traces = _make_dir(out / "traces")
    write_split_plan(split, out / "split_plan.csv")
    bayesnet.write_fitted_network(network, out / "fitted_network.csv")
    mcmc.write_predictions(probs, truths, data.schema.spec(target), out / "predictions.csv")
    evaluation.write_final_metrics(summary, out / "final_metrics.csv")
    mcmc.export_traces(draws, {n: network.cpts[n].posterior for n in draws}, traces)
    write_rows(out / "rhat.csv", ["parameter", "r_hat"], [(name, repr(rhat[name])) for name in sorted(rhat)])
    write_effective_config(cfg, out / "effective_config.ini")
    worst = max(rhat.values())
    if worst > cfg.rhat_threshold:
        raise DiagnosticFailure(
            f"max r_hat {worst:.4f} exceeds threshold {cfg.rhat_threshold}"
        )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _md_table(path: Path, max_rows: int = 10) -> list[str]:
    """Markdown table of a CSV's header and first max_rows records, then a
    count of the records left out (_rows_left), which are not kept."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        body = list(itertools.islice(reader, max_rows))
        more = _rows_left(fh, path, 1 + len(body))
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for row in body:
        lines.append("| " + " | ".join(row) + " |")
    if more:
        filler = [f"... ({more} more rows)"] + [""] * (len(header) - 1)
        lines.append("| " + " | ".join(filler) + " |")
    return lines


def _rows_left(fh, path: Path, read: int) -> int:
    """The records csv.reader would still give from fh, after the first
    read records of path. While the rest holds no quote, CR or NUL, each
    record is one line, so they are its LF count, plus an unterminated last
    line; otherwise csv.reader counts them again from the start of path."""
    lines, last = 0, "\n"
    for chunk in iter(lambda: fh.read(1 << 20), ""):
        if '"' in chunk or "\r" in chunk or "\0" in chunk:
            with open(path, newline="", encoding="utf-8") as again:
                return sum(1 for _ in itertools.islice(csv.reader(again), read, None))
        lines += chunk.count("\n")
        last = chunk[-1]
    return lines + (last != "\n")


def cmd_report(cfg: PipelineConfig) -> None:
    out = _out(cfg)
    sections = [
        ("Feature selection: pairwise scores", "score_mi.csv"),
        ("Feature selection: conditional scores", "score_cmi.csv"),
        ("Feature selection: conditioning gains", "score_delta.csv"),
        ("Model comparison: pairwise log Bayes factors", "bf_pairwise.csv"),
        ("Model comparison: ranking chain", "bf_chain.csv"),
        ("Cross-validation metrics", "cv_metrics.csv"),
        ("Final test metrics", "final_metrics.csv"),
        ("Convergence diagnostics", "rhat.csv"),
    ]
    lines = ["# Pipeline report", ""]
    names = {
        "selection_report.txt": "Selection notes",
        "surviving_models.txt": "Models kept for cross-validation",
        "chosen_model.txt": "Chosen model",
    }
    for fname, title in names.items():
        path = out / fname
        if path.is_file():
            lines.append(f"## {title}")
            lines.append("")
            lines.append("```")
            lines.append(path.read_text(encoding="utf-8").rstrip())
            lines.append("```")
            lines.append("")
    for title, fname in sections:
        path = out / fname
        if not path.is_file():
            continue
        lines.append(f"## {title}")
        lines.append("")
        lines.extend(_md_table(path))
        lines.append("")
    (out / "report.md").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "select": cmd_select,
    "learn": cmd_learn,
    "compare": cmd_compare,
    "cv": cmd_cv,
    "fit-predict": cmd_fit_predict,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bnpipeline",
        description="Bayesian-network decision-support pipeline over categorical data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="pipeline config file")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--seed", type=int, help="override the configured seed")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, out_override=args.out, seed_override=args.seed)
        _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (DiagnosticFailure, mcmc.ConstantChain) as exc:
        print(f"diagnostic failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
