"""Per-module spans and counts for the traced in-process run.

The tracer wraps every public function of the package's layer modules and
patches each name wherever a module of the package binds it: a function
imported with `from .bayesnet import fit_conjugate` is a separate name in
evaluation, so patching bayesnet alone would miss that call. No file under
src/ changes, and restore() puts every original back.

Spans are (name, start, end, parent) with parent the index of the enclosing
span or -1. They stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import subprocess
import sys
import types
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("dataset", "infotheory", "bayesnet", "structlearn", "modelselect", "mcmc", "evaluation")
PHASE_SPANS = {
    "select": "cli.select",
    "learn": "cli.learn",
    "compare": "cli.compare",
    "cv": "cli.cv",
    "fit-predict": "cli.fit_predict",
    "report": "cli.report",
}

# busy time of these spans, reported as <name>_s
BUSY = (
    "dataset.ingest_csv",
    "dataset.contingency_table",
    "infotheory.build_score_tables",
    "structlearn.hill_climb",
    "structlearn.chow_liu",
    "structlearn.tan",
    "modelselect.build_ranking",
    "bayesnet.family_counts",
    "bayesnet.fit_conjugate",
    "bayesnet.sensitivity_report",
    "bayesnet.joint_query",
    "mcmc.posterior_predict",
    "mcmc.sample_parameters",
    "mcmc.gelman_rubin",
    "mcmc.export_traces",
    "evaluation.cross_validate",
    "evaluation.final_evaluation",
)

# work counted at the layer boundaries, with its unit
COUNTS = {
    "dataset.ingest_csv.calls": "count",
    "dataset.ingest_csv.rows": "rows",
    "dataset.contingency_table.calls": "count",
    "structlearn.local_bic.calls": "count",
    "modelselect.local_log_marginal_likelihood.calls": "count",
    "bayesnet.family_counts.calls": "count",
    "bayesnet.family_counts.rows": "rows",
    "bayesnet.fit_conjugate.calls": "count",
    "bayesnet.sensitivity_report.calls": "count",
    "bayesnet.sensitivity_report.cells": "cells",
    "bayesnet.joint_query.calls": "count",
    "mcmc.posterior_predict.records": "records",
    "mcmc.dirichlet_rows_drawn": "rows",
    "mcmc.dirichlet_rows_kept": "rows",
    "mcmc.export_traces.bytes": "bytes",
}


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _tally_cells(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    network = _arg(args, kwargs, 0, "network")
    counts["bayesnet.sensitivity_report.cells"] += int(
        np.prod([network.schema.cardinality(n) for n in network.dag.nodes])
    )


# extra counts taken from a call's arguments or result: span name -> tally
TALLIES = {
    "dataset.ingest_csv": lambda c, a, k, r: c.update({"dataset.ingest_csv.rows": r.n_records}),
    "bayesnet.family_counts": lambda c, a, k, r: c.update(
        {"bayesnet.family_counts.rows": _arg(a, k, 0, "data").n_records}
    ),
    "bayesnet.sensitivity_report": _tally_cells,
    "mcmc.posterior_predict": lambda c, a, k, r: c.update(
        {"mcmc.posterior_predict.records": len(_arg(a, k, 1, "evidence_records"))}
    ),
    "mcmc.export_traces": lambda c, a, k, r: c.update(
        {"mcmc.export_traces.bytes": sum(p.stat().st_size for p in r)}
    ),
    # _draw_chain holds the package's Dirichlet calls; its arrays are the
    # rows left after burn-in and thinning, (kept, configs, states) per node
    "mcmc._draw_chain": lambda c, a, k, r: c.update(
        {"mcmc.dirichlet_rows_kept": sum(arr.shape[0] * arr.shape[1] for arr in r.values())}
    ),
}


class _CountingGenerator:
    """numpy Generator that counts the rows each dirichlet() call draws."""

    def __init__(self, rng: np.random.Generator, counts: Counter):
        self._rng = rng
        self._counts = counts

    def __getattr__(self, name: str):
        return getattr(self._rng, name)

    def dirichlet(self, alpha, size=None):
        self._counts["mcmc.dirichlet_rows_drawn"] += 1 if size is None else int(np.prod(size))
        return self._rng.dirichlet(alpha, size)


def _counting_numpy(counts: Counter) -> types.ModuleType:
    """Copy of the numpy module whose random.default_rng counts Dirichlet rows."""
    random = types.ModuleType("numpy.random")
    random.__dict__.update(vars(np.random))
    random.default_rng = lambda *a, **k: _CountingGenerator(np.random.default_rng(*a, **k), counts)
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(vars(np))
    proxy.random = random
    return proxy


class Tracer:
    """Spans and counts of the package calls made while installed (a context manager)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple[dict, str, object]] = []

    def wrap(self, name: str, fn):
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            self.counts[name + ".calls"] += 1
            if tally is not None:
                tally(self.counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, namespace: dict, key: str, value) -> None:
        self._undo.append((namespace, key, namespace[key]))
        namespace[key] = value

    def install(self) -> None:
        cli = importlib.import_module("bnpipeline.cli")
        wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"bnpipeline.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        mcmc = sys.modules["bnpipeline.mcmc"]
        wrappers[id(mcmc._draw_chain)] = self.wrap("mcmc._draw_chain", mcmc._draw_chain)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("bnpipeline."):
                namespace = vars(module)
                for key, obj in list(namespace.items()):
                    if id(obj) in wrappers:
                        self._patch(namespace, key, wrappers[id(obj)])
        for phase, span in PHASE_SPANS.items():
            self._patch(cli._COMMANDS, phase, self.wrap(span, cli._COMMANDS[phase]))
        self._patch(vars(mcmc), "np", _counting_numpy(self.counts))

    def restore(self) -> None:
        while self._undo:
            namespace, key, original = self._undo.pop()
            namespace[key] = original

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Busy time per BUSY span, self time per phase, and every count."""
        busy = Counter()
        covered_by_children = Counter()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered_by_children[parent] += end - start
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:  # outermost span of its name: no time counted twice
                busy[name] += end - start
        out: dict[str, tuple[float, str]] = {f"{name}_s": (busy[name], "s") for name in BUSY}
        own = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            if name.startswith("cli."):
                own[name] += (end - start) - covered_by_children[index]
        for span in PHASE_SPANS.values():
            out[f"{span}.self_s"] = (own[span], "s")
        for name, unit in COUNTS.items():
            out[name] = (self.counts[name], unit)
        return out


def import_times(argv: list[str], env: dict) -> dict[str, float]:
    """Cumulative import seconds of bnpipeline.cli and bnpipeline.modelselect,
    from `-X importtime` in a fresh interpreter."""
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    return {
        "cli.import_s": cumulative["bnpipeline.cli"],
        "modelselect.import_s": cumulative["bnpipeline.modelselect"],
    }
