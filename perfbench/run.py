#!/usr/bin/env python3
"""Pipeline benchmark: the six CLI phases on one workload.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout (src/ and data/ beside perfbench/).
The benchmark writes its inputs under perfbench/work/<workload>/, then runs
whole rounds of select, learn, compare, cv, fit-predict and report for as
long as another round fits in --seconds (at least one), and checks every
round's outputs (checks.py).

--trace 0 runs each phase as its own `python -m bnpipeline` process and
reports wall time per phase, the pipeline total, the largest peak RSS of a
phase process, and setup_s, the median wall time of `python -m bnpipeline
--help` (interpreter plus package imports, paid by every phase).

--trace 1 calls the phases in this process through bnpipeline.cli.main,
each phase once untraced and then once traced (tracing.py), and reports
per-module busy times and counts, each phase's self time, import times from
`-X importtime`, and trace.overhead_s, the traced minus the untraced time.
Spans are written to perfbench/work/<workload>/spans.jsonl at the end.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. An operation is one phase call; a failed phase
also fails the phases after it in its round.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from checks import check_outputs
from oracles import read_table

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PHASES = ("select", "learn", "compare", "cv", "fit-predict", "report")
PHASE_METRICS = {
    "select": "select_s",
    "learn": "learn_s",
    "compare": "compare_s",
    "cv": "cv_s",
    "fit-predict": "fit_predict_s",
}
IMPORTTIME_REPEATS = 3


def _phase_argv(phase: str, inputs, out: Path, seed: int) -> list[str]:
    return [phase, "--config", str(inputs.config), "--out", str(out), "--seed", str(seed)]


class Rounds:
    """Runs whole rounds while one more of average length fits in the time."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []

    def __iter__(self):
        start = perf_counter()
        count = 0
        while count == 0 or (perf_counter() - start) * (count + 1) / count <= self.seconds:
            yield count
            count += 1

    def record(self, phase_ok: list[bool], out: Path, table) -> bool:
        """Count one round's phase calls; check its outputs if every call succeeded."""
        self.attempted += len(phase_ok)
        self.failed += len(phase_ok) - sum(phase_ok)
        if not all(phase_ok):
            return False
        failures = check_outputs(out, table)
        for failure in failures:
            print(f"check failed: {failure}", file=sys.stderr)
        self.check_failures += failures
        return True


def _spawn(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one child process."""
    with open(log, "ab") as err:
        began = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def timed_run(inputs, table, seed: int, seconds: float, work: Path) -> tuple[Rounds, dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    log = work / "phases.log"
    help_argv = [sys.executable, "-m", "bnpipeline", "--help"]
    setup = []

    def sample_setup() -> None:
        wall, _, code = _spawn(help_argv, env, log)
        if code != 0:
            raise RuntimeError(f"`bnpipeline --help` exited {code}; see {log}")
        setup.append(wall)

    sample_setup()
    setup.clear()  # the first start-up writes the bytecode caches that later ones reuse
    sample_setup()
    out = work / "out"
    rounds = Rounds(seconds)
    samples: dict[str, list[float]] = {name: [] for name in (*PHASE_METRICS.values(), "pipeline_s", "peak_rss_mb")}
    for _ in rounds:
        sample_setup()  # one per round, so the samples spread over the run like the phases'
        shutil.rmtree(out, ignore_errors=True)
        walls, peaks, ok = {}, [], []
        for phase in PHASES:
            if ok and not ok[-1]:
                ok.append(False)
                continue
            argv = [sys.executable, "-m", "bnpipeline", *_phase_argv(phase, inputs, out, seed)]
            walls[phase], peak, code = _spawn(argv, env, log)
            peaks.append(peak)
            ok.append(code == 0)
            if code != 0:
                print(f"{phase} exited {code}; see {log}", file=sys.stderr)
        print("round: " + " ".join(f"{phase} {wall:.3f}s" for phase, wall in walls.items()), file=sys.stderr)
        if rounds.record(ok, out, table):
            for phase, name in PHASE_METRICS.items():
                samples[name].append(walls[phase])
            samples["pipeline_s"].append(sum(walls.values()))
            samples["peak_rss_mb"].append(max(peaks))
    if not samples["pipeline_s"]:
        raise RuntimeError("no round ran every phase")
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for name, values in samples.items():
        metrics[name] = (statistics.median(values), "MB" if name == "peak_rss_mb" else "s")
    return rounds, metrics


def _call(main, argv: list[str]) -> tuple[float, bool]:
    """Wall seconds of one in-process phase call, and whether it succeeded."""
    began = perf_counter()
    try:
        code = main(argv)
    except Exception:  # an uncaught error fails the phase, as it would its own process
        traceback.print_exc()
        code = 1
    return perf_counter() - began, code == 0


def traced_run(inputs, table, seed: int, seconds: float, work: Path) -> tuple[Rounds, dict]:
    from bnpipeline.cli import main

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    importtime_argv = [sys.executable, "-X", "importtime", "-m", "bnpipeline", "--help"]
    imports = [tracing.import_times(importtime_argv, env) for _ in range(IMPORTTIME_REPEATS)]

    out = work / "out"
    rounds = Rounds(seconds)
    overheads, layers, spans = [], [], []
    for number in rounds:
        shutil.rmtree(out, ignore_errors=True)
        tracer = tracing.Tracer()
        overhead, ok = 0.0, []
        for phase in PHASES:
            if ok and not all(ok[-2:]):
                ok += [False, False]
                continue
            # each phase runs untraced, then traced on the same inputs: the two
            # calls sit next to each other in time, so drift in the machine's
            # speed mostly cancels from their difference
            argv = _phase_argv(phase, inputs, out, seed)
            plain, plain_ok = _call(main, argv)
            with tracer:
                traced, traced_ok = _call(main, argv)
            ok += [plain_ok, traced_ok]
            overhead += traced - plain
        if rounds.record(ok, out, table):
            overheads.append(overhead)
            layers.append(tracer.metrics())
            spans += [[number, *span] for span in tracer.spans]
    if not layers:
        raise RuntimeError("no traced round ran every phase")

    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(("round", "name", "start", "end", "parent"), span))) + "\n")
    metrics = {name: (statistics.median(run[name] for run in imports), "s") for name in imports[0]}
    for name, (_, unit) in layers[0].items():
        values = [run[name][0] for run in layers]
        if unit != "s" and len(set(values)) != 1:
            rounds.check_failures.append(f"{name} differs between traced rounds: {values}")
        metrics[name] = (statistics.median(values), unit)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return rounds, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced-size inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/bnpipeline/cli.py", "data/pipeline.ini") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # configs name their files relative to the checkout root
    work = BENCH / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workloads.prepare(args.workload, args.seed, work, small=args.small)
    table = read_table(inputs.dataset, inputs.schema)

    run = traced_run if args.trace else timed_run
    rounds, metrics = run(inputs, table, args.seed, args.seconds, work)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not rounds.check_failures,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
