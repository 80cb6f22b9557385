"""Workload inputs: each is made from the seed given on the command line.

demo     the bundled data/ inputs and data/pipeline.ini as shipped; the seed
         is the pipeline seed (split and Monte-Carlo streams).
tall     100,000 records sampled by simulate.sample_dataset from
         simulate.benchmark_network with the seed, run with the demo's
         learners and user structures; test set and folds keep the demo's
         record counts (150 and 10 x 80), and fit-predict uses the truth
         structure rather than the cross-validation winner.
mcmc_cv  the demo inputs with [predict] cv_mode = mcmc.

small=True swaps every workload's data for a five-variable sample of a few
hundred records and shortens the chains, for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIG = Path("data/pipeline.ini")
WORKLOADS = ("demo", "tall", "mcmc_cv")
TALL_RECORDS = 100_000


@dataclass(frozen=True)
class Inputs:
    config: Path  # relative paths in the config are from ROOT, where every phase runs
    dataset: Path
    schema: Path


def derive_config(base: str, overrides: dict[tuple[str, str], str]) -> str:
    """Copy of a config text with overrides applied: the line of an existing
    (section, key) is replaced, and a new key goes at the end of its section."""
    lines, section, section_end = [], None, {}
    pending = dict(overrides)
    for line in base.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
        elif "=" in stripped:
            key = stripped.split("=", 1)[0].strip()
            if (section, key) in pending:
                line = f"{key} = {pending.pop((section, key))}"
        lines.append(line)
        if section is not None and stripped:
            section_end[section] = len(lines)
    unknown = {sec for sec, _ in pending} - set(section_end)
    if unknown:
        raise ValueError(f"base config lacks sections {sorted(unknown)}")
    # insert from the bottom up so that the recorded section ends stay valid
    for (sec, key), value in sorted(pending.items(), key=lambda kv: -section_end[kv[0][0]]):
        lines.insert(section_end[sec], f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _sample(work: Path, seed: int, n_records: int, n_vars: int) -> dict[tuple[str, str], str]:
    """Sample records from the first n_vars variables of the demo's ground
    truth; write the CSV, schema and the truth/alt structures under work."""
    from bnpipeline.bayesnet import Dag, write_structure
    from bnpipeline.dataset import write_csv, write_schema
    from bnpipeline.simulate import benchmark_alternative, benchmark_network, sample_dataset

    dag, schema, tables = benchmark_network()
    names = schema.names[:n_vars]  # the network is a tree rooted at the first name
    dag = Dag(names, tuple(e for e in dag.edges if e[0] in names and e[1] in names))
    schema = schema.restrict(names)
    data = sample_dataset(dag, schema, tables, n_records, seed=seed)
    write_csv(data, work / "data.csv")
    write_schema(schema, work / "data.schema")
    write_structure(dag, work / "truth.structure")
    write_structure(benchmark_alternative(dag), work / "alt.structure")
    return {
        ("data", "dataset"): f"{work}/data.csv",
        ("data", "schema"): f"{work}/data.schema",
        ("learn", "user_structures"): f"truth={work}/truth.structure, alt={work}/alt.structure",
    }


def prepare(workload: str, seed: int, work: Path, small: bool = False) -> Inputs:
    """Write the workload's inputs under work, an absolute directory."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    records = TALL_RECORDS if workload == "tall" else None  # None: the bundled demo data
    if small:
        records = 4000 if workload == "tall" else 400
    overrides: dict[tuple[str, str], str] = {}
    if records is not None:
        overrides.update(_sample(work, seed, records, n_vars=5 if small else 10))
    if small:
        overrides[("mcmc", "adapt_iters")] = "20"
        overrides[("mcmc", "burnin_iters")] = "20"
        overrides[("mcmc", "sample_iters")] = "300"
    if workload == "tall":
        # keep the demo's 150 test records and 10 folds of 80
        overrides[("split", "test_fraction")] = repr(150 / records)
        overrides[("split", "fold_fraction")] = repr(80 / records)
        # On 100,000 records truth, chowliu and hc are near-equal, and 80-record
        # folds pick among them (and TAN) by chance. TAN's 226 CPT rows next to
        # the target make Monte-Carlo prediction cost ~1 s more than truth's 16,
        # so fit-predict uses the truth structure and its time does not depend
        # on which model the seed's folds happened to favour.
        overrides[("predict", "model")] = "truth"
    if workload == "mcmc_cv":
        overrides[("predict", "cv_mode")] = "mcmc"
    config = ROOT / DEMO_CONFIG
    if overrides:
        config = work / "pipeline.ini"
        config.write_text(derive_config((ROOT / DEMO_CONFIG).read_text(encoding="utf-8"), overrides), encoding="utf-8")
    dataset = overrides.get(("data", "dataset"), "data/synthetic.csv")
    schema = overrides.get(("data", "schema"), "data/synthetic.schema")
    return Inputs(config, ROOT / dataset, ROOT / schema)
