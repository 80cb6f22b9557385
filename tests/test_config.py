"""The config file format: each key's section, name, kind and default.

The pinned texts are dump_config's output for the demo config, for a config
of only the required keys (so every default), and for a config that sets
every key to a value other than its default. A change to any key's
spelling, parsing, formatting, default or order changes one of them.
"""

import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from bnpipeline.config import PipelineConfig, dump_config, parse_config_text

ROOT = Path(__file__).resolve().parents[1]

# every key set to a value other than its default, written as dump_config writes it
EVERY_KEY = """\
[data]
dataset = d.csv
schema = d.schema
target = EVAL

[selection]
min_mi = 0.25
min_cmi = 0.125
keep = F1, F2
hist_bins = 7

[learn]
learners = hc, bd
constraints = c.txt
chowliu_orientation = o.txt
hc_restarts = 5
user_structures = truth=t.structure, alt=a.structure

[model]
alpha0 = 0.5
bdeu_ess = 4.0

[split]
seed = 9
test_fraction = 0.2
fold_count = 4
fold_fraction = 0.1

[mcmc]
chains = 2
adapt_iters = 10
burnin_iters = 20
sample_iters = 300
thin = 3
monitor = EVAL, F1

[predict]
mode = exact
cv_mode = mcmc
literal_rmse = true
model = truth

[output]
dir = elsewhere
rhat_threshold = 1.05
"""

EVERY_KEY_CONFIG = PipelineConfig(
    dataset_path="d.csv",
    schema_path="d.schema",
    target="EVAL",
    min_mi=0.25,
    min_cmi=0.125,
    keep=("F1", "F2"),
    hist_bins=7,
    learners=("hc", "bd"),
    constraints_path="c.txt",
    orientation_path="o.txt",
    hc_restarts=5,
    user_structures=(("truth", "t.structure"), ("alt", "a.structure")),
    alpha0=0.5,
    bdeu_ess=4.0,
    seed=9,
    test_fraction=0.2,
    fold_count=4,
    fold_fraction=0.1,
    chains=2,
    adapt_iters=10,
    burnin_iters=20,
    sample_iters=300,
    thin=3,
    monitor=("EVAL", "F1"),
    predict_mode="exact",
    cv_mode="mcmc",
    literal_rmse=True,
    chosen_model="truth",
    out_dir="elsewhere",
    rhat_threshold=1.05,
)

# dump_config of data/pipeline.ini; a key with no value keeps its trailing space
DEMO_DUMP = "\n".join([
    "[data]", "dataset = data/synthetic.csv", "schema = data/synthetic.schema", "target = ", "",
    "[selection]", "min_mi = 0.002", "min_cmi = 0.002", "keep = ", "hist_bins = 20", "",
    "[learn]", "learners = hc, chowliu, tan, naive", "constraints = ", "chowliu_orientation = ",
    "hc_restarts = 0", "user_structures = truth=data/truth.structure, alt=data/alt.structure", "",
    "[model]", "alpha0 = 1.0", "bdeu_ess = ", "",
    "[split]", "seed = 7", "test_fraction = 0.15", "fold_count = 10", "fold_fraction = 0.08", "",
    "[mcmc]", "chains = 3", "adapt_iters = 500", "burnin_iters = 500", "sample_iters = 2000",
    "thin = 1", "monitor = ", "",
    "[predict]", "mode = mcmc", "cv_mode = exact", "literal_rmse = false", "model = ", "",
    "[output]", "dir = out", "rhat_threshold = 1.1",
]) + "\n"

REQUIRED = {("data", "dataset"): "base.csv", ("data", "schema"): "base.schema", ("split", "seed"): "1"}

# dump_config of REQUIRED alone: every default
DEFAULTS_DUMP = "\n".join([
    "[data]", "dataset = base.csv", "schema = base.schema", "target = ", "",
    "[selection]", "min_mi = 0.0", "min_cmi = 0.0", "keep = ", "hist_bins = 20", "",
    "[learn]", "learners = chowliu, tan, naive", "constraints = ", "chowliu_orientation = ",
    "hc_restarts = 0", "user_structures = ", "",
    "[model]", "alpha0 = 1.0", "bdeu_ess = ", "",
    "[split]", "seed = 1", "test_fraction = 0.15", "fold_count = 10", "fold_fraction = 0.08", "",
    "[mcmc]", "chains = 3", "adapt_iters = 1000", "burnin_iters = 1000", "sample_iters = 10000",
    "thin = 1", "monitor = ", "",
    "[predict]", "mode = mcmc", "cv_mode = exact", "literal_rmse = false", "model = ", "",
    "[output]", "dir = out", "rhat_threshold = 1.1",
]) + "\n"


def entries(text):
    """(section, key) -> raw value of each key line of a dumped config."""
    out, section = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            key, raw = line.split(" = ", 1)
            out[(section, key)] = raw
    return out


def render(values):
    """A config text from (section, key) -> raw value."""
    sections = {}
    for (section, key), raw in values.items():
        sections.setdefault(section, []).append(f"{key} = {raw}\n")
    return "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())


def test_every_key_parses_to_its_value_and_dumps_back():
    cfg = parse_config_text(EVERY_KEY)
    assert cfg == EVERY_KEY_CONFIG
    for f in fields(PipelineConfig):
        if f.default is not MISSING:
            assert getattr(cfg, f.name) != f.default, f.name
    assert dump_config(cfg) == EVERY_KEY


def test_the_thirty_keys_are_the_fields():
    declared = [(f.metadata["section"], f.metadata["key"]) for f in fields(PipelineConfig)]
    assert declared == list(entries(EVERY_KEY))
    assert len(declared) == 30
    required = [key for key, f in zip(declared, fields(PipelineConfig)) if f.default is MISSING]
    assert set(required) == set(REQUIRED)


def test_demo_and_defaults_dump_to_pinned_text():
    demo = parse_config_text((ROOT / "data" / "pipeline.ini").read_text(encoding="utf-8"))
    assert dump_config(demo) == DEMO_DUMP
    assert dump_config(parse_config_text(render(REQUIRED))) == DEFAULTS_DUMP


@pytest.mark.parametrize("key", list(entries(EVERY_KEY)), ids=lambda k: f"{k[0]}.{k[1]}")
def test_each_key_sets_exactly_its_attribute(key):
    base = parse_config_text(render(REQUIRED))
    cfg = parse_config_text(render({**REQUIRED, key: entries(EVERY_KEY)[key]}))
    changed = [f.name for f in fields(cfg) if getattr(cfg, f.name) != getattr(base, f.name)]
    assert len(changed) == 1, changed
    assert getattr(cfg, changed[0]) == getattr(EVERY_KEY_CONFIG, changed[0])


def test_readme_documents_every_key():
    # each key appears, in backquotes, in its section's bullet of README's
    # Configuration section, such as `[split] seed / test_fraction`; the
    # schema's `[target]` marker does not count for the target key
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    configuration = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    quoted: dict[str, list[str]] = {}
    for bullet in configuration.split("\n- ")[1:]:
        head = re.match(r"`\[(\w+)\]", bullet)
        if head:
            quoted.setdefault(head.group(1), []).extend(re.findall(r"`([^`]*)`", bullet))
    undocumented = []
    for f in fields(PipelineConfig):
        section, key = f.metadata["section"], f.metadata["key"]
        spans = " ".join(quoted.get(section, []))
        if not re.search(rf"(?<![\w\[]){key}(?![\w\]])", spans):
            undocumented.append(f"[{section}] {key}")
    assert not undocumented
