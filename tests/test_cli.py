import csv
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bnpipeline
from bnpipeline import bayesnet, dataset
from bnpipeline.bayesnet import Dag, read_structure, write_structure
from bnpipeline.cli import _md_table, main
from bnpipeline.config import ConfigError, dump_config, load_config, parse_config_text
from bnpipeline.dataset import Dataset, Schema, VariableSpec, make_split, write_csv, write_schema
from bnpipeline.simulate import sample_dataset
from test_bayesnet import five_state_chain

DEMO = Path(__file__).resolve().parents[1] / "data"

CONFIG = """\
[data]
dataset = tiny.csv
schema = tiny.schema

[selection]
min_mi = {min_mi}
min_cmi = {min_cmi}
keep = {keep}

[learn]
learners = hc, chowliu, tan, naive, bd
user_structures = truth=truth.structure

[split]
seed = 5
test_fraction = 0.15
fold_count = 4
fold_fraction = 0.1

[mcmc]
chains = 2
adapt_iters = 50
burnin_iters = 50
sample_iters = 300

[predict]
mode = mcmc
cv_mode = exact

[output]
dir = out
rhat_threshold = {rhat}
"""


def tiny_problem():
    """Four linked 3-state variables plus one independent noise column."""
    specs = [VariableSpec("T", ("1", "2", "3"), "target")]
    specs += [VariableSpec(n, ("1", "2", "3")) for n in ("P", "Q", "R", "NOISE")]
    schema = Schema(tuple(specs))
    linked = schema.restrict(["T", "P", "Q", "R"])
    dag = Dag(linked.names, (("T", "P"), ("T", "Q"), ("Q", "R")))
    channel = np.array([
        [0.8, 0.1, 0.1],
        [0.1, 0.8, 0.1],
        [0.1, 0.1, 0.8],
    ])
    tables = {"T": np.array([[0.4, 0.35, 0.25]]), "P": channel, "Q": channel, "R": channel}
    core = sample_dataset(dag, linked, tables, 240, seed=8)
    rng = np.random.default_rng(9)
    records = np.column_stack([core.records, rng.integers(0, 3, 240)])
    return dag, Dataset(schema, records)


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    dag, data = tiny_problem()
    write_csv(data, tmp_path / "tiny.csv")
    write_schema(data.schema, tmp_path / "tiny.schema")
    write_structure(dag, tmp_path / "truth.structure")
    (tmp_path / "pipeline.ini").write_text(
        CONFIG.format(min_mi=0.05, min_cmi=0.08, keep="", rhat="1.1"), encoding="utf-8"
    )
    return tmp_path


def run(*args):
    return main(list(args))


class TestConfigFile:
    def test_round_trip(self, workspace):
        cfg = load_config("pipeline.ini")
        text = dump_config(cfg)
        again = parse_config_text(text)
        assert again == cfg

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[data]\ndataset = a\nschema = b\nbogus = 1\n[split]\nseed = 1\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("dataset = a\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config_text("[data]\ndataset = a\nschema = b\n")

    def test_bad_learner(self):
        text = "[data]\ndataset = a\nschema = b\n[split]\nseed = 1\n[learn]\nlearners = pc\n"
        with pytest.raises(ConfigError, match="unknown learner"):
            parse_config_text(text)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[split]\nseed = 1\nseed = 2\n")

    def test_overrides(self, workspace):
        cfg = load_config("pipeline.ini", out_override="elsewhere", seed_override=99)
        assert cfg.out_dir == "elsewhere"
        assert cfg.seed == 99


class TestPipelinePhases:
    def test_full_sequence(self, workspace):
        for cmd in ("select", "learn", "compare", "cv", "fit-predict", "report"):
            assert run(cmd, "--config", "pipeline.ini") == 0

        out = workspace / "out"
        ' selection drops the independent noise column '
        selected = (out / "selected_variables.txt").read_text().split()
        assert "NOISE" not in selected
        assert set(selected) == {"T", "P", "Q", "R"}
        assert "NOISE" in (out / "selection_report.txt").read_text()

        for name in (
            "score_mi.csv", "score_cmi.csv", "score_delta.csv", "hist_mi.csv", "hist_cmi.csv",
            "bf_pairwise.csv", "bf_chain.csv", "surviving_models.txt",
            "cv_metrics.csv", "chosen_model.txt", "split_plan.csv",
            "fitted_network.csv", "predictions.csv", "final_metrics.csv", "rhat.csv",
            "report.md", "effective_config.ini",
        ):
            assert (out / name).is_file(), name

        # every structure file loads back into a valid DAG over the selection
        for path in sorted((out / "structures").glob("*.structure")):
            dag = read_structure(path)
            assert set(dag.nodes) == set(selected)
        labels = {p.stem for p in (out / "structures").glob("*.structure")}
        assert {"hc", "chowliu", "tan", "naive", "bd", "truth"} <= labels
        for label in labels:
            assert (out / f"sensitivity_{label}.csv").is_file()

        # user structure passes through as the canonical rewrite
        truth = read_structure(workspace / "truth.structure")
        stored = read_structure(out / "structures" / "truth.structure")
        assert set(stored.edges) == set(truth.edges)

        # prediction rows match the held-out test set: 15% of 240
        pred_lines = (out / "predictions.csv").read_text().splitlines()
        assert len(pred_lines) == 1 + 36

        rhat_lines = (out / "rhat.csv").read_text().splitlines()
        assert rhat_lines[0] == "parameter,r_hat"
        assert len(rhat_lines) == 1 + 3  # a 3-state root target

        report = (out / "report.md").read_text()
        assert "Cross-validation metrics" in report
        assert "Chosen model" in report

    def test_keep_override_retains_variable(self, workspace):
        (workspace / "keep.ini").write_text(
            CONFIG.format(min_mi=0.05, min_cmi=0.08, keep="NOISE", rhat="1.1")
            .replace("truth=truth.structure", ""),
            encoding="utf-8",
        )
        assert run("select", "--config", "keep.ini") == 0
        selected = (workspace / "out" / "selected_variables.txt").read_text().split()
        assert "NOISE" in selected

    def test_select_handles_two_variable_schema(self, workspace, tmp_path):
        schema = Schema((
            VariableSpec("T", ("1", "2"), "target"),
            VariableSpec("P", ("1", "2")),
        ))
        rng = np.random.default_rng(0)
        write_csv(Dataset(schema, rng.integers(0, 2, size=(40, 2))), workspace / "two.csv")
        write_schema(schema, workspace / "two.schema")
        cfg = (workspace / "pipeline.ini").read_text().replace(
            "dataset = tiny.csv", "dataset = two.csv"
        ).replace("schema = tiny.schema", "schema = two.schema")
        (workspace / "two.ini").write_text(cfg, encoding="utf-8")
        assert run("select", "--config", "two.ini") == 0
        hist = (workspace / "out" / "hist_cmi.csv").read_text().splitlines()
        assert hist == ["bin_left,bin_right,count"]

    def test_zero_thresholds_drop_nothing(self, workspace):
        (workspace / "zero.ini").write_text(
            CONFIG.format(min_mi=0.0, min_cmi=0.0, keep="", rhat="1.1"), encoding="utf-8"
        )
        assert run("select", "--config", "zero.ini") == 0
        report = (workspace / "out" / "selection_report.txt").read_text()
        assert "proposed drop list: (none)" in report

    def test_naive_only_learner_writes_exactly_the_star(self, workspace):
        (workspace / "naive.ini").write_text(
            CONFIG.format(min_mi=0.05, min_cmi=0.08, keep="", rhat="1.1")
            .replace("learners = hc, chowliu, tan, naive, bd", "learners = naive")
            .replace("user_structures = truth=truth.structure", ""),
            encoding="utf-8",
        )
        for cmd in ("select", "learn"):
            assert run(cmd, "--config", "naive.ini") == 0
        files = sorted((workspace / "out" / "structures").glob("*.structure"))
        assert [p.stem for p in files] == ["naive"]
        dag = read_structure(files[0])
        for f in ("P", "Q", "R"):
            assert dag.parents(f) == ("T",)
        assert dag.parents("T") == ()

    def test_naive_benchmark_added_when_missing(self, workspace):
        (workspace / "nonaive.ini").write_text(
            CONFIG.format(min_mi=0.05, min_cmi=0.08, keep="", rhat="1.1")
            .replace("learners = hc, chowliu, tan, naive, bd", "learners = chowliu"),
            encoding="utf-8",
        )
        for cmd in ("select", "learn", "compare"):
            assert run(cmd, "--config", "nonaive.ini") == 0
        labels = (workspace / "out" / "surviving_models.txt").read_text().split()
        assert "naive" in labels
        assert (workspace / "out" / "structures" / "naive.structure").is_file()

    def test_learn_again_removes_the_other_candidates(self, workspace):
        for cmd in ("select", "learn"):
            assert run(cmd, "--config", "pipeline.ini") == 0
        (workspace / "naive.ini").write_text(
            (workspace / "pipeline.ini").read_text()
            .replace("learners = hc, chowliu, tan, naive, bd", "learners = naive"),
            encoding="utf-8",
        )
        for cmd in ("learn", "compare"):
            assert run(cmd, "--config", "naive.ini") == 0
        out = workspace / "out"
        assert sorted(p.stem for p in (out / "structures").glob("*.structure")) == ["naive", "truth"]
        assert sorted(p.name for p in out.glob("sensitivity_*.csv")) == [
            "sensitivity_naive.csv", "sensitivity_truth.csv",
        ]
        surviving = (out / "surviving_models.txt").read_text().split()
        assert not {"hc", "chowliu", "tan", "bd"} & set(surviving)

    def test_fit_predict_again_removes_traces_it_did_not_write(self, workspace):
        cfg = (workspace / "pipeline.ini").read_text().replace("[predict]", "[predict]\nmodel = truth")
        (workspace / "both.ini").write_text(cfg.replace("[mcmc]", "[mcmc]\nmonitor = T, P"), encoding="utf-8")
        (workspace / "one.ini").write_text(cfg.replace("[mcmc]", "[mcmc]\nmonitor = T"), encoding="utf-8")
        for cmd in ("select", "learn"):
            assert run(cmd, "--config", "both.ini") == 0
        traces = workspace / "out" / "traces"
        assert run("fit-predict", "--config", "both.ini") == 0
        assert len(list(traces.glob("trace_P_*.csv"))) == len(list(traces.glob("density_P_*.csv"))) == 9
        (traces / "notes.csv").write_text("not a trace\n", encoding="utf-8")
        assert run("fit-predict", "--config", "one.ini") == 0
        assert sorted(p.name for p in traces.iterdir()) == sorted(
            [f"{kind}_T_{k}.csv" for kind in ("trace", "density") for k in range(3)] + ["notes.csv"]
        )

    def test_select_idempotent_bytes(self, workspace):
        assert run("select", "--config", "pipeline.ini") == 0
        first = {
            p.name: p.read_bytes() for p in (workspace / "out").iterdir() if p.is_file()
        }
        assert run("select", "--config", "pipeline.ini") == 0
        for p in (workspace / "out").iterdir():
            if p.is_file():
                assert p.read_bytes() == first[p.name]

    def test_records_cache_changes_no_output(self, workspace, monkeypatch):
        # every phase once with the cache deleted before it, then every phase
        # with the cache kept: one parse instead of five, and the same bytes
        ingest = dataset.ingest_csv
        parses = []
        monkeypatch.setattr(dataset, "ingest_csv", lambda *args: parses.append(args) or ingest(*args))
        out = workspace / "out"
        runs = []
        for keep in (False, True):
            shutil.rmtree(out, ignore_errors=True)
            parses.clear()
            for cmd in ("select", "learn", "compare", "cv", "fit-predict", "report"):
                if not keep:
                    for cached in out.glob("records-*.npy"):
                        cached.unlink()
                assert run(cmd, "--config", "pipeline.ini") == 0
            files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
            runs.append((files, len(parses)))
        (deleted, parsed_each_phase), (kept, parsed_once) = runs
        assert (parsed_each_phase, parsed_once) == (5, 1)
        cache = [name for name in kept if name.startswith("records-")]
        assert len(cache) == 1 and cache[0] not in deleted  # report deleted it last
        del kept[cache[0]]
        assert deleted.keys() == kept.keys()
        for name in deleted:
            assert deleted[name] == kept[name], name

    def test_damaged_records_cache_is_parsed_again(self, workspace):
        assert run("select", "--config", "pipeline.ini") == 0
        (cached,) = (workspace / "out").glob("records-*.npy")
        good = cached.read_bytes()
        cached.write_bytes(good[:-7])
        assert run("learn", "--config", "pipeline.ini") == 0
        assert cached.read_bytes() == good

    def test_effective_config_reproduces_run(self, workspace):
        for cmd in ("select", "learn", "compare", "cv"):
            assert run(cmd, "--config", "pipeline.ini") == 0
        chosen = (workspace / "out" / "chosen_model.txt").read_bytes()
        cv_bytes = (workspace / "out" / "cv_metrics.csv").read_bytes()
        # rerun the cv phase purely from the recorded effective config
        effective = workspace / "out" / "effective_config.ini"
        assert run("cv", "--config", str(effective)) == 0
        assert (workspace / "out" / "chosen_model.txt").read_bytes() == chosen
        assert (workspace / "out" / "cv_metrics.csv").read_bytes() == cv_bytes

    def test_seed_changes_split(self, workspace):
        for cmd in ("select", "learn", "compare"):
            assert run(cmd, "--config", "pipeline.ini") == 0
        assert run("cv", "--config", "pipeline.ini") == 0
        plan_a = (workspace / "out" / "split_plan.csv").read_text()
        assert run("cv", "--config", "pipeline.ini", "--seed", "77") == 0
        plan_b = (workspace / "out" / "split_plan.csv").read_text()
        assert plan_a != plan_b

    def test_prediction_modes_are_inert(self, workspace):
        # every prediction is the closed form, whichever mode the config names
        for cmd in ("select", "learn", "compare"):
            assert run(cmd, "--config", "pipeline.ini") == 0
        base = CONFIG.format(min_mi=0.05, min_cmi=0.08, keep="", rhat="1.1")
        assert "mode = mcmc\ncv_mode = exact\n" in base
        outputs = {}
        for mode in ("exact", "mcmc"):
            out = workspace / f"out_{mode}"
            shutil.copytree(workspace / "out", out)
            (workspace / f"{mode}.ini").write_text(
                base.replace("mode = mcmc\ncv_mode = exact\n", f"mode = {mode}\ncv_mode = {mode}\n"),
                encoding="utf-8",
            )
            for cmd in ("cv", "fit-predict"):
                assert run(cmd, "--config", f"{mode}.ini", "--out", str(out)) == 0
            names = ["cv_metrics.csv", "chosen_model.txt", "predictions.csv", "final_metrics.csv", "rhat.csv"]
            traces = sorted((out / "traces").iterdir())
            assert traces
            outputs[mode] = {name: (out / name).read_bytes() for name in names}
            outputs[mode].update({f"traces/{p.name}": p.read_bytes() for p in traces})
        assert outputs["exact"] == outputs["mcmc"]


class TestExitCodes:
    def test_missing_config_is_2(self, workspace):
        assert run("select", "--config", "nope.ini") == 2

    def test_unknown_key_is_2(self, workspace):
        (workspace / "bad.ini").write_text("[data]\nwat = 1\n", encoding="utf-8")
        assert run("select", "--config", "bad.ini") == 2

    def test_phase_order_violation_is_2(self, workspace):
        assert run("cv", "--config", "pipeline.ini") == 2

    def test_corrupt_dataset_cell_is_3(self, workspace):
        text = (workspace / "tiny.csv").read_text().splitlines()
        text[3] = text[3].replace("1", "9", 1)
        (workspace / "tiny.csv").write_text("\n".join(text) + "\n", encoding="utf-8")
        assert run("select", "--config", "pipeline.ini") == 3

    def test_rhat_threshold_is_4(self, workspace):
        (workspace / "strict.ini").write_text(
            CONFIG.format(min_mi=0.05, min_cmi=0.08, keep="", rhat="0.5"), encoding="utf-8"
        )
        for cmd in ("select", "learn", "compare", "cv"):
            assert run(cmd, "--config", "strict.ini") == 0
        assert run("fit-predict", "--config", "strict.ini") == 4
        # outputs are still written for inspection before the failure exit
        assert (workspace / "out" / "rhat.csv").is_file()

    def test_constant_chain_is_4(self, workspace, capsys):
        # at alpha0 = 1e-9 a state a family row never saw gets a posterior
        # pseudo-count of 1e-9, and its draws underflow to exactly 0
        cfg = (workspace / "pipeline.ini").read_text()
        cfg = cfg.replace("[predict]", "[predict]\nmodel = tan").replace("[mcmc]", "[mcmc]\nmonitor = T, P, Q, R")
        (workspace / "constant.ini").write_text(cfg + "\n[model]\nalpha0 = 1e-9\n", encoding="utf-8")
        for cmd in ("select", "learn"):
            assert run(cmd, "--config", "constant.ini") == 0
        capsys.readouterr()
        # the draws are exactly 0 and 1: writing their densities warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("fit-predict", "--config", "constant.ini") == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("diagnostic failure: parameter ")
        assert err[0].endswith(" has zero within-chain variance")
        # the chain is checked before anything is written
        out = workspace / "out"
        for name in ("split_plan.csv", "fitted_network.csv", "predictions.csv", "final_metrics.csv", "rhat.csv"):
            assert not (out / name).exists()
        assert not (out / "traces").exists()

    def test_bad_hist_bins_is_2(self, workspace):
        cfg = (workspace / "pipeline.ini").read_text().replace(
            "[selection]", "[selection]\nhist_bins = 0"
        )
        (workspace / "bins.ini").write_text(cfg, encoding="utf-8")
        assert run("select", "--config", "bins.ini") == 2

    def test_unknown_monitor_node_is_2(self, workspace):
        cfg = (workspace / "pipeline.ini").read_text().replace(
            "[mcmc]", "[mcmc]\nmonitor = GHOST"
        )
        (workspace / "monitor.ini").write_text(cfg, encoding="utf-8")
        for cmd in ("select", "learn", "compare", "cv"):
            assert run(cmd, "--config", "monitor.ini") == 0
        assert run("fit-predict", "--config", "monitor.ini") == 2
        # the monitor list is checked before anything is written
        out = workspace / "out"
        for name in ("fitted_network.csv", "predictions.csv", "final_metrics.csv", "rhat.csv"):
            assert not (out / name).exists()
        assert not (out / "traces").exists()

    def test_target_mismatch_is_2(self, workspace):
        cfg = (workspace / "pipeline.ini").read_text().replace(
            "[data]", "[data]\ntarget = WRONG"
        )
        (workspace / "mismatch.ini").write_text(cfg, encoding="utf-8")
        assert run("select", "--config", "mismatch.ini") == 2

    def test_compare_with_a_single_candidate_is_2(self, workspace, capsys):
        (workspace / "naive.ini").write_text(
            CONFIG.format(min_mi=0.05, min_cmi=0.08, keep="", rhat="1.1")
            .replace("learners = hc, chowliu, tan, naive, bd", "learners = naive")
            .replace("user_structures = truth=truth.structure", ""),
            encoding="utf-8",
        )
        for cmd in ("select", "learn"):
            assert run(cmd, "--config", "naive.ini") == 0
        capsys.readouterr()
        assert run("compare", "--config", "naive.ini") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_inference_over_the_cap_is_3(self, workspace, monkeypatch, capsys):
        # the third candidate's report is over the cap, after two succeeded
        report, calls = bayesnet.sensitivity_report, []

        def too_large(*args, **kwargs):
            calls.append(args)
            if len(calls) < 3:
                return report(*args, **kwargs)
            raise bayesnet.EnumerationTooLarge("cost over the cap")

        monkeypatch.setattr(bayesnet, "sensitivity_report", too_large)
        assert run("select", "--config", "pipeline.ini") == 0
        assert run("learn", "--config", "pipeline.ini") == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["data error: cost over the cap"]
        # learn is all or nothing: no candidate's files were written
        assert len(calls) == 3
        assert not list((workspace / "out" / "structures").glob("*.structure"))
        assert not list((workspace / "out").glob("sensitivity_*.csv"))

    @pytest.mark.parametrize("constraints", [
        "require P -> Q\nforbid P -> Q\n",
        "require P -> Q\nrequire Q -> P\n",
    ])
    def test_contradictory_constraints_file_is_3(self, workspace, capsys, constraints):
        (workspace / "bad.constraints").write_text(constraints, encoding="utf-8")
        (workspace / "constrained.ini").write_text(
            CONFIG.format(min_mi=0.05, min_cmi=0.08, keep="", rhat="1.1")
            .replace("learners = hc, chowliu, tan, naive, bd", "learners = hc, naive\nconstraints = bad.constraints"),
            encoding="utf-8",
        )
        assert run("learn", "--config", "constrained.ini") == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("data error: bad.constraints:") and err.count("\n") == 1

    def test_learn_on_twelve_five_state_variables(self, workspace):
        names = [f"V{i:02d}" for i in range(12)]
        states = ("1", "2", "3", "4", "5")
        schema = Schema(tuple(
            VariableSpec(n, states, "target" if i == 0 else "predictor") for i, n in enumerate(names)
        ))
        dag = Dag(schema.names, tuple(zip(names, names[1:])))
        channel = np.full((5, 5), 0.05) + np.eye(5) * 0.75
        tables = {n: channel for n in names[1:]}
        tables[names[0]] = np.full((1, 5), 0.2)
        write_csv(sample_dataset(dag, schema, tables, 500, seed=3), workspace / "wide.csv")
        write_schema(schema, workspace / "wide.schema")
        (workspace / "wide.ini").write_text(
            CONFIG.format(min_mi=0.0, min_cmi=0.0, keep="", rhat="1.1")
            .replace("tiny.csv", "wide.csv").replace("tiny.schema", "wide.schema")
            .replace("learners = hc, chowliu, tan, naive, bd", "learners = chowliu, tan, naive")
            .replace("user_structures = truth=truth.structure", ""),
            encoding="utf-8",
        )
        assert run("learn", "--config", "wide.ini") == 0
        reports = sorted(p.name for p in (workspace / "out").glob("sensitivity_*.csv"))
        assert reports == ["sensitivity_chowliu.csv", "sensitivity_naive.csv", "sensitivity_tan.csv"]

    def test_learn_on_sixty_five_state_variables(self, workspace):
        # more unobserved variables than np.einsum has labels for
        _, data = five_state_chain(60, 500, seed=4)
        write_csv(data, workspace / "wide.csv")
        write_schema(data.schema, workspace / "wide.schema")
        (workspace / "wide.ini").write_text(
            CONFIG.format(min_mi=0.0, min_cmi=0.0, keep="", rhat="1.1")
            .replace("tiny.csv", "wide.csv").replace("tiny.schema", "wide.schema")
            .replace("learners = hc, chowliu, tan, naive, bd", "learners = chowliu, naive")
            .replace("user_structures = truth=truth.structure", ""),
            encoding="utf-8",
        )
        assert run("learn", "--config", "wide.ini") == 0
        for label in ("chowliu", "naive"):
            lines = (workspace / "out" / f"sensitivity_{label}.csv").read_text().splitlines()
            assert len(lines) == 1 + 59

    def test_family_table_over_the_cap_is_3(self, workspace, capsys):
        # T with 16 five-state parents: 5^17 cells, a 6 TB count table
        names = ["T"] + [f"X{i:02d}" for i in range(1, 20)]
        schema = Schema(tuple(
            VariableSpec(n, tuple("12345"), "target" if n == "T" else "predictor") for n in names
        ))
        rng = np.random.default_rng(6)
        write_csv(Dataset(schema, rng.integers(0, 5, (300, 20))), workspace / "wide.csv")
        write_schema(schema, workspace / "wide.schema")
        write_structure(
            Dag(schema.names, tuple((n, "T") for n in names[1:17])), workspace / "star.structure"
        )
        (workspace / "wide.ini").write_text(
            CONFIG.format(min_mi=0.0, min_cmi=0.0, keep="", rhat="1.1")
            .replace("tiny.csv", "wide.csv").replace("tiny.schema", "wide.schema")
            .replace("learners = hc, chowliu, tan, naive, bd", "learners = naive")
            .replace("user_structures = truth=truth.structure", "user_structures = star=star.structure"),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert run("learn", "--config", "wide.ini") == 3
        assert capsys.readouterr().err.splitlines() == [
            "data error: family table of 'T' over 16 parents has 762939453125 cells, "
            "over cap 10000000"
        ]


class TestConfigAndDataDefects:
    """Inputs that used to end in a traceback and exit 1, or pass silently."""

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("chains = 2", "chains = 1"),
        lambda text: text.replace("sample_iters = 300", "sample_iters = 5"),
        lambda text: text + "\n[model]\nbdeu_ess = 0\n",
        lambda text: text.replace("seed = 5", "seed = -3"),
    ], ids=["one_chain", "five_kept_draws", "zero_bdeu_ess", "negative_seed"])
    def test_config_the_run_cannot_use_is_2_at_load(self, workspace, capsys, edit):
        base = CONFIG.format(min_mi=0.05, min_cmi=0.08, keep="", rhat="1.1")
        (workspace / "bad.ini").write_text(edit(base), encoding="utf-8")
        assert run("select", "--config", "bad.ini") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_negative_seed_override_is_2_at_load(self, workspace, capsys):
        assert run("select", "--config", "pipeline.ini", "--seed", "-1") == 2
        assert capsys.readouterr().err == "config error: seed must be non-negative, got -1\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("phase, out", [("select", "taken"), ("report", "taken/sub")])
    def test_out_that_cannot_be_created_is_2(self, workspace, capsys, phase, out):
        (workspace / "taken").write_text("a file, not a directory\n", encoding="utf-8")
        assert run(phase, "--config", "pipeline.ini", "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot create output directory {out}:")

    @pytest.mark.parametrize("phase, taken", [("learn", "structures"), ("fit-predict", "traces")])
    def test_output_subdirectory_that_cannot_be_created_is_2(self, workspace, capsys, phase, taken):
        (workspace / "named.ini").write_text(
            CONFIG.format(min_mi=0.05, min_cmi=0.08, keep="", rhat="1.1")
            .replace("[predict]", "[predict]\nmodel = naive"),
            encoding="utf-8",
        )
        for upstream in ("select", "learn")[: 1 if phase == "learn" else 2]:
            assert run(upstream, "--config", "named.ini") == 0
        (workspace / "out").mkdir(exist_ok=True)
        (workspace / "out" / taken).write_text("a file, not a directory\n", encoding="utf-8")
        capsys.readouterr()
        assert run(phase, "--config", "named.ini") == 2
        err = capsys.readouterr().err.splitlines()
        prefix = f"config error: cannot create output directory {Path('out', taken)}:"
        assert len(err) == 1 and err[0].startswith(prefix)

    def test_evidence_mass_underflow_is_3(self, tmp_path, monkeypatch, capsys):
        # naive Bayes over 40 binary predictors at alpha0 = 1e-9, trained on
        # rows whose predictors are all 0: the one test record whose
        # predictors are all 1 multiplies 40 posterior means near 1e-11
        monkeypatch.chdir(tmp_path)
        specs = [VariableSpec("T", ("0", "1"), "target")]
        specs += [VariableSpec(f"X{i}", ("0", "1")) for i in range(40)]
        schema = Schema(tuple(specs))
        records = np.zeros((60, 41), dtype=np.int64)
        records[:, 0] = np.random.default_rng(3).integers(0, 2, 60)
        records[make_split(60, 0.15, 10, 0.08, 5).test_idx[0], 1:] = 1
        write_csv(Dataset(schema, records), tmp_path / "wide.csv")
        write_schema(schema, tmp_path / "wide.schema")
        (tmp_path / "wide.ini").write_text(
            "[data]\ndataset = wide.csv\nschema = wide.schema\n\n[learn]\nlearners = naive\n\n"
            "[split]\nseed = 5\n\n[model]\nalpha0 = 1e-9\n\n[predict]\nmodel = naive\n",
            encoding="utf-8",
        )
        assert run("learn", "--config", "wide.ini") == 0
        assert run("fit-predict", "--config", "wide.ini") == 3
        assert capsys.readouterr().err == (
            "data error: the evidence mass of 1 record(s) underflowed to 0 in floating point; "
            "try a larger [model] alpha0\n"
        )

    def test_cv_evidence_mass_underflow_is_3(self, tmp_path, monkeypatch, capsys):
        # the reproducer above twice over, in cross-validation folds: 80
        # binary predictors at alpha0 = 1e-9, one row of fold 1 with X0..X39
        # all 1 and two rows of fold 2 with X40..X79 all 1. Each fold's
        # training rows, the other fold's included, hold no 1 in the block
        # its own rows set, so each of the three multiplies 40 posterior
        # means near 1e-11, and the line counts them over both folds
        monkeypatch.chdir(tmp_path)
        specs = [VariableSpec("T", ("0", "1"), "target")]
        specs += [VariableSpec(f"X{i}", ("0", "1")) for i in range(80)]
        schema = Schema(tuple(specs))
        records = np.zeros((60, 81), dtype=np.int64)
        records[:, 0] = np.random.default_rng(3).integers(0, 2, 60)
        folds = make_split(60, 0.15, 10, 0.08, 5).folds
        records[folds[0][:1], 1:41] = 1
        records[folds[1][:2], 41:] = 1
        write_csv(Dataset(schema, records), tmp_path / "wide.csv")
        write_schema(schema, tmp_path / "wide.schema")
        (tmp_path / "wide.ini").write_text(
            "[data]\ndataset = wide.csv\nschema = wide.schema\n\n[learn]\nlearners = naive\n\n"
            "[split]\nseed = 5\n\n[model]\nalpha0 = 1e-9\n",
            encoding="utf-8",
        )
        assert run("learn", "--config", "wide.ini") == 0
        capsys.readouterr()
        assert run("cv", "--config", "wide.ini") == 3
        assert capsys.readouterr().err == (
            "data error: the evidence mass of 3 record(s) underflowed to 0 in floating point; "
            "try a larger [model] alpha0\n"
        )

    def test_keep_naming_no_variable_is_2(self, workspace, capsys):
        (workspace / "keep.ini").write_text(
            CONFIG.format(min_mi=0.05, min_cmi=0.08, keep="NOPE", rhat="1.1"), encoding="utf-8"
        )
        assert run("select", "--config", "keep.ini") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "NOPE" in err[0]
        assert not (workspace / "out" / "selected_variables.txt").exists()

    def test_near_zero_prior_predicts_no_nan(self, tmp_path):
        # at alpha0 = 1e-9 unseen cells draw as exactly 0, so an average over
        # draws can give a record's evidence zero mass and a row of nan; the
        # posterior means the predictive uses are all positive
        shutil.copytree(DEMO, tmp_path / "data")
        config = (tmp_path / "data" / "pipeline.ini").read_text(encoding="utf-8")
        assert "\nmode = mcmc\n" in config
        config = config.replace("[predict]", "[predict]\nmodel = tan")
        (tmp_path / "data" / "pipeline.ini").write_text(config + "\n[model]\nalpha0 = 1e-9\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(bnpipeline.__file__).parents[1]))
        for phase in ("select", "learn", "fit-predict"):
            done = subprocess.run(
                [sys.executable, "-m", "bnpipeline", phase, "--config", "data/pipeline.ini"],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            assert "Warning" not in done.stderr and "Traceback" not in done.stderr
        assert "nan" not in (tmp_path / "out" / "predictions.csv").read_text(encoding="utf-8")

    def test_empty_test_set_is_3(self, workspace, capsys):
        # round(0.001 * 240) = 0 test records; a named model lets
        # fit-predict run without cv's choice
        (workspace / "small.ini").write_text(
            CONFIG.format(min_mi=0.05, min_cmi=0.08, keep="", rhat="1.1")
            .replace("test_fraction = 0.15", "test_fraction = 0.001")
            .replace("[predict]", "[predict]\nmodel = naive"),
            encoding="utf-8",
        )
        for cmd in ("select", "learn", "compare"):
            assert run(cmd, "--config", "small.ini") == 0
        capsys.readouterr()
        for cmd in ("cv", "fit-predict"):
            assert run(cmd, "--config", "small.ini") == 3
            err = capsys.readouterr().err
            assert err == "data error: test_fraction too small: empty test set\n"

    def test_header_only_dataset_is_3(self, workspace, capsys):
        header = (workspace / "tiny.csv").read_text().splitlines()[0]
        (workspace / "tiny.csv").write_text(header + "\n", encoding="utf-8")
        assert run("select", "--config", "pipeline.ini") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: tiny.csv")

    @pytest.mark.parametrize("name, code, prefix", [
        ("tiny.csv", 3, "data error: tiny.csv: byte "),
        ("tiny.schema", 3, "data error: tiny.schema: byte "),
        ("pipeline.ini", 2, "config error: pipeline.ini: byte "),
    ], ids=["csv", "schema", "config"])
    def test_undecodable_byte_exits_with_one_line(self, workspace, capsys, name, code, prefix):
        path = workspace / name
        text = path.read_bytes()
        cut = text.index(b"\n") + 1
        path.write_bytes(text[:cut] + b"\xff" + text[cut:])
        assert run("select", "--config", "pipeline.ini") == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(prefix) and "utf-8" in err[0]

    def test_oversized_cell_is_an_unknown_state(self, workspace, capsys):
        # 200,000 characters: over csv.reader's 131,072-character field limit
        lines = (workspace / "tiny.csv").read_text().splitlines()
        cells = lines[5].split(",")
        cells[0] = "1" * 200_000
        lines[5] = ",".join(cells)
        (workspace / "tiny.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            assert run("select", "--config", "pipeline.ini") == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: row 5: value '1111")
        assert err[0].endswith("is not a state of 'T'")
        # one byte per row and cell character would be 240 x 200,000 = 48 MB
        assert peak < 8_000_000

    @pytest.mark.parametrize("cell, shown", [
        ("9", "'9'"),
        ("9" * 40, repr("9" * 40)),
        ("9" * 41, repr("9" * 40) + "... (41 characters)"),
        ("9" * 200_000, repr("9" * 40) + "... (200000 characters)"),
    ])
    def test_unknown_state_line_shows_a_bounded_prefix(self, workspace, capsys, cell, shown):
        lines = (workspace / "tiny.csv").read_text().splitlines()
        cells = lines[5].split(",")
        cells[0] = cell
        lines[5] = ",".join(cells)
        (workspace / "tiny.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("select", "--config", "pipeline.ini") == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"data error: row 5: value {shown} is not a state of 'T'"]
        assert len(err[0]) < 120


def md_table_reference(path, max_rows=10):
    """The report table from the whole CSV held in memory."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return []
    header, body = rows[0], rows[1:]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for row in body[:max_rows]:
        lines.append("| " + " | ".join(row) + " |")
    if len(body) > max_rows:
        filler = [f"... ({len(body) - max_rows} more rows)"] + [""] * (len(header) - 1)
        lines.append("| " + " | ".join(filler) + " |")
    return lines


class TestReportTables:
    @pytest.mark.parametrize("text", [
        "",
        "a,b\n",
        "a,b\n" + "".join(f"{i},{i * i}\n" for i in range(10)),
        "a,b\n" + "".join(f"{i},{i * i}\n" for i in range(11)),
        "a,b\n" + "".join(f"{i},{i * i}\n" for i in range(2500)),
        'a,"b\nc"\n' + "".join(f'{i},"line one\nline two, {i}"\n' for i in range(14)),
        'a,b\n1,2\n\n3,"4\r\n5"\n' + "x,y\n" * 12,
    ], ids=["empty", "header_only", "ten_rows", "eleven_rows", "long", "quoted_newlines", "blank_and_crlf"])
    def test_streamed_table_equals_the_whole_file_table(self, tmp_path, text):
        path = tmp_path / "scores.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _md_table(path) == md_table_reference(path)
        assert _md_table(path, max_rows=3) == md_table_reference(path, max_rows=3)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.lists(st.text(alphabet='ab,"\n\r ', max_size=6), min_size=1, max_size=3), max_size=16))
    def test_any_written_csv(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("report") / "scores.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert _md_table(path, max_rows=4) == md_table_reference(path, max_rows=4)
