"""Synthetic corpus generation, persistence, experiment config, and the CLI
exit-code contract."""

import ast
import importlib
import inspect
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vtembed.autograd as autograd
import vtembed.curation as curation
import vtembed.experiment as experiment
import vtembed.profiler as profiler
import vtembed.retrieval as retrieval
from vtembed.cli import cli
from vtembed.curation import DEFAULT_MINE_WINDOW
from vtembed.data import (
    CorpusFormatError,
    SyntheticTaskSpec,
    generate_corpus,
    instruction_pairs,
    load_corpus,
    save_corpus,
    split_roles,
)
from vtembed.experiment import (
    STAGE_LABELS,
    ExperimentConfig,
    ExperimentConfigError,
    SeedRun,
    TrainSettings,
    load_config,
    report_csv,
    report_markdown,
    run_experiment,
)
from vtembed.model import Model, ModelConfig, with_compression
from vtembed.trainer import StagePlan, mine_all, run_stage1


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(vocab_size=64, embed_dim=16, num_layers=1, num_heads=2,
                       patch_h=4, patch_w=4, vision_channels=3,
                       compression_factor=2, max_seq_len=96, seed=0)


class TestGeneration:
    def test_deterministic_byte_identical(self, cfg, tmp_path):
        spec = SyntheticTaskSpec(task_class="T2I", num_classes=3, corpus_size=12,
                                 queries_per_class=5, seed=3)
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            cands, queries, _ = generate_corpus(spec, cfg)
            p = tmp_path / name
            save_corpus(p, cands + queries)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_content(self, cfg):
        spec_a = SyntheticTaskSpec(task_class="T2I", num_classes=3, corpus_size=12,
                                   queries_per_class=5, seed=0)
        spec_b = SyntheticTaskSpec(task_class="T2I", num_classes=3, corpus_size=12,
                                   queries_per_class=5, seed=1)
        ca, _, _ = generate_corpus(spec_a, cfg)
        cb, _, _ = generate_corpus(spec_b, cfg)
        assert not np.array_equal(ca[0].visual.values, cb[0].visual.values)

    def test_qrels_consistent_with_classes(self, cfg):
        spec = SyntheticTaskSpec(task_class="T2I", num_classes=3, corpus_size=15,
                                 queries_per_class=5, seed=0)
        cands, queries, qrels = generate_corpus(spec, cfg)
        by_id = {c.example_id: c for c in cands}
        for q in queries:
            assert qrels[q.example_id][q.gt_positive_id] == 1
            for cid, grade in qrels[q.example_id].items():
                assert grade == 1 and by_id[cid].class_id == q.class_id

    def test_split_assignment(self, cfg):
        spec = SyntheticTaskSpec(task_class="T2I", num_classes=2, corpus_size=10,
                                 queries_per_class=10, seed=0)
        _, queries, _ = generate_corpus(spec, cfg)
        per_class_eval = sum(q.split == "eval" for q in queries) / 2
        assert per_class_eval == 2  # every 5th query held out

    def test_noise_relabels_query_and_qrels_together(self, cfg):
        spec = SyntheticTaskSpec(task_class="T2I", num_classes=4, corpus_size=20,
                                 queries_per_class=10, noise_rate=0.3, seed=0)
        cands, queries, qrels = generate_corpus(spec, cfg)
        by_id = {c.example_id: c for c in cands}
        flipped = 0
        for qn, q in enumerate(queries):
            nominal = qn // 10  # class order is outer loop
            if q.class_id != nominal:
                flipped += 1
            # whatever the label, qrels and gt must agree with it
            assert by_id[q.gt_positive_id].class_id == q.class_id
            assert all(by_id[c].class_id == q.class_id for c in qrels[q.example_id])
        assert 0 < flipped < len(queries)

    def test_modalities_per_task(self, cfg):
        spec_t2i = SyntheticTaskSpec(task_class="T2I", num_classes=2,
                                     corpus_size=4, queries_per_class=5, seed=0)
        cands, queries, _ = generate_corpus(spec_t2i, cfg)
        assert all(c.visual is not None and c.text == () for c in cands)
        assert all(q.visual is None and len(q.text) > 0 for q in queries)
        spec_it2i = SyntheticTaskSpec(task_class="IT2I", num_classes=2,
                                      corpus_size=4, queries_per_class=5, seed=0)
        _, queries_it, _ = generate_corpus(spec_it2i, cfg)
        assert all(q.visual is not None and len(q.text) > 0 for q in queries_it)
        assert all(q.visual.values.shape == (4, 4, 3) for q in queries_it)

    def test_instruction_pairs_cover_labeled_examples(self, cfg):
        spec = SyntheticTaskSpec(task_class="T2I", num_classes=2, corpus_size=6,
                                 queries_per_class=5, seed=0)
        cands, _, _ = generate_corpus(spec, cfg)
        pairs = instruction_pairs(cands, seed=0, vocab_size=cfg.vocab_size)
        assert len(pairs) == len(cands)
        same_class = {c.class_id for c, _ in pairs if _ == pairs[0][1]}
        assert len(same_class) == 1  # response is the class motif


class TestPersistence:
    def _corpus(self, cfg):
        spec = SyntheticTaskSpec(task_class="IT2I", num_classes=2, corpus_size=6,
                                 queries_per_class=5, seed=0)
        cands, queries, _ = generate_corpus(spec, cfg)
        return cands + queries

    def test_roundtrip(self, cfg, tmp_path):
        examples = self._corpus(cfg)
        p = tmp_path / "c.jsonl"
        save_corpus(p, examples)
        back = load_corpus(p)
        assert len(back) == len(examples)
        for a, b in zip(examples, back):
            assert a.example_id == b.example_id and a.role == b.role
            assert a.text == b.text and a.split == b.split
            assert a.class_id == b.class_id and a.gt_positive_id == b.gt_positive_id
            if a.visual is None:
                assert b.visual is None
            else:
                assert np.array_equal(a.visual.values, b.visual.values)
        cands, queries = split_roles(back)
        assert all(c.role == "candidate" for c in cands)
        assert all(q.role == "query" for q in queries)

    def test_truncated_file_reports_last_good_line(self, cfg, tmp_path):
        p = tmp_path / "t.jsonl"
        save_corpus(p, self._corpus(cfg))
        text = p.read_text()
        p.write_text(text[:len(text) * 2 // 3])  # cut mid-record
        with pytest.raises(CorpusFormatError, match="last good line"):
            load_corpus(p)

    def test_empty_file_is_empty_corpus(self, tmp_path):
        p = tmp_path / "e.jsonl"
        p.write_text("")
        assert load_corpus(p) == []

    def test_future_schema_version_rejected(self, tmp_path):
        p = tmp_path / "v.jsonl"
        p.write_text('{"schema_version": 99, "kind": "corpus"}\n')
        with pytest.raises(CorpusFormatError, match="migration"):
            load_corpus(p)


class TestExperimentConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(preset="table5", seeds=[7, 8])
        cfg.train.n_hard = 6
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(cfg.to_dict()))
        back = load_config(p)
        assert back.to_dict() == cfg.to_dict()
        assert back.config_hash() == cfg.config_hash()

    def test_hash_tracks_content(self):
        a, b = ExperimentConfig(), ExperimentConfig(seeds=[9])
        assert a.config_hash() != b.config_hash()

    @pytest.mark.parametrize("section, key", [
        ("model", "hidden_dim"), ("data", "classes"), ("train", "temperature"),
        ("train", "judge_k"), ("train", "reranker_epochs")])
    def test_unknown_section_key_rejected(self, tmp_path, section, key):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({section: {key: 1}}))
        with pytest.raises(ExperimentConfigError, match=f"unknown {section} key.*{key}"):
            load_config(p)

    def test_unknown_reranker_rejected(self, tmp_path, capsys):
        with pytest.raises(ExperimentConfigError, match="'trainde'"):
            ExperimentConfig.from_dict({"train": {"reranker": "trainde"}})
        p = tmp_path / "typo.json"
        p.write_text(json.dumps({"train": {"reranker": "trainde"}}))
        assert cli(["experiment", "--config", str(p)]) == 2
        assert "ExperimentConfigError" in capsys.readouterr().err

    def test_future_schema_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ExperimentConfigError):
            load_config(p)

    @pytest.mark.parametrize("preset, runner", [("table4", "run_seed_pipeline"),
                                                ("table5", "run_table5_seed")])
    def test_all_seeds_failed_raises(self, monkeypatch, preset, runner):
        def fail(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(experiment, runner, fail)
        with pytest.raises(ExperimentConfigError, match="all seeds failed"):
            run_experiment(ExperimentConfig(preset=preset, seeds=[0, 1]))

    def test_program_fault_in_a_seed_propagates(self, monkeypatch):
        """Only ValueError and RuntimeError mark a seed failed; a TypeError
        is a fault in the program, not a failed seed."""
        def fault(*args, **kwargs):
            raise TypeError("unexpected keyword")
        monkeypatch.setattr(experiment, "run_seed_pipeline", fault)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_experiment(ExperimentConfig(seeds=[0, 1]))

    def test_report_rendering_with_missing_cells(self):
        report = {"rows": [{"config": "a", "seed0": 0.5, "median_p_at_1": 0.5},
                           {"config": "b", "seed1": 0.25, "median_p_at_1": 0.25}]}
        md = report_markdown(report)
        # row "a" has no seed1 column value, row "b" no seed0 -> dashes
        assert "| a | 0.5000 | 0.5000 | - |" in md
        assert "| b | - | 0.2500 | 0.2500 |" in md
        csv_lines = report_csv(report).splitlines()
        assert csv_lines[0] == "config,seed0,median_p_at_1,seed1"
        assert csv_lines[2] == "b,-,0.2500,0.2500"


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """gen-data output shared by the CLI contract tests."""
    root = tmp_path_factory.mktemp("cliws")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"vocab_size": 64, "embed_dim": 16, "num_layers": 1,
                  "num_heads": 2, "patch_h": 4, "patch_w": 4,
                  "vision_channels": 3, "compression_factor": 2,
                  "max_seq_len": 96},
        "data": {"task_class": "T2I", "num_classes": 3, "corpus_size": 12,
                 "queries_per_class": 5},
    }))
    data_dir = root / "data"
    rc = cli(["gen-data", "--seed", "0", "--config", str(cfg_path),
              "--out", str(data_dir)])
    assert rc == 0
    return root, cfg_path, data_dir


# Each command with one flag it does not read (the last case lacks the
# required --ckpt); argparse must reject each with exit 1.
_UNREAD_FLAGS = [
    (["train", "--stage", "warmup", "--corpus", "c.jsonl", "--out", "o", "--epochs", "1"],
     "--epochs"),
    (["mine", "--corpus", "c.jsonl", "--ckpt", "m", "--out", "o", "--n", "2"], "--n"),
    (["mine", "--corpus", "c.jsonl", "--ckpt", "m", "--out", "o", "--window", "5", "9"],
     "--window"),
    (["mine", "--corpus", "c.jsonl", "--ckpt", "m", "--out", "o", "--config", "x.json"],
     "--config"),
    (["eval", "--corpus", "c.jsonl", "--qrels", "q", "--ckpt", "m", "--seed", "0"], "--seed"),
    (["eval", "--corpus", "c.jsonl", "--qrels", "q", "--ckpt", "m", "--config", "x"],
     "--config"),
    (["rerank-eval", "--corpus", "c.jsonl", "--qrels", "q", "--ckpt", "m", "--seed", "0"],
     "--seed"),
    (["rerank-eval", "--corpus", "c.jsonl", "--qrels", "q", "--ckpt", "m", "--config", "x"],
     "--config"),
    (["judge", "--corpus", "c.jsonl", "--out", "v.tsv"], "--out"),
    (["mine", "--corpus", "c.jsonl", "--out", "m.jsonl"], "--ckpt"),
]


class TestCLIContract:
    def test_gen_data_outputs_and_manifest(self, cli_workspace):
        _, _, data_dir = cli_workspace
        assert (data_dir / "corpus.jsonl").exists()
        assert (data_dir / "qrels.tsv").exists()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert "corpus_hash" in manifest and "manifest_hash" in manifest

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_argument_exits_1(self, capsys):
        assert cli(["train", "--stage", "warmup"]) == 1  # no --corpus
        capsys.readouterr()

    def test_stage_order_violation_exits_2(self, cli_workspace, capsys):
        root, cfg_path, data_dir = cli_workspace
        rc = cli(["train", "--stage", "warmup", "--seed", "0",
                  "--config", str(cfg_path),
                  "--corpus", str(data_dir / "corpus.jsonl"),
                  "--out", str(root / "bad.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: StageOrderError: ") and "warmup" in err

    def test_train_and_eval_chain(self, cli_workspace, capsys):
        root, cfg_path, data_dir = cli_workspace
        corpus = str(data_dir / "corpus.jsonl")
        restore = root / "restore.ckpt"
        rc = cli(["train", "--stage", "restore", "--seed", "0",
                  "--config", str(cfg_path), "--corpus", corpus,
                  "--steps", "3", "--out", str(restore)])
        assert rc == 0
        manifest = json.loads((root / "restore.ckpt.manifest.json").read_text())
        assert manifest["command"] == "train" and "corpus_hash" in manifest
        assert (root / "restore.ckpt.trace.csv").exists()
        rc = cli(["eval", "--corpus", corpus,
                  "--qrels", str(data_dir / "qrels.tsv"),
                  "--ckpt", str(restore), "--out", str(root / "run.tsv")])
        assert rc == 0
        out = capsys.readouterr().out
        metrics = json.loads(out.strip().splitlines()[-1])
        assert 0.0 <= metrics["p_at_1"] <= 1.0
        assert (root / "run.tsv").exists()

    @pytest.mark.parametrize("argv, flag", _UNREAD_FLAGS,
                             ids=[f"{argv[0]}{flag}" for argv, flag in _UNREAD_FLAGS])
    def test_flags_a_command_does_not_read_exit_1(self, argv, flag, capsys):
        assert cli(argv) == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-data", "train", "mine", "curate", "profile"])
    def test_out_required_where_a_command_needs_it(self, command, cli_workspace,
                                                   tmp_path, monkeypatch, capsys):
        root, cfg_path, data_dir = cli_workspace
        corpus = str(data_dir / "corpus.jsonl")
        argv = {"gen-data": ["--seed", "0", "--config", str(cfg_path)],
                "train": ["--stage", "restore", "--steps", "1", "--config", str(cfg_path),
                          "--corpus", corpus],
                "mine": ["--corpus", corpus, "--ckpt", str(root / "restore.ckpt")],
                "curate": ["--corpus", corpus, "--config", str(cfg_path)],
                "profile": ["--grid", "4", "--trials", "3"]}[command]
        monkeypatch.chdir(tmp_path)
        assert cli([command, *argv]) == 1
        assert "--out" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # no None.trace.csv or other stray file

    @pytest.mark.parametrize("argv, flag", [
        (["judge", "--k", "0"], "--k"), (["judge", "--k", "-1"], "--k"),
        (["curate", "--k", "0", "--out", "o"], "--k"),
        (["profile", "--trials", "1", "--out", "o"], "--trials"),
        (["profile", "--trials", "2", "--out", "o"], "--trials")],
        ids=["judge-k0", "judge-k-1", "curate-k0", "profile-trials1", "profile-trials2"])
    def test_out_of_range_bound_is_a_usage_error(self, argv, flag, cli_workspace, tmp_path,
                                                 monkeypatch, capsys):
        """A bound below its floor exits 1 where the flag is parsed, before
        any model is built or file written."""
        root, cfg_path, data_dir = cli_workspace
        command, *rest = argv
        if command != "profile":
            rest += ["--corpus", str(data_dir / "corpus.jsonl"), "--config", str(cfg_path)]
        built = []
        monkeypatch.setattr(Model, "__init__", lambda self, *a, **k: built.append(a))
        monkeypatch.chdir(tmp_path)
        assert cli([command, *rest]) == 1
        assert f"argument {flag}: must be >=" in capsys.readouterr().err
        assert not built and not list(tmp_path.iterdir())

    def test_runtime_failure_missing_file_exits_2(self, capsys):
        rc = cli(["eval", "--corpus", "/nonexistent/c.jsonl",
                  "--qrels", "/nonexistent/q.tsv", "--ckpt", "/nonexistent/m"])
        assert rc == 2
        capsys.readouterr()

    def test_experiment_with_a_failed_seed_exits_2(self, monkeypatch, tmp_path, capsys):
        def one_seed(cfg, seed):
            if seed == 1:
                raise RuntimeError("seed 1 diverged")
            return SeedRun(seed, {stage: {"p_at_1": 0.5, "ndcg_at_5": 0.5}
                                  for stage in STAGE_LABELS}, {})
        monkeypatch.setattr(experiment, "run_seed_pipeline", one_seed)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"seeds": [0, 1]}))
        rc = cli(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "seed 1 diverged" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [f["seed"] for f in report["failures"]] == [1]
        assert report["rows"][0]["seed0"] == 0.5

    def test_mine_matches_in_process_mining(self, cli_workspace, capsys):
        root, cfg_path, data_dir = cli_workspace
        corpus = data_dir / "corpus.jsonl"
        ckpt = root / "mine_src.ckpt"
        assert cli(["train", "--stage", "restore", "--seed", "0",
                    "--config", str(cfg_path), "--corpus", str(corpus),
                    "--steps", "1", "--out", str(ckpt)]) == 0
        out = root / "mined.jsonl"
        assert cli(["mine", "--seed", "3", "--corpus", str(corpus),
                    "--ckpt", str(ckpt), "--out", str(out)]) == 0
        capsys.readouterr()
        candidates, queries = split_roles(load_corpus(corpus))
        want = mine_all(Model.load(ckpt), candidates,
                        [q for q in queries if q.split == "train"],
                        StagePlan(stage="global_hnm", seed=3))
        got = [json.loads(line) for line in out.read_text().splitlines()]
        assert got == [{"query_id": qid, "negative_ids": ids} for qid, ids in want.items()]

    def test_model_judge_loads_its_checkpoint_once(self, cli_workspace, monkeypatch,
                                                   capsys):
        """`judge --judge model --ckpt X` loads X once for judge and embedder
        alike, and prints the verdicts of two separately loaded copies."""
        root, cfg_path, data_dir = cli_workspace
        corpus = data_dir / "corpus.jsonl"
        ckpt = root / "judge_src.ckpt"
        assert cli(["train", "--stage", "restore", "--seed", "0",
                    "--config", str(cfg_path), "--corpus", str(corpus),
                    "--steps", "1", "--out", str(ckpt)]) == 0
        candidates, queries = split_roles(load_corpus(corpus))
        want = [f"{s.query_id}\t{v.candidate_id}\t{v.logit_yes!r}\t{v.logit_no!r}\t"
                f"{v.verdict}"
                for s in curation.curate_all(queries, candidates, Model.load(ckpt).embed_many,
                                             curation.ModelJudge(Model.load(ckpt)),
                                             template_id="T2I", k=3)
                for v in s.verdicts]
        loads, load = [], Model.load
        monkeypatch.setattr(Model, "load",
                            classmethod(lambda cls, path: loads.append(path) or load(path)))
        capsys.readouterr()
        assert cli(["judge", "--judge", "model", "--ckpt", str(ckpt),
                    "--corpus", str(corpus), "--k", "3"]) == 0
        assert loads == [str(ckpt)]
        assert capsys.readouterr().out.splitlines() == want


def test_cli_smoke_every_readme_command(cli_workspace, capsys):
    """Each README subcommand on the tiny corpus: exit code and artifacts."""
    root, cfg_path, data_dir = cli_workspace
    ws = root / "smoke"
    ws.mkdir()
    corpus = str(data_dir / "corpus.jsonl")
    qrels = str(data_dir / "qrels.tsv")

    def run(*argv):
        rc = cli([str(a) for a in argv])
        assert rc == 0, (argv, capsys.readouterr().err)
        return capsys.readouterr().out

    def train(stage, out, *extra):
        run("train", "--stage", stage, "--seed", "0", "--corpus", corpus,
            "--steps", "2", "--out", ws / out, *extra)
        for suffix in ("", ".meta.json", ".trace.csv", ".manifest.json"):
            assert (ws / (out + suffix)).exists(), out + suffix
        assert json.loads((ws / (out + ".meta.json")).read_text()) == {"stage": stage}

    train("restore", "restore.ckpt", "--config", cfg_path)
    train("warmup", "warmup.ckpt", "--in-ckpt", ws / "restore.ckpt")
    train("global_hnm", "hnm.ckpt", "--in-ckpt", ws / "warmup.ckpt")
    run("curate", "--corpus", corpus, "--ckpt", ws / "hnm.ckpt", "--judge", "oracle",
        "--out", ws / "curated.jsonl")
    curated = (ws / "curated.jsonl").read_text().splitlines()
    assert curated and all(json.loads(line)["judge_negative_ids"] for line in curated)
    train("judge_ft", "final.ckpt", "--in-ckpt", ws / "hnm.ckpt",
          "--curated", ws / "curated.jsonl")
    train("reranker", "reranker.ckpt", "--in-ckpt", ws / "restore.ckpt",
          "--curated", ws / "curated.jsonl")

    for cmd, extra, stage in (("eval", [], "embed_only"),
                              ("rerank-eval", ["--reranker-ckpt", ws / "reranker.ckpt"],
                               "reranked")):
        out = run(cmd, "--corpus", corpus, "--qrels", qrels, "--ckpt", ws / "final.ckpt",
                  *extra, "--out", ws / f"{cmd}.tsv")
        metrics = json.loads(out.strip().splitlines()[-1])
        assert metrics["stage"] == stage and 0.0 <= metrics["p_at_1"] <= 1.0
        rows = (ws / f"{cmd}.tsv").read_text().splitlines()
        assert rows and all(r.split("\t")[-1] == stage for r in rows)

    run("mine", "--corpus", corpus, "--ckpt", ws / "warmup.ckpt", "--out", ws / "mined.jsonl")
    mined = [json.loads(line) for line in (ws / "mined.jsonl").read_text().splitlines()]
    assert len(mined) == len(curated)  # both cover the train queries
    assert all(set(r) == {"query_id", "negative_ids"} and len(r["negative_ids"]) == 2
               for r in mined)

    out = run("judge", "--corpus", corpus, "--ckpt", ws / "final.ckpt", "--k", "5")
    verdicts = out.strip().splitlines()
    assert verdicts and all(len(v.split("\t")) == 5 for v in verdicts)

    run("profile", "--grid", "4", "--trials", "3", "--out", ws / "profile")
    csv = (ws / "profile" / "efficiency.csv").read_text().splitlines()
    assert csv[0] == "config,#VT_q,l_q (ms),#VT_c,l_c (ms)" and len(csv) == 3

    tiny = json.loads(cfg_path.read_text())
    tiny.update(seeds=[0], sweep_n_hard=[0, 2],
                train={"stage1_steps": 2, "warmup_steps": 2, "hnm_steps": 2,
                       "stage3_steps": 2})
    exp_cfg = ws / "exp.json"
    exp_cfg.write_text(json.dumps(tiny))
    for preset, configs in (("table4", list(STAGE_LABELS.values())),
                            ("table5", ["mllm:n=0", "mllm:n=2", "rule:n=0", "rule:n=2"])):
        run("experiment", "--preset", preset, "--config", exp_cfg, "--out", ws / preset)
        report = json.loads((ws / preset / "report.json").read_text())
        assert report["preset"] == preset and not report["failures"]
        assert [r["config"] for r in report["rows"]] == configs
        for name in ("report.md", "report.csv", "manifest.json"):
            assert (ws / preset / name).exists()


def test_trained_reranker_starts_from_the_restore_state(cfg, monkeypatch):
    """table4 with the trained reranker hands `run_reranker` the restore
    checkpoint, and its reranker trace is finite and repeatable."""
    exp = ExperimentConfig(seeds=[3], model=cfg,
                           data=SyntheticTaskSpec(task_class="T2I", num_classes=3,
                                                  corpus_size=24, queries_per_class=5),
                           train=TrainSettings(stage1_steps=3, warmup_steps=2, hnm_steps=2,
                                               stage3_steps=2, reranker="trained"))
    received = []
    real = experiment.run_reranker

    def capture(model, *args):
        received.append({k: v.data.copy() for k, v in model.params.items()})
        return real(model, *args)
    monkeypatch.setattr(experiment, "run_reranker", capture)
    runs = [experiment.run_seed_pipeline(exp, 3) for _ in range(2)]

    mcfg = replace(cfg, seed=3)
    candidates, _, _ = generate_corpus(replace(exp.data, seed=3), mcfg)
    restored = Model(mcfg)
    run_stage1(restored, instruction_pairs(candidates, 3, mcfg.vocab_size),
               StagePlan(stage="restore", steps=3, batch_size=exp.train.batch_size,
                         peak_lr=exp.train.peak_lr, seed=3))
    assert len(received) == 2
    for params in received:
        assert params.keys() == restored.params.keys()
        assert all(np.array_equal(params[k], restored.params[k].data) for k in params)
    traces = [r.loss_traces["reranker"] for r in runs]
    assert traces[0] and traces[0] == traces[1] and np.isfinite(traces[0]).all()


def test_traced_names_resolve():
    """Every name the benchmark's tracer wraps still exists in vtembed, so
    a deletion fails here rather than in a traced benchmark run."""
    tree = ast.parse((Path(__file__).resolve().parents[1]
                      / "perfbench" / "tracing.py").read_text())
    names = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and getattr(node.targets[0], "id", None) in ("FUNCTIONS", "MODEL_METHODS", "OPS")}
    assert set(names) == {"FUNCTIONS", "MODEL_METHODS", "OPS"}
    missing = [f"{mod}.{fn}" for mod, fn in names["FUNCTIONS"]
               if not callable(getattr(importlib.import_module(f"vtembed.{mod}"), fn, None))]
    missing += [f"Model.{m}" for m in names["MODEL_METHODS"]
                if not callable(getattr(Model, m, None))]
    missing += [f"autograd.{op}" for op in names["OPS"]
                if not callable(getattr(autograd, op, None))]
    assert not missing


def _count_corpus_encodes(exp, monkeypatch, cfg):
    """A list that gets one True per `Model.embed_many` call over seed 0's
    whole corpus, and one False per other call."""
    candidates, _, _ = generate_corpus(replace(exp.data, seed=0), cfg)
    corpus_ids = [c.example_id for c in candidates]
    encodes = []
    real = Model.embed_many

    def counting(self, examples, *args, **kwargs):
        examples = list(examples)
        encodes.append([e.example_id for e in examples] == corpus_ids)
        return real(self, examples, *args, **kwargs)
    monkeypatch.setattr(Model, "embed_many", counting)
    return encodes


def _encode_count_config(cfg, **train):
    return ExperimentConfig(seeds=[0], model=cfg,
                            data=SyntheticTaskSpec(task_class="T2I", num_classes=3,
                                                   corpus_size=24, queries_per_class=5),
                            train=TrainSettings(stage1_steps=1, warmup_steps=1, hnm_steps=1,
                                                stage3_steps=1, **train))


@pytest.mark.parametrize("reranker", ["oracle", "trained"])
def test_seed_pipeline_encodes_the_corpus_once_per_evaluated_state(cfg, monkeypatch,
                                                                   reranker):
    """One index per model state: the warmup state's (mining and its eval),
    the HNM state's (its eval and curation) and the judge-FT state's (the
    +judge-FT and +reranker rows): 3 encodes."""
    exp = _encode_count_config(cfg, reranker=reranker)
    encodes = _count_corpus_encodes(exp, monkeypatch, cfg)
    run = experiment.run_seed_pipeline(exp, 0)
    assert set(run.metrics) == set(STAGE_LABELS)
    assert sum(encodes) == 3


def test_table5_seed_encodes_the_corpus_once_per_model_state(cfg, monkeypatch):
    """The warmup state (mining), the HNM state (curation for both judge
    arms) and one judge-FT state per (arm, n): 2 + 2 * |sweep| encodes."""
    exp = _encode_count_config(cfg)
    encodes = _count_corpus_encodes(exp, monkeypatch, cfg)
    out = experiment.run_table5_seed(exp, 0, [0, 2])
    assert sorted(out) == ["mllm:n=0", "mllm:n=2", "rule:n=0", "rule:n=2"]
    assert sum(encodes) == 6


# (callable, positional argument count, keywords) of each call shape in
# perfbench/workloads.py
_BENCHMARK_CALLS = [
    (mine_all, 4, ()),
    (curation.curate_all, 4, ("template_id", "k")),
    (retrieval.search, 2, ("k", "query_id")),
    (retrieval.rerank_topk, 2, ("k_rerank",)),
    (experiment.model_scorer, 3, ()),
    (run_experiment, 1, ()),
    (profiler.measure_encode, 2, ("trials", "label")),
    (profiler.token_budget, 1, ("has_image",)),
    (TrainSettings, 0, ("stage1_steps", "warmup_steps", "hnm_steps", "stage3_steps",
                        "peak_lr", "stage3_lr")),
    (ExperimentConfig, 0, ("preset", "seeds", "model", "data", "train")),
    (StagePlan, 0, ("stage", "seed")),
    (ModelConfig, 0, ("patch_h", "patch_w", "max_seq_len", "seed")),
    (SyntheticTaskSpec, 0, ("task_class", "num_classes", "corpus_size",
                            "queries_per_class", "seed")),
    (generate_corpus, 2, ()),
    (with_compression, 2, ()),
    (curation.ClassOracleJudge, 0, ("seed",)),
]


@pytest.mark.parametrize("fn, args, kwargs", _BENCHMARK_CALLS,
                         ids=[fn.__name__ for fn, _, _ in _BENCHMARK_CALLS])
def test_benchmark_call_shapes_bind(fn, args, kwargs):
    """Each call shape `perfbench/workloads.py` uses still binds, so a
    signature change fails here rather than in a benchmark run."""
    inspect.signature(fn).bind(*[None] * args, **dict.fromkeys(kwargs))


def test_benchmark_reads_of_library_defaults():
    assert StagePlan(stage="global_hnm", seed=0).mine_window == DEFAULT_MINE_WINDOW
    batch = inspect.signature(Model.embed_many).parameters["batch_size"].default
    assert isinstance(batch, int) and batch > 0
