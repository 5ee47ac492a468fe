"""Command-line entry points for every pipeline stage and experiment."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .curation import (
    DEFAULT_JUDGE_K,
    AlwaysIrrelevantJudge,
    ClassOracleJudge,
    ModelJudge,
    curate_all,
    load_curated,
    save_curated,
)
from .data import (
    generate_corpus,
    instruction_pairs,
    load_corpus,
    save_corpus,
    split_roles,
)
from .experiment import (
    ExperimentConfig,
    embed_results,
    load_config,
    report_markdown,
    retrieval_metrics,
    run_experiment,
    two_stage_results,
)
from .autograd import Grid2D
from .model import Model, MultimodalExample, with_compression
from .profiler import emit_efficiency_table, measure_encode, token_budget
from .retrieval import (
    CandidateIndex,
    corpus_digest,
    load_qrels,
    save_qrels,
    save_results,
)
from .trainer import (
    REQUIRED_PREDECESSOR,
    STAGES,
    StagePlan,
    check_predecessor,
    load_stage_checkpoint,
    mine_all,
    run_global_hnm,
    run_reranker,
    run_stage1,
    run_stage3,
    run_warmup,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _write_manifest(path, payload: dict):
    """Write `payload` plus a hash of it, which names the run."""
    payload = {**payload, "manifest_hash": hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]}
    Path(path).write_text(json.dumps(payload, indent=2))


def _side_manifest(args, command: str, **extra):
    """Per-run manifest next to --out: enough to reproduce bit-for-bit."""
    payload = {"command": command,
               "seed": getattr(args, "seed", None),
               "config": getattr(args, "config", None), **extra}
    if getattr(args, "corpus", None):
        payload["corpus_hash"] = corpus_digest(args.corpus)
    _write_manifest(str(args.out) + ".manifest.json", payload)


def _config(args) -> ExperimentConfig:
    return load_config(args.config) if args.config else ExperimentConfig()


def _seeded(section, args):
    """A model or data config section with --seed applied when given."""
    return section if args.seed is None else replace(section, seed=args.seed)


def _make_judge(name: str, noise: float, seed: int, model: Optional[Model]):
    if name == "oracle":
        return ClassOracleJudge(noise_rate=noise, seed=seed)
    if name == "rule":
        return AlwaysIrrelevantJudge()
    if model is None:  # the model judge
        raise ValueError("--ckpt required for the model judge")
    return ModelJudge(model)


def cmd_gen_data(args) -> int:
    exp = _config(args)
    cfg, spec = _seeded(exp.model, args), _seeded(exp.data, args)
    candidates, queries, qrels = generate_corpus(spec, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(out / "corpus.jsonl", candidates + queries)
    save_qrels(out / "qrels.tsv", qrels)
    _write_manifest(out / "manifest.json",
                    {"command": "gen-data", "data": spec.to_dict(), "model": cfg.to_dict(),
                     "corpus_hash": corpus_digest(out / "corpus.jsonl")})
    print(f"wrote {len(candidates)} candidates, {len(queries)} queries to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    examples = load_corpus(args.corpus)
    candidates, queries = split_roles(examples)
    stage = args.stage
    if args.in_ckpt:
        model = load_stage_checkpoint(args.in_ckpt, REQUIRED_PREDECESSOR[stage])
    else:
        check_predecessor(stage, None)
        model = Model(_seeded(_config(args).model, args))
    plan = StagePlan(stage=stage, steps=args.steps, batch_size=args.batch_size,
                     peak_lr=args.lr, seed=args.seed or 0, n_hard=args.n_hard,
                     output_checkpoint=args.out)
    if stage == "restore":
        pairs = instruction_pairs(candidates, args.seed or 0, model.cfg.vocab_size)
        report = run_stage1(model, pairs, plan)
    elif stage == "warmup":
        report = run_warmup(model, candidates, queries, plan)
    elif stage == "global_hnm":
        mined = mine_all(model, candidates, [q for q in queries if q.split == "train"], plan)
        report = run_global_hnm(model, candidates, queries, plan, mined)
    elif stage == "judge_ft":
        curated = load_curated(args.curated)
        report = run_stage3(model, candidates, queries, curated, plan)
    else:  # reranker
        curated = load_curated(args.curated)
        report = run_reranker(model, candidates, queries, curated, plan)
    report.save_trace_csv(str(args.out) + ".trace.csv")
    _side_manifest(args, "train", stage=stage, in_ckpt=args.in_ckpt,
                   steps=plan.steps, batch_size=plan.batch_size,
                   lr=plan.peak_lr, config_hash=report.config_hash)
    print(f"{stage}: final loss {report.final_loss:.4f} "
          f"({len(report.loss_trace)} steps, {report.wall_clock:.1f}s)")
    return EXIT_OK


def cmd_mine(args) -> int:
    """Mine the train queries exactly as `train --stage global_hnm` does."""
    examples = load_corpus(args.corpus)
    candidates, queries = split_roles(examples)
    model = Model.load(args.ckpt)
    plan = StagePlan(stage="global_hnm", seed=args.seed or 0)
    mined = mine_all(model, candidates, [q for q in queries if q.split == "train"], plan)
    with open(args.out, "w") as f:
        for qid, negative_ids in mined.items():
            f.write(json.dumps({"query_id": qid, "negative_ids": negative_ids}) + "\n")
    _side_manifest(args, "mine", ckpt=args.ckpt)
    print(f"mined negatives for {len(mined)} queries -> {args.out}")
    return EXIT_OK


def _judged(args, wanted):
    """Retrieve and judge the corpus queries for which `wanted(q)` holds."""
    candidates, queries = split_roles(load_corpus(args.corpus))
    # one load serves both the model judge and the embedder
    loaded = Model.load(args.ckpt) if args.ckpt else None
    judge = _make_judge(args.judge, args.noise, args.seed or 0, loaded)
    embed_model = loaded if loaded is not None else Model(_seeded(_config(args).model, args))
    return curate_all([q for q in queries if wanted(q)], candidates,
                      embed_model.embed_many, judge, template_id=args.template,
                      k=min(args.k, len(candidates)))


def cmd_judge(args) -> int:
    for s in _judged(args, lambda q: args.query_id in (None, q.example_id)):
        for v in s.verdicts:
            print(f"{s.query_id}\t{v.candidate_id}\t{v.logit_yes!r}\t"
                  f"{v.logit_no!r}\t{v.verdict}")
    return EXIT_OK


def cmd_curate(args) -> int:
    samples = _judged(args, lambda q: q.split == "train")
    save_curated(args.out, samples)
    _side_manifest(args, "curate", ckpt=args.ckpt, judge=args.judge,
                   noise=args.noise, k=args.k, template=args.template)
    print(f"curated {len(samples)} queries -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    """`eval` ranks by embedding only; `rerank-eval` also reranks."""
    examples = load_corpus(args.corpus)
    candidates, queries = split_roles(examples)
    qrels = load_qrels(args.qrels)
    eval_q = [q for q in queries if q.split == "eval"] or queries
    model = Model.load(args.ckpt)
    results = embed_results(CandidateIndex.build(model.embed_many(candidates)), model, eval_q)
    if args.command == "rerank-eval":
        reranker = Model.load(args.reranker_ckpt) if args.reranker_ckpt else None
        results = two_stage_results(results, candidates, eval_q, qrels, reranker)
    if args.out:
        save_results(args.out, results)
        _side_manifest(args, args.command, ckpt=args.ckpt,
                       reranker_ckpt=getattr(args, "reranker_ckpt", None))
    print(json.dumps({"stage": results[0].stage, **retrieval_metrics(results, qrels)}))
    return EXIT_OK


def cmd_profile(args) -> int:
    factors = [int(x) for x in args.factors.split(",")]
    base = replace(_seeded(_config(args).model, args), patch_h=args.grid,
                   patch_w=args.grid, max_seq_len=args.grid * args.grid + 32)
    profiles = []
    for s in factors:
        cfg = with_compression(base, s)
        model = Model(cfg)
        rng = np.random.default_rng(cfg.seed)
        grid = Grid2D(rng.normal(0, 1, (cfg.patch_h, cfg.patch_w, cfg.vision_channels)))
        cand = MultimodalExample(example_id="pc", role="candidate", visual=grid)
        query = MultimodalExample(example_id="pq", role="query", text=(20, 21, 22, 23))
        profiles.append(measure_encode(model, query, trials=args.trials, label=f"s={s}"))
        profiles.append(measure_encode(model, cand, trials=args.trials, label=f"s={s}"))
        print(f"s={s}: candidate visual tokens {token_budget(cfg)}")
    tables = emit_efficiency_table(profiles)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "efficiency.md").write_text(tables["markdown"])
    (out / "efficiency.csv").write_text(tables["csv"])
    print(tables["markdown"])
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = _config(args)
    if args.preset is not None:  # the flag wins over the config's preset
        cfg.preset = args.preset
    if args.seed is not None:
        cfg.seeds = [args.seed + i for i in range(len(cfg.seeds))]
    report = run_experiment(cfg, out_dir=args.out)
    print(report_markdown(report))
    if report["failures"]:
        sys.stderr.write("failed seeds: " + json.dumps(report["failures"], indent=2) + "\n")
        return EXIT_RUNTIME
    return EXIT_OK


# The flags several subcommands share; each subcommand takes only those it reads.
# "--out?" is an optional --out, for the commands that also run without one.
_SHARED_FLAGS = {"--seed": {"type": int, "default": None}, "--config": {"default": None},
                 "--out": {"required": True}, "--out?": {"default": None},
                 "--corpus": {"required": True},
                 "--qrels": {"required": True}, "--ckpt": {"required": True}}


def _int_at_least(low: int):
    """An argparse type: an int no smaller than `low`, else a usage error."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return parse


def build_parser() -> _Parser:
    p = _Parser(prog="vtembed", description="Compressed multimodal embedding pipeline")
    plan = StagePlan(stage="restore")  # source of the train defaults
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        sp = sub.add_parser(name, help=help)
        for flag in flags:
            sp.add_argument(flag.rstrip("?"), **_SHARED_FLAGS[flag])
        sp.set_defaults(func=func)
        return sp

    command("gen-data", cmd_gen_data, "generate a synthetic corpus + qrels",
            "--seed", "--config", "--out")

    sp = command("train", cmd_train, "run one training stage",
                 "--seed", "--config", "--out", "--corpus")
    sp.add_argument("--stage", required=True, choices=STAGES)
    sp.add_argument("--in-ckpt", default=None)
    sp.add_argument("--curated", default=None)
    sp.add_argument("--steps", type=int, default=plan.steps)
    sp.add_argument("--batch-size", type=int, default=plan.batch_size)
    sp.add_argument("--lr", type=float, default=plan.peak_lr)
    sp.add_argument("--n-hard", type=int, default=plan.n_hard)

    command("mine", cmd_mine, "global hard negative mining",
            "--seed", "--out", "--corpus", "--ckpt")

    for name, fn, out in (("judge", cmd_judge, ()), ("curate", cmd_curate, ("--out",))):
        sp = command(name, fn, f"{name} retrieved candidates",
                     "--seed", "--config", "--corpus", *out)
        sp.add_argument("--ckpt", default=None)  # default: a fresh model embeds
        sp.add_argument("--judge", default="oracle", choices=["oracle", "rule", "model"])
        sp.add_argument("--noise", type=float, default=0.0)
        sp.add_argument("--k", type=_int_at_least(1), default=DEFAULT_JUDGE_K)
        sp.add_argument("--template", default="T2I")
        if name == "judge":
            sp.add_argument("--query-id", default=None)

    command("eval", cmd_eval, "embed-only retrieval evaluation",
            "--out?", "--corpus", "--qrels", "--ckpt")
    sp = command("rerank-eval", cmd_eval, "two-stage retrieval evaluation",
                 "--out?", "--corpus", "--qrels", "--ckpt")
    sp.add_argument("--reranker-ckpt", default=None)

    sp = command("profile", cmd_profile, "token budgets and encode latency",
                 "--seed", "--config", "--out")
    sp.add_argument("--factors", default="1,2")
    sp.add_argument("--grid", type=int, default=16)
    sp.add_argument("--trials", type=_int_at_least(3), default=5)

    sp = command("experiment", cmd_experiment, "run an ablation preset",
                 "--seed", "--config", "--out?")
    sp.add_argument("--preset", default=None, choices=["table4", "table5"],
                    help="default: the config's preset, else table4")
    return p


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failures map to exit 2
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_RUNTIME


def main():
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
