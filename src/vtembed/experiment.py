"""End-to-end pipeline slices, ablation presets, and run manifests.

`table4` reproduces the cumulative-component ablation layout (warmup /
+global-HNM / +judge-FT / +reranker); `table5` sweeps the number and type
of stage-3 hard negatives (judge-based vs rule-based top-K-minus-positive).
Metrics are directional at desk scale; absolute values carry no meaning.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .curation import (
    DEFAULT_JUDGE_K,
    AlwaysIrrelevantJudge,
    ClassOracleJudge,
    ModelJudge,
    curate_index,
)
from .data import SyntheticTaskSpec, generate_corpus, instruction_pairs
from .model import Model, ModelConfig, MultimodalExample
from .retrieval import (
    DEFAULT_RERANK_K,
    CandidateIndex,
    Qrels,
    RankedResult,
    ndcg_at_5,
    precision_at_1,
    rerank_topk,
    search,
)
from .trainer import (
    StagePlan,
    mine_index,
    run_global_hnm,
    run_reranker,
    run_stage1,
    run_stage3,
    run_warmup,
)

CONFIG_SCHEMA_VERSION = 1
EVAL_K = 10  # ranking depth of every evaluation
RERANKERS = ("oracle", "trained")


class ExperimentConfigError(ValueError):
    pass


@dataclass
class TrainSettings:
    stage1_steps: int = 60
    warmup_steps: int = 200    # deliberately short: leaves headroom for HNM
    hnm_steps: int = 400
    stage3_steps: int = 300
    batch_size: int = 8
    peak_lr: float = 3e-3
    stage3_lr: float = 1e-3    # gentler fine-tuning on judge hard negatives
    n_hard: int = 12
    judge_noise: float = 0.0
    reranker: str = "oracle"  # one of RERANKERS

    def __post_init__(self):
        if self.reranker not in RERANKERS:
            raise ExperimentConfigError(
                f"unknown reranker {self.reranker!r}, expected one of {RERANKERS}")


@dataclass
class ExperimentConfig:
    preset: str = "table4"
    seeds: List[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    model: ModelConfig = field(default_factory=ModelConfig)
    data: SyntheticTaskSpec = field(default_factory=SyntheticTaskSpec)
    train: TrainSettings = field(default_factory=TrainSettings)
    sweep_n_hard: List[int] = field(default_factory=lambda: [0, 4, 8, 12, 16, 20])

    def to_dict(self) -> dict:
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "preset": self.preset,
            "seeds": self.seeds,
            "model": self.model.to_dict(),
            "data": self.data.to_dict(),
            "train": {k: getattr(self.train, k)
                      for k in self.train.__dataclass_fields__},
            "sweep_n_hard": self.sweep_n_hard,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        version = d.get("schema_version", CONFIG_SCHEMA_VERSION)
        if version != CONFIG_SCHEMA_VERSION:
            raise ExperimentConfigError(f"config schema version {version} unsupported")
        unknown = sorted(set(d) - set(cls.__dataclass_fields__) - {"schema_version"})
        if unknown:
            raise ExperimentConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
        given = {k: d[k] for k in ("preset", "seeds", "sweep_n_hard") if k in d}
        return cls(**given,
                   model=_section(ModelConfig, d, "model"),
                   data=_section(SyntheticTaskSpec, d, "data"),
                   train=_section(TrainSettings, d, "train"))

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _section(kind, d: dict, name: str):
    """Section `name` of a config dict as a `kind`; unset fields keep their
    defaults and an unknown key is an ExperimentConfigError."""
    given = d.get(name, {})
    unknown = sorted(set(given) - set(kind.__dataclass_fields__))
    if unknown:
        raise ExperimentConfigError(f"unknown {name} key(s): {', '.join(unknown)}")
    return kind(**given)


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return ExperimentConfig.from_dict(json.load(f))


# ---- evaluation ----

def retrieval_metrics(results: Sequence[RankedResult], qrels: Qrels) -> Dict[str, float]:
    return {"p_at_1": precision_at_1(results, qrels),
            "ndcg_at_5": ndcg_at_5(results, qrels)}


def embed_results(index: CandidateIndex, model: Model,
                  queries: Sequence[MultimodalExample]) -> List[RankedResult]:
    """Embed-only top-EVAL_K ranking of `index`, the candidates embedded by
    `model`, for each query."""
    k = min(EVAL_K, len(index))
    return [search(index, e.vector, k=k, query_id=q.example_id)
            for q, e in zip(queries, model.embed_many(list(queries)))]


def evaluate_embedder(index: CandidateIndex, model: Model,
                      queries: Sequence[MultimodalExample], qrels: Qrels) -> Dict[str, float]:
    return retrieval_metrics(embed_results(index, model, queries), qrels)


def oracle_scorer(query_id: str, qrels: Qrels) -> Callable[[str], float]:
    """Rerank scorer consistent with ground truth: margin +1 if relevant."""
    rel = qrels[query_id]
    return lambda cid: 1.0 if rel.get(cid, 0) > 0 else -1.0


def model_scorer(reranker: Model, query: MultimodalExample,
                 by_id: Dict[str, MultimodalExample]) -> Callable[[str], float]:
    """Pointwise YES-NO logit margin from a trained reranker."""
    judge = ModelJudge(reranker)

    def score(cid: str) -> float:
        logit_yes, logit_no = judge.judge_logits(query, by_id[cid])
        return logit_yes - logit_no
    return score


def two_stage_results(results: Sequence[RankedResult],
                      candidates: Sequence[MultimodalExample],
                      queries: Sequence[MultimodalExample], qrels: Qrels,
                      reranker: Optional[Model] = None) -> List[RankedResult]:
    """Pointwise-rerank the top DEFAULT_RERANK_K of each embed-only result
    (from `embed_results`); oracle scorer when no reranker model is given."""
    by_id = {c.example_id: c for c in candidates}
    q_by_id = {q.example_id: q for q in queries}
    return [rerank_topk(r, model_scorer(reranker, q_by_id[r.query_id], by_id)
                        if reranker is not None else oracle_scorer(r.query_id, qrels),
                        k_rerank=min(DEFAULT_RERANK_K, len(r.ids)))
            for r in results]


def evaluate_two_stage(results: Sequence[RankedResult],
                       candidates: Sequence[MultimodalExample],
                       queries: Sequence[MultimodalExample], qrels: Qrels,
                       reranker: Optional[Model] = None) -> Dict[str, float]:
    return retrieval_metrics(two_stage_results(results, candidates, queries, qrels,
                                               reranker), qrels)


# ---- pipeline per seed ----

@dataclass
class SeedRun:
    seed: int
    metrics: Dict[str, Dict[str, float]]
    loss_traces: Dict[str, List[float]]


def _plan(stage: str, steps: int, tr: TrainSettings, seed: int, **kw) -> StagePlan:
    lr = tr.stage3_lr if stage == "judge_ft" else tr.peak_lr
    return StagePlan(stage=stage, steps=steps, batch_size=tr.batch_size,
                     peak_lr=lr, seed=seed, **kw)


@dataclass
class _Seed:
    """One seed's corpus, its model trained through global HNM, copies of the
    restore and warmup states, and one corpus index per evaluated state."""
    task_class: str
    candidates: List[MultimodalExample]
    queries: List[MultimodalExample]
    qrels: Qrels
    train_q: List[MultimodalExample]
    eval_q: List[MultimodalExample]
    restored: Model   # where the trained reranker starts
    warmed: Model
    warm_index: CandidateIndex
    model: Model
    hnm_index: CandidateIndex
    traces: Dict[str, List[float]]


def _trained_through_hnm(cfg: ExperimentConfig, seed: int) -> _Seed:
    """The prefix every preset shares: restore -> warmup -> global HNM."""
    tr = cfg.train
    mcfg, dspec = replace(cfg.model, seed=seed), replace(cfg.data, seed=seed)
    candidates, queries, qrels = generate_corpus(dspec, mcfg)
    model = Model(mcfg)
    r1 = run_stage1(model, instruction_pairs(candidates, dspec.seed, mcfg.vocab_size),
                    _plan("restore", tr.stage1_steps, tr, seed))
    restored = model.clone()
    rw = run_warmup(model, candidates, queries, _plan("warmup", tr.warmup_steps, tr, seed))
    warmed = model.clone()
    warm_index = CandidateIndex.build(model.embed_many(candidates))
    train_q = [q for q in queries if q.split == "train"]
    hnm = _plan("global_hnm", tr.hnm_steps, tr, seed)
    rh = run_global_hnm(model, candidates, queries, hnm,
                        mine_index(warm_index, model, train_q, hnm))
    return _Seed(task_class=dspec.task_class, candidates=candidates, queries=queries,
                 qrels=qrels, train_q=train_q,
                 eval_q=[q for q in queries if q.split == "eval"],
                 restored=restored, warmed=warmed, warm_index=warm_index, model=model,
                 hnm_index=CandidateIndex.build(model.embed_many(candidates)),
                 traces={"restore": r1.loss_trace, "warmup": rw.loss_trace,
                         "global_hnm": rh.loss_trace})


def _curated(s: _Seed, judge):
    """Curate the train queries with the HNM state."""
    return curate_index(s.hnm_index, s.train_q, s.candidates, s.model.embed_many, judge,
                        s.task_class, min(DEFAULT_JUDGE_K, len(s.candidates)))


def _judge_ft(s: _Seed, curated, n_hard: int, tr: TrainSettings, seed: int):
    """A copy of the HNM state fine-tuned on `curated` with `n_hard` judge
    negatives per query: the model, its corpus index and its loss trace."""
    model = s.model.clone()
    r3 = run_stage3(model, s.candidates, s.queries, curated,
                    _plan("judge_ft", tr.stage3_steps, tr, seed, n_hard=n_hard))
    return model, CandidateIndex.build(model.embed_many(s.candidates)), r3.loss_trace


def run_seed_pipeline(cfg: ExperimentConfig, seed: int) -> SeedRun:
    """Run the cumulative pipeline for one seed, evaluating after each
    stage on the held-out queries."""
    tr = cfg.train
    s = _trained_through_hnm(cfg, seed)
    candidates, queries, eval_q, qrels = s.candidates, s.queries, s.eval_q, s.qrels
    traces = dict(s.traces)
    metrics = {"warmup": evaluate_embedder(s.warm_index, s.warmed, eval_q, qrels),
               "global_hnm": evaluate_embedder(s.hnm_index, s.model, eval_q, qrels)}

    curated = _curated(s, ClassOracleJudge(noise_rate=tr.judge_noise, seed=seed))
    model, ft_index, traces["judge_ft"] = _judge_ft(s, curated, tr.n_hard, tr, seed)
    results = embed_results(ft_index, model, eval_q)  # both rows rank this once
    metrics["judge_ft"] = retrieval_metrics(results, qrels)
    reranker = s.restored if tr.reranker == "trained" else None
    if reranker is not None:
        rr = run_reranker(reranker, candidates, queries, curated,
                          _plan("reranker", 0, tr, seed))
        traces["reranker"] = rr.loss_trace
    metrics["reranker"] = evaluate_two_stage(results, candidates, eval_q, qrels,
                                             reranker=reranker)
    return SeedRun(seed=seed, metrics=metrics, loss_traces=traces)


def run_table5_seed(cfg: ExperimentConfig, seed: int, n_values: Sequence[int]) -> SeedRun:
    """Stage-3 sweep for one seed: hard-negative count x judge type.

    The prefix through global-HNM and its index are shared; each (arm, n)
    trains its own stage-3 copy from that checkpoint. Metrics and stage-3
    traces are keyed "{arm}:n={n}", beside the shared prefix's traces.
    """
    tr = cfg.train
    s = _trained_through_hnm(cfg, seed)
    judges = {"mllm": ClassOracleJudge(noise_rate=tr.judge_noise, seed=seed),
              "rule": AlwaysIrrelevantJudge()}
    metrics: Dict[str, Dict[str, float]] = {}
    traces = dict(s.traces)
    for arm, judge in judges.items():
        curated = _curated(s, judge)
        for n in n_values:
            key = f"{arm}:n={n}"
            model, index, traces[key] = _judge_ft(s, curated, n, tr, seed)
            metrics[key] = evaluate_embedder(index, model, s.eval_q, s.qrels)
    return SeedRun(seed=seed, metrics=metrics, loss_traces=traces)


# ---- report assembly ----

STAGE_LABELS = {"warmup": "warmup", "global_hnm": "+global-HNM",
                "judge_ft": "+judge-FT", "reranker": "+reranker"}


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Execute the configured preset and assemble a consolidated report.

    A seed that raises ValueError or RuntimeError (every vtembed error
    subclasses one of the two) is recorded under `failures`; any other
    exception is a fault in the program and propagates. The run raises
    ExperimentConfigError when every seed failed.
    """
    runners = {"table4": lambda seed: run_seed_pipeline(cfg, seed),
               "table5": lambda seed: run_table5_seed(cfg, seed, cfg.sweep_n_hard)}
    if cfg.preset not in runners:
        raise ExperimentConfigError(f"unknown preset {cfg.preset!r}")
    done = {}
    failures: List[dict] = []
    for seed in cfg.seeds:
        try:
            done[seed] = runners[cfg.preset](seed)
        except (ValueError, RuntimeError) as exc:  # partial report with failure annotation
            failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
    if not done:
        raise ExperimentConfigError("all seeds failed: " + json.dumps(failures))

    runs = list(done.values())
    traces = {str(r.seed): r.loss_traces for r in runs}
    rows: List[dict] = []
    for key in runs[0].metrics:
        p_at_1 = {f"seed{r.seed}": r.metrics[key]["p_at_1"] for r in runs}
        rows.append({
            "config": STAGE_LABELS.get(key, key),
            **p_at_1,
            "median_p_at_1": statistics.median(p_at_1.values()),
            "median_ndcg_at_5": statistics.median(r.metrics[key]["ndcg_at_5"] for r in runs),
        })

    report = {
        "preset": cfg.preset,
        "rows": rows,
        "failures": failures,
        "loss_traces": traces,
        "manifest": {
            "config_hash": cfg.config_hash(),
            "seeds": cfg.seeds,
            "config": cfg.to_dict(),
        },
    }
    report["manifest"]["content_id"] = hashlib.sha256(
        json.dumps({"rows": rows, "traces": traces}, sort_keys=True).encode()
    ).hexdigest()[:16]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=2))
        (out / "report.md").write_text(report_markdown(report))
        (out / "report.csv").write_text(report_csv(report))
        (out / "manifest.json").write_text(json.dumps(report["manifest"], indent=2))
    return report


def _columns(rows: List[dict]) -> List[str]:
    return list(dict.fromkeys(k for r in rows for k in r))  # in first-seen order


def _cell(row: dict, col: str) -> str:
    v = row.get(col)
    if v is None:
        return "-"
    return f"{v:.4f}" if isinstance(v, float) else str(v)


def report_markdown(report: dict) -> str:
    cols = _columns(report["rows"])
    lines = ["| " + " | ".join(cols) + " |",
             "|" + "|".join("---" for _ in cols) + "|"]
    lines += ["| " + " | ".join(_cell(r, c) for c in cols) + " |"
              for r in report["rows"]]
    return "\n".join(lines) + "\n"


def report_csv(report: dict) -> str:
    cols = _columns(report["rows"])
    lines = [",".join(cols)]
    lines += [",".join(_cell(r, c) for c in cols) for r in report["rows"]]
    return "\n".join(lines) + "\n"
