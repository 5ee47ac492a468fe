"""Three-stage progressive training plus joint reranker training.

Stage order is restore -> warmup -> global_hnm -> judge_ft; the reranker
branches from the restore checkpoint. Every run draws randomness from a
single seed split hierarchically per (stage, step), so adding a stage
never perturbs another stage's stream.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import vocab
from .autograd import Tensor, add, take_rows
from .curation import (
    DEFAULT_MINE_COUNT,
    DEFAULT_MINE_WINDOW,
    DEFAULT_STAGE3_HARD_NEGATIVES,
    CuratedSample,
    build_stage3_batch,
    mine_from_index,
)
from .model import Model, MultimodalExample, SerializedInput, serialize
from .objectives import (
    ContrastiveBatch,
    info_nce,
    listwise_loss,
    ntp_loss,
    pointwise_loss,
    total_rerank_loss,
)
from .retrieval import CandidateIndex

STAGES = ("restore", "warmup", "global_hnm", "judge_ft", "reranker")
REQUIRED_PREDECESSOR = {"restore": None, "warmup": "restore",
                        "global_hnm": "warmup", "judge_ft": "global_hnm",
                        "reranker": "restore"}
RERANKER_EPOCHS = 2

logger = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    pass


class StageOrderError(RuntimeError):
    pass


class GradientError(RuntimeError):
    pass


@dataclass
class StagePlan:
    stage: str
    steps: int = 100
    batch_size: int = 8
    peak_lr: float = 3e-4
    seed: int = 0
    n_hard: int = DEFAULT_STAGE3_HARD_NEGATIVES  # judge_ft only
    output_checkpoint: Optional[str] = None
    mine_count: ClassVar[int] = DEFAULT_MINE_COUNT  # global_hnm only
    mine_window: ClassVar[Tuple[int, int]] = DEFAULT_MINE_WINDOW

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")


@dataclass
class TrainReport:
    stage: str
    loss_trace: List[float]
    final_loss: float
    wall_clock: float
    checkpoint_path: Optional[str]
    config_hash: str

    def save_trace_csv(self, path):
        with open(path, "w") as f:
            f.write("step,loss\n")
            for i, loss in enumerate(self.loss_trace):
                f.write(f"{i},{loss!r}\n")


def _config_hash(plan: StagePlan, model: Model) -> str:
    blob = json.dumps({"plan": asdict(plan), "model": model.cfg.to_dict()},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _step_rng(plan: StagePlan, step: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([plan.seed, STAGES.index(plan.stage), step]))


# ---- optimizer ----

@dataclass
class AdamState:
    peak_lr: float
    total_steps: int
    warmup_frac: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)

    def lr(self) -> float:
        t = self.step_count
        warmup = int(round(self.warmup_frac * self.total_steps))
        if warmup > 0 and t < warmup:
            return self.peak_lr * (t + 1) / warmup
        denom = max(self.total_steps - warmup, 1)
        progress = min((t - warmup) / denom, 1.0)
        return self.peak_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


def optimizer_step(params: Dict[str, Tensor], state: AdamState):
    """Adam update with linear warmup then cosine decay to zero.

    Reads gradients from each parameter's grad buffer and clears them.
    """
    lr = state.lr()
    state.step_count += 1
    t = state.step_count
    for name in sorted(params):
        p = params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise GradientError(f"non-finite gradient in parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        mhat = state.m[name] / (1 - state.beta1 ** t)
        vhat = state.v[name] / (1 - state.beta2 ** t)
        p.data -= lr * mhat / (np.sqrt(vhat) + state.eps)
        p.grad = None


# ---- shared step machinery ----

class _DivergenceWatch:
    def __init__(self, patience: int = 100, factor: float = 10.0):
        self.initial: Optional[float] = None
        self.bad = 0
        self.patience = patience
        self.factor = factor

    def check(self, loss: float, stage: str):
        if self.initial is None:
            self.initial = loss
        if loss > self.factor * self.initial:
            self.bad += 1
            if self.bad >= self.patience:
                raise DivergenceError(
                    f"{stage}: loss {loss:.4g} exceeded 10x initial "
                    f"{self.initial:.4g} for {self.patience} consecutive steps")
        else:
            self.bad = 0


def _train_loop(model: Model, plan: StagePlan, steps: int,
                loss_at: Callable[[int, np.random.Generator], Tensor],
                t0: float) -> TrainReport:
    """The one optimisation loop every stage runs: `loss_at(step, rng)`
    builds the step's loss from that step's own random stream."""
    opt = AdamState(plan.peak_lr, steps)
    watch = _DivergenceWatch()
    trace = []
    for step in range(steps):
        loss = loss_at(step, _step_rng(plan, step))
        loss.backward()
        optimizer_step(model.params, opt)
        trace.append(loss.item())
        watch.check(trace[-1], plan.stage)
    return _finish(model, plan, trace, t0)


def _finish(model: Model, plan: StagePlan, trace: List[float], t0: float) -> TrainReport:
    path = plan.output_checkpoint
    if path:
        # The stage record goes first and comes back last, and each file is
        # renamed into place whole: a crash leaves no record over a partial file.
        meta = Path(f"{path}.meta.json")
        meta.unlink(missing_ok=True)
        model.save(f"{path}.tmp")
        os.replace(f"{path}.tmp", path)
        Path(f"{meta}.tmp").write_text(json.dumps({"stage": plan.stage}))
        os.replace(f"{meta}.tmp", meta)
    return TrainReport(stage=plan.stage, loss_trace=trace,
                       final_loss=trace[-1] if trace else float("nan"),
                       wall_clock=time.perf_counter() - t0,
                       checkpoint_path=str(path) if path else None,
                       config_hash=_config_hash(plan, model))


def load_stage_checkpoint(path, expect_stage: str) -> Model:
    """Load a checkpoint and fail fast unless it was produced by the
    required predecessor stage."""
    try:
        with open(str(path) + ".meta.json") as f:
            meta = json.load(f)
    except FileNotFoundError as exc:
        raise StageOrderError(f"{path}: missing stage metadata") from exc
    if meta.get("stage") != expect_stage:
        raise StageOrderError(
            f"{path}: produced by stage {meta.get('stage')!r}, "
            f"need {expect_stage!r}")
    return Model.load(path)


def check_predecessor(stage: str, prev_stage: Optional[str]):
    need = REQUIRED_PREDECESSOR[stage]
    if need is not None and prev_stage != need:
        raise StageOrderError(
            f"stage {stage!r} requires a {need!r} checkpoint, got {prev_stage!r}")


# ---- stage 1: generative restoration ----

def _ntp_batch(model: Model, pairs) -> Tensor:
    seqs, targets, masks = [], [], []
    for example, response in pairs:
        s = serialize(example, model.cfg)
        full = np.concatenate([s.ids[:-1], list(response), [vocab.EOS]]).astype(np.int64)
        base = len(s.ids) - 1  # index of first response token
        tgt = full[1:]
        mask = np.zeros(len(tgt), dtype=bool)
        mask[base - 1:base - 1 + len(response) + 1] = True
        seqs.append(SerializedInput(full[:-1], s.visuals))
        targets.append(tgt)
        masks.append(mask)
    logits, lengths = model.logits_sequence(seqs)
    t = logits.shape[1]
    tgt_arr = np.zeros((len(pairs), t), dtype=np.int64)
    mask_arr = np.zeros((len(pairs), t), dtype=bool)
    for i, (tg, mk) in enumerate(zip(targets, masks)):
        tgt_arr[i, :len(tg)] = tg
        mask_arr[i, :len(mk)] = mk
    return ntp_loss(logits, tgt_arr, mask_arr)


def run_stage1(model: Model, pairs: Sequence[Tuple[MultimodalExample, Tuple[int, ...]]],
               plan: StagePlan) -> TrainReport:
    """Generative restoration: minimize next-token loss on responses."""
    t0 = time.perf_counter()

    def loss_at(step, rng):
        idx = rng.choice(len(pairs), size=min(plan.batch_size, len(pairs)), replace=False)
        return _ntp_batch(model, [pairs[i] for i in idx])
    return _train_loop(model, plan, plan.steps, loss_at, t0)


# ---- stage 2: contrastive warmup + global hard negative mining ----

def _contrastive_step(model: Model, queries: Sequence[MultimodalExample],
                      by_id: Dict[str, MultimodalExample],
                      extra_ids: Optional[Sequence[Sequence[str]]]) -> Tensor:
    positives = [by_id[q.gt_positive_id] for q in queries]
    extras = [list(e) for e in extra_ids] if extra_ids is not None else None
    flat_extra = [by_id[cid] for e in (extras or []) for cid in e]
    batch_examples = list(queries) + positives + flat_extra
    embs = model.embed_batch_t([serialize(e, model.cfg) for e in batch_examples])
    b = len(queries)
    q_emb = take_rows(embs, np.arange(b))
    p_emb = take_rows(embs, np.arange(b, 2 * b))
    extra_tensors = None
    if extras is not None:
        extra_tensors = []
        off = 2 * b
        for e in extras:
            extra_tensors.append(take_rows(embs, np.arange(off, off + len(e)))
                                 if e else Tensor(np.zeros((0, model.cfg.embed_dim))))
            off += len(e)
    cb = ContrastiveBatch(queries=q_emb, positives=p_emb,
                          extra_negatives=extra_tensors, in_batch_negatives=True)
    return info_nce(cb)


def _contrastive_stage(model: Model, candidates: Sequence[MultimodalExample],
                       train_q: Sequence[MultimodalExample], plan: StagePlan,
                       extras_for: Callable[[int, List[MultimodalExample]],
                                            Optional[List[List[str]]]],
                       t0: float) -> TrainReport:
    """Contrastive steps over batches of `train_q`; `extras_for(step,
    batch)` gives each query's extra negative ids, or None for in-batch
    negatives only."""
    by_id = {c.example_id: c for c in candidates}

    def loss_at(step, rng):
        idx = rng.choice(len(train_q), size=min(plan.batch_size, len(train_q)), replace=False)
        batch_q = [train_q[i] for i in idx]
        return _contrastive_step(model, batch_q, by_id, extras_for(step, batch_q))
    return _train_loop(model, plan, plan.steps, loss_at, t0)


def run_warmup(model: Model, candidates: Sequence[MultimodalExample],
               queries: Sequence[MultimodalExample], plan: StagePlan) -> TrainReport:
    """Phase A: contrastive training with in-batch negatives only."""
    t0 = time.perf_counter()
    train_q = [q for q in queries if q.split == "train"]
    return _contrastive_stage(model, candidates, train_q, plan,
                              lambda step, batch: None, t0)


def mine_all(model: Model, candidates: Sequence[MultimodalExample],
             queries: Sequence[MultimodalExample], plan: StagePlan
             ) -> Dict[str, List[str]]:
    """`mine_index` over an index of `candidates` built with `model`."""
    return mine_index(CandidateIndex.build(model.embed_many(candidates)), model,
                      queries, plan)


def mine_index(index: CandidateIndex, model: Model, queries: Sequence[MultimodalExample],
               plan: StagePlan) -> Dict[str, List[str]]:
    """Mine hard negatives for every query against `index`, the corpus as
    `model` embeds it on entering global HNM; training steps never re-mine.
    A corpus too small for the window is logged once per pass."""
    recs = [mine_from_index(q.example_id, e.vector, index, q.gt_positive_id,
                            n=plan.mine_count, window=plan.mine_window,
                            seed=int(np.random.SeedSequence(
                                [plan.seed, 13, i]).generate_state(1)[0]))
            for i, (q, e) in enumerate(zip(queries, model.embed_many(list(queries))))]
    shrunk = [r.window for r in recs if r.shrunk]
    if shrunk:
        logger.warning("mining window %s shrunk to %s for %d of %d queries "
                       "(%d candidates)", plan.mine_window, sorted(set(shrunk)),
                       len(shrunk), len(recs), len(index))
    return {r.query_id: r.negative_ids for r in recs}


def run_global_hnm(model: Model, candidates: Sequence[MultimodalExample],
                   queries: Sequence[MultimodalExample], plan: StagePlan,
                   mined: Dict[str, List[str]]) -> TrainReport:
    """Phase B: train with the negatives mined for each train query."""
    t0 = time.perf_counter()
    train_q = [q for q in queries if q.split == "train"]
    return _contrastive_stage(model, candidates, train_q, plan,
                              lambda step, batch: [mined[q.example_id] for q in batch],
                              t0)


# ---- stage 3: judge-curated fine-tuning ----

def run_stage3(model: Model, candidates: Sequence[MultimodalExample],
               queries: Sequence[MultimodalExample],
               curated: Sequence[CuratedSample], plan: StagePlan) -> TrainReport:
    """Contrastive training with judge hard negatives plus in-batch fill;
    the original ground truth stays the only positive."""
    t0 = time.perf_counter()
    curated_by_q = {s.query_id: s for s in curated}
    train_q = [q for q in queries if q.split == "train" and q.example_id in curated_by_q]

    def judge_negatives(step, batch):
        return [build_stage3_batch(
                    curated_by_q[q.example_id], n_hard=plan.n_hard,
                    seed=int(np.random.SeedSequence(
                        [plan.seed, 17, step, j]).generate_state(1)[0]))
                for j, q in enumerate(batch)]
    return _contrastive_stage(model, candidates, train_q, plan, judge_negatives, t0)


# ---- reranker ----

def run_reranker(model: Model, candidates: Sequence[MultimodalExample],
                 queries: Sequence[MultimodalExample],
                 curated: Sequence[CuratedSample], plan: StagePlan) -> TrainReport:
    """Joint pointwise + listwise training on the curated set for
    RERANKER_EPOCHS epochs.

    Pointwise positives come from the augmented set {ground truth} union
    judge positives; queries with no judge negatives are skipped.
    """
    t0 = time.perf_counter()
    by_id = {c.example_id: c for c in candidates}
    q_by_id = {q.example_id: q for q in queries}
    usable = [s for s in curated
              if s.judge_negative_ids and s.query_id in q_by_id]
    if not usable:
        raise ValueError("no curated samples with judge negatives to train on")
    order = [i for epoch in range(RERANKER_EPOCHS)
             for i in _step_rng(plan, 100000 + epoch).permutation(len(usable))]

    def loss_at(step, rng):
        s = usable[order[step]]
        query = q_by_id[s.query_id]
        aug_pos = [s.gt_positive_id] + s.judge_positive_ids
        pos_id = aug_pos[int(rng.integers(len(aug_pos)))]
        neg_id = s.judge_negative_ids[int(rng.integers(len(s.judge_negative_ids)))]
        point = add(pointwise_loss(model, query, by_id[pos_id], True),
                    pointwise_loss(model, query, by_id[neg_id], False))
        m = int(rng.integers(2, 6))  # M uniform in {2,3,4,5}
        neg_pool = list(s.judge_negative_ids)
        neg_picks = [neg_pool[j] for j in rng.choice(
            len(neg_pool), size=min(m, len(neg_pool)), replace=False)]
        while len(neg_picks) < m:  # pad with random corpus negatives
            cid = candidates[int(rng.integers(len(candidates)))].example_id
            if cid != s.gt_positive_id:
                neg_picks.append(cid)
        lw_pos = aug_pos[int(rng.integers(len(aug_pos)))]
        k = int(rng.integers(1, m + 2))  # uniform over 1..M+1
        listing = [by_id[c] for c in neg_picks]
        listing.insert(k - 1, by_id[lw_pos])
        return total_rerank_loss(point, listwise_loss(model, query, listing, k))
    return _train_loop(model, plan, len(order), loss_at, t0)
