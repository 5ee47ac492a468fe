"""Global hard-negative mining and judge-curated sample construction."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import vocab
from .model import LengthError, Model, MultimodalExample
from .prompts import pointwise_prompt
from .retrieval import CandidateIndex, search
from .templates import judgment_instruction

logger = logging.getLogger(__name__)

DEFAULT_MINE_COUNT = 2
DEFAULT_MINE_WINDOW = (50, 100)
DEFAULT_JUDGE_K = 20
DEFAULT_STAGE3_HARD_NEGATIVES = 12
MAX_JUDGE_FAILURE_RATE = 0.2


class SamplingError(ValueError):
    pass


class CurationError(RuntimeError):
    pass


@dataclass
class MinedNegatives:
    query_id: str
    negative_ids: List[str]
    window: Tuple[int, int]
    seed: int
    shrunk: bool = False


@dataclass
class JudgeVerdict:
    query_id: str
    candidate_id: str
    logit_yes: float
    logit_no: float

    @property
    def verdict(self) -> str:
        if self.logit_yes > self.logit_no:
            return "relevant"
        if self.logit_no > self.logit_yes:
            return "irrelevant"
        return "tie"


@dataclass
class CuratedSample:
    query_id: str
    gt_positive_id: str
    judge_positive_ids: List[str] = field(default_factory=list)
    judge_negative_ids: List[str] = field(default_factory=list)
    verdicts: List[JudgeVerdict] = field(default_factory=list)

    def __post_init__(self):
        if self.gt_positive_id in self.judge_negative_ids:
            raise CurationError(f"{self.query_id}: ground truth listed as judge negative")
        if set(self.judge_positive_ids) & set(self.judge_negative_ids):
            raise CurationError(f"{self.query_id}: judge positive/negative sets overlap")


# ---- stage 2: global hard negative mining ----

def mine_from_index(query_id: str, query_vec: np.ndarray, index: CandidateIndex,
                    gt_positive_id: str, n: int = DEFAULT_MINE_COUNT,
                    window: Tuple[int, int] = DEFAULT_MINE_WINDOW,
                    seed: int = 0) -> MinedNegatives:
    """Rank the whole index, drop the ground truth, sample n ids uniformly
    without replacement from 1-based rank positions [lo, hi].

    A corpus smaller than hi shrinks the window to [min(lo, size), size]
    and sets `shrunk`; a corpus smaller than n is a sampling error.
    """
    ranked = search(index, query_vec, k=len(index), query_id=query_id)
    pool = [cid for cid in ranked.ids if cid != gt_positive_id]
    size = len(pool)
    if size < n:
        raise SamplingError(
            f"{query_id}: corpus holds {size} candidates after exclusion, need {n}")
    lo, hi = window
    if lo < 1 or hi - lo + 1 < n:
        raise SamplingError(
            f"{query_id}: window ({lo}, {hi}) cannot hold {n} samples")
    shrunk = False
    if hi > size:
        # keep the window deep enough to hold n samples
        lo, hi = max(1, min(lo, size - n + 1)), size
        shrunk = True
    rng = np.random.default_rng(seed)
    window_ids = pool[lo - 1:hi]
    picks = rng.choice(len(window_ids), size=n, replace=False)
    return MinedNegatives(query_id=query_id,
                          negative_ids=[window_ids[i] for i in sorted(picks)],
                          window=(lo, hi), seed=seed, shrunk=shrunk)


# ---- stage 3: retrieve-and-judge ----

class ClassOracleJudge:
    """Synthetic judge: relevant iff same latent class, with optional
    deterministic label noise."""

    def __init__(self, noise_rate: float = 0.0, seed: int = 0):
        if not 0.0 <= noise_rate < 0.5:
            raise ValueError(f"noise_rate must be in [0, 0.5), got {noise_rate}")
        self.noise_rate = noise_rate
        self.seed = seed

    def judge_logits(self, query: MultimodalExample, candidate: MultimodalExample,
                     instruction=()) -> Tuple[float, float]:
        relevant = (query.class_id is not None
                    and query.class_id == candidate.class_id)
        if self.noise_rate > 0.0:
            key = f"{self.seed}:{query.example_id}:{candidate.example_id}".encode()
            u = int.from_bytes(hashlib.sha256(key).digest()[:8], "big") / 2.0 ** 64
            if u < self.noise_rate:
                relevant = not relevant
        return (1.0, 0.0) if relevant else (0.0, 1.0)


class AlwaysIrrelevantJudge:
    """Rule-based comparison arm: negatives are top-K minus the positive."""

    def judge_logits(self, query, candidate, instruction=()) -> Tuple[float, float]:
        return (0.0, 1.0)


class ModelJudge:
    """Uses the toy model's own YES/NO next-token logits on the rendered
    judgment prompt."""

    def __init__(self, model: Model):
        self.model = model

    def judge_logits(self, query: MultimodalExample, candidate: MultimodalExample,
                     instruction=()) -> Tuple[float, float]:
        prompt = pointwise_prompt(query, candidate, self.model.cfg, tuple(instruction))
        logits = self.model.next_token_logits(prompt)
        return float(logits[vocab.YES]), float(logits[vocab.NO])


def judge_pair(query: MultimodalExample, candidate: MultimodalExample,
               judge, template_id: str) -> JudgeVerdict:
    """Render the judgment template and compare YES/NO logits."""
    instruction = judgment_instruction(template_id)
    ly, ln = judge.judge_logits(query, candidate, instruction)
    return JudgeVerdict(query_id=query.example_id, candidate_id=candidate.example_id,
                        logit_yes=ly, logit_no=ln)


def retrieve_and_judge(query: MultimodalExample, corpus_by_id: Dict[str, MultimodalExample],
                       index: CandidateIndex, query_vec: np.ndarray, judge,
                       template_id: str, k: int = DEFAULT_JUDGE_K) -> CuratedSample:
    """Judge the top-k retrieved candidates for one query.

    Relevant verdicts feed judge_positive_ids, irrelevant ones
    judge_negative_ids, ties are discarded. The ground-truth positive is
    excluded from both lists; it stays the sole contrastive positive.
    """
    ranked = search(index, query_vec, k=k, query_id=query.example_id)
    positives, negatives, verdicts = [], [], []
    failures = 0
    for cid in ranked.ids:
        if cid == query.gt_positive_id:
            continue
        try:
            v = judge_pair(query, corpus_by_id[cid], judge, template_id)
        except LengthError as exc:
            failures += 1
            logger.warning("judge failure on (%s, %s): %s", query.example_id, cid, exc)
            continue
        verdicts.append(v)
        if v.verdict == "relevant":
            positives.append(cid)
        elif v.verdict == "irrelevant":
            negatives.append(cid)
    if failures > MAX_JUDGE_FAILURE_RATE * k:
        raise CurationError(
            f"{query.example_id}: {failures}/{k} judge failures, aborting curation")
    return CuratedSample(query_id=query.example_id,
                         gt_positive_id=query.gt_positive_id,
                         judge_positive_ids=positives,
                         judge_negative_ids=negatives,
                         verdicts=verdicts)


def curate_all(queries: Sequence[MultimodalExample],
               corpus: Sequence[MultimodalExample], embedder, judge,
               template_id: str, k: int = DEFAULT_JUDGE_K) -> List[CuratedSample]:
    """Retrieve-and-judge every query; merge order follows query order."""
    corpus_by_id = {c.example_id: c for c in corpus}
    index = CandidateIndex.build(embedder(list(corpus)))
    qvecs = embedder(list(queries))
    return [retrieve_and_judge(q, corpus_by_id, index, e.vector, judge, template_id, k=k)
            for q, e in zip(queries, qvecs)]


def build_stage3_batch(sample: CuratedSample,
                       n_hard: int = DEFAULT_STAGE3_HARD_NEGATIVES,
                       seed: int = 0) -> List[str]:
    """Pick n_hard judge negatives without replacement (all of them when
    fewer exist; the trainer pads with in-batch negatives)."""
    if n_hard < 0:
        raise ValueError("n_hard must be >= 0")
    pool = sample.judge_negative_ids
    if n_hard >= len(pool):
        return list(pool)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=n_hard, replace=False)
    return [pool[i] for i in sorted(picks)]


# ---- persistence: replayable line-delimited records ----

def save_curated(path, samples: Sequence[CuratedSample]):
    with open(path, "w") as f:
        for s in samples:
            f.write(json.dumps({
                "query_id": s.query_id,
                "gt_positive_id": s.gt_positive_id,
                "judge_positive_ids": s.judge_positive_ids,
                "judge_negative_ids": s.judge_negative_ids,
                "verdicts": [[v.candidate_id, v.logit_yes, v.logit_no]
                             for v in s.verdicts],
            }) + "\n")


def load_curated(path) -> List[CuratedSample]:
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            try:
                d = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CurationError(f"{path}:{lineno}: malformed record: {exc}") from exc
            out.append(CuratedSample(
                query_id=d["query_id"],
                gt_positive_id=d["gt_positive_id"],
                judge_positive_ids=list(d["judge_positive_ids"]),
                judge_negative_ids=list(d["judge_negative_ids"]),
                verdicts=[JudgeVerdict(d["query_id"], cid, ly, ln)
                          for cid, ly, ln in d.get("verdicts", [])]))
    return out
