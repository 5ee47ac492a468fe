"""Exact dot-product search, two-stage retrieve-then-rerank, and IR metrics."""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from .model import Embedding, LengthError

logger = logging.getLogger(__name__)

DEFAULT_RERANK_K = 5  # pointwise rerank depth at inference


class IndexStateError(RuntimeError):
    pass


class EvaluationError(ValueError):
    pass


@dataclass
class CandidateIndex:
    ids: List[str]
    matrix: np.ndarray  # |ids| x D, finite unit-norm rows
    id_rank: np.ndarray = field(init=False, repr=False)  # each id's place in sorted ids

    def __post_init__(self):
        if len(self.ids) != len(set(self.ids)):
            raise ValueError("candidate ids must be unique")
        if len(self.matrix) != len(self.ids):
            raise ValueError(f"index has {len(self.matrix)} rows for {len(self.ids)} ids")
        if not np.isfinite(self.matrix).all():
            raise ValueError("index rows must be finite")
        norms = np.linalg.norm(self.matrix, axis=1)
        if len(self.ids) and np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError("index rows must be unit-norm")
        self.id_rank = np.argsort(sorted(range(len(self.ids)), key=self.ids.__getitem__))

    def __len__(self):
        return len(self.ids)

    @classmethod
    def build(cls, embeddings: Sequence[Embedding]) -> "CandidateIndex":
        ids = [e.source_id for e in embeddings]
        matrix = (np.stack([e.vector for e in embeddings])
                  if embeddings else np.zeros((0, 0)))
        return cls(ids=ids, matrix=matrix)


@dataclass
class RankedResult:
    query_id: str
    ids: List[str]
    scores: List[float]
    stage: str = "embed_only"  # "embed_only" | "reranked"


def search(index: CandidateIndex, query_embedding: np.ndarray, k: int,
           query_id: str = "") -> RankedResult:
    """Exact top-k by dot product; ties broken by ascending candidate id."""
    if len(index) == 0:
        raise IndexStateError("search over an empty index")
    if not 1 <= k <= len(index):
        raise ValueError(f"k={k} outside [1, index size {len(index)}]")
    query = np.asarray(query_embedding, dtype=np.float64)
    if not np.isfinite(query).all():
        raise ValueError("query embedding must be finite")
    scores = index.matrix @ query
    order = np.lexsort((index.id_rank, -scores))[:k]
    return RankedResult(query_id=query_id,
                        ids=[index.ids[i] for i in order],
                        scores=scores[order].tolist())


PairScorer = Callable[[str], float]
"""Maps a candidate id to a rerank score for a fixed query (YES-NO logit margin)."""


def rerank_topk(result: RankedResult, scorer: PairScorer,
                k_rerank: int = DEFAULT_RERANK_K) -> RankedResult:
    """Re-sort the top k_rerank candidates by pointwise score.

    Membership of the top set is preserved; the tail keeps embedder order.
    A candidate whose scoring fails (prompt overflow) keeps its embedder score.
    """
    if result.stage != "embed_only":
        raise ValueError("rerank_topk expects an embed_only result")
    if k_rerank > len(result.ids):
        raise ValueError(f"k_rerank={k_rerank} exceeds result length {len(result.ids)}")
    head = result.ids[:k_rerank]
    head_scores = []
    for cid, emb_score in zip(head, result.scores):
        try:
            head_scores.append(float(scorer(cid)))
        except LengthError:
            logger.warning("rerank: prompt overflow for %s/%s, keeping embedder score",
                           result.query_id, cid)
            head_scores.append(emb_score)
    order = sorted(range(len(head)), key=lambda i: (-head_scores[i], head[i]))
    return RankedResult(
        query_id=result.query_id,
        ids=[head[i] for i in order] + result.ids[k_rerank:],
        scores=[head_scores[i] for i in order] + result.scores[k_rerank:],
        stage="reranked")


# ---- metrics ----

Qrels = Dict[str, Dict[str, int]]  # query_id -> candidate_id -> relevance grade


def _checked(results: Sequence[RankedResult], qrels: Qrels) -> Sequence[RankedResult]:
    """`results`, after checking it is non-empty and every query has qrels."""
    if not results:
        raise EvaluationError("no results to evaluate")
    for r in results:
        if r.query_id not in qrels:
            raise EvaluationError(f"query {r.query_id} missing from qrels")
    return results


def precision_at_1(results: Sequence[RankedResult], qrels: Qrels) -> float:
    """Fraction of queries whose rank-1 candidate is relevant."""
    hits = sum(int(qrels[r.query_id].get(r.ids[0], 0) > 0)
               for r in _checked(results, qrels))
    return hits / len(results)


def ndcg_at_5(results: Sequence[RankedResult], qrels: Qrels) -> float:
    """DCG@5 with gain 2^rel - 1 and log2(rank+1) discount, over ideal DCG@5."""
    return ndcg_at_k(results, qrels, 5)


def ndcg_at_k(results: Sequence[RankedResult], qrels: Qrels, k: int) -> float:
    total = 0.0
    for r in _checked(results, qrels):
        rel = qrels[r.query_id]
        dcg = sum((2.0 ** rel.get(cid, 0) - 1.0) / np.log2(rank + 1)
                  for rank, cid in enumerate(r.ids[:k], start=1))
        ideal = sorted(rel.values(), reverse=True)[:k]
        idcg = sum((2.0 ** g - 1.0) / np.log2(rank + 1)
                   for rank, g in enumerate(ideal, start=1))
        total += dcg / idcg if idcg > 0 else 0.0
    return total / len(results)


def recall_at_k(results: Sequence[RankedResult], qrels: Qrels, k: int) -> float:
    total = 0.0
    for r in _checked(results, qrels):
        relevant = {cid for cid, g in qrels[r.query_id].items() if g > 0}
        if not relevant:
            raise EvaluationError(f"query {r.query_id} has no relevant candidates")
        total += len(relevant & set(r.ids[:k])) / len(relevant)
    return total / len(results)


# ---- persistence ----

def save_qrels(path, qrels: Qrels):
    with open(path, "w") as f:
        for qid in sorted(qrels):
            for cid in sorted(qrels[qid]):
                f.write(f"{qid}\t{cid}\t{qrels[qid][cid]}\n")


def load_qrels(path) -> Qrels:
    qrels: Qrels = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise EvaluationError(f"{path}:{lineno}: malformed qrels line")
            qid, cid, rel = parts
            qrels.setdefault(qid, {})[cid] = int(rel)
    return qrels


def save_results(path, results: Sequence[RankedResult]):
    with open(path, "w") as f:
        for r in results:
            for rank, (cid, score) in enumerate(zip(r.ids, r.scores), start=1):
                f.write(f"{r.query_id}\t{rank}\t{cid}\t{float(score)!r}\t{r.stage}\n")


def corpus_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
