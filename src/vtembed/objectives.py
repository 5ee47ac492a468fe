"""Training objectives: temperature-scaled contrastive loss, next-token
prediction, and the pointwise/listwise rerank cross-entropies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import vocab
from .autograd import (
    ParameterError,
    Tensor,
    add,
    as_tensor,
    concat,
    constant,
    gather_last,
    log_softmax,
    matmul,
    mean,
    mul,
    reshape,
    sum_,
    transpose,
)
from .model import Model, MultimodalExample
from .prompts import listwise_prompt, pointwise_prompt

DEFAULT_TEMPERATURE = 0.03
NORM_TOL = 1e-6


class ContractError(ValueError):
    pass


@dataclass
class ContrastiveBatch:
    """Queries with parallel positives, optional per-query extra negatives."""
    queries: Tensor
    positives: Tensor
    extra_negatives: Optional[List[Tensor]] = None
    temperature: float = DEFAULT_TEMPERATURE
    in_batch_negatives: bool = False

    def __post_init__(self):
        self.queries = as_tensor(self.queries)
        self.positives = as_tensor(self.positives)
        if self.queries.shape != self.positives.shape:
            raise ContractError("queries and positives must have equal shape")
        if self.queries.shape[0] < 1:
            raise ContractError("need at least one query")
        if self.extra_negatives is not None:
            self.extra_negatives = [as_tensor(n) for n in self.extra_negatives]
            if len(self.extra_negatives) != self.queries.shape[0]:
                raise ContractError("extra_negatives must be per-query")


def _check_unit(t: Tensor, what: str):
    norms = np.linalg.norm(t.data, axis=-1)
    if np.any(np.abs(norms - 1.0) > NORM_TOL):
        raise ContractError(f"{what} embeddings are not unit-norm")


def info_nce(batch: ContrastiveBatch) -> Tensor:
    """Mean contrastive loss over queries, dot-product similarity.

    Per query the loss is -log( exp(q.p+/tau) / (exp(q.p+/tau) +
    sum_neg exp(q.n/tau)) ). With in_batch_negatives set, every other
    query's positive joins query i's negative set.
    """
    if batch.temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {batch.temperature}")
    _check_unit(batch.queries, "query")
    _check_unit(batch.positives, "positive")
    b = batch.queries.shape[0]
    inv_tau = 1.0 / batch.temperature

    sims = mul(matmul(batch.queries, transpose(batch.positives, (1, 0))), inv_tau)  # [B,B]
    diag_idx = np.arange(b)
    if batch.in_batch_negatives:
        logits, target = sims, diag_idx
    else:
        logits = reshape(gather_last(sims, diag_idx), (b, 1))
        target = np.zeros(b, dtype=np.int64)

    extras = batch.extra_negatives
    if extras is not None and any(n.shape[0] > 0 for n in extras):
        for n in extras:
            if n.shape[0]:
                _check_unit(n, "negative")
        stacked = concat([n for n in extras if n.shape[0] > 0], axis=0)
        neg_sims = mul(matmul(batch.queries, transpose(stacked, (1, 0))), inv_tau)
        # block-diagonal validity mask: query i only sees its own negatives
        counts = [n.shape[0] for n in extras]
        mask = np.full((b, sum(counts)), -np.inf)
        col = 0
        for i, c in enumerate(counts):
            mask[i, col:col + c] = 0.0
            col += c
        logits = concat([logits, add(neg_sims, constant(mask))], axis=1)

    lp = log_softmax(logits)
    return mul(mean(gather_last(lp, target)), -1.0)


def ntp_loss(logit_sequence: Tensor, targets, mask) -> Tensor:
    """Masked next-token cross-entropy, mean over masked positions.

    Accepts [T, V] or [B, T, V] logits with matching target/mask shapes;
    the mask marks response positions only.
    """
    logits = as_tensor(logit_sequence)
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if logits.shape[:-1] != targets.shape or targets.shape != mask.shape:
        raise ParameterError("ntp_loss: logits/targets/mask shapes disagree")
    n = int(mask.sum())
    if n == 0:
        raise ParameterError("ntp_loss: empty mask")
    lp = gather_last(log_softmax(logits), targets)
    return mul(sum_(mul(lp, constant(mask.astype(np.float64)))), -1.0 / n)


def _answer_ce(model: Model, prompt, answer: int) -> Tensor:
    """Cross-entropy of the prompt's next token against `answer`."""
    logits = model.next_token_logits_t([prompt])
    return mul(mean(gather_last(log_softmax(logits), np.asarray([answer]))), -1.0)


def pointwise_loss(model: Model, query: MultimodalExample, candidate: MultimodalExample,
                   label: bool) -> Tensor:
    """CE pushing the next token toward YES (positive pair) or NO."""
    prompt = pointwise_prompt(query, candidate, model.cfg)
    return _answer_ce(model, prompt, vocab.YES if label else vocab.NO)


def listwise_loss(model: Model, query: MultimodalExample,
                  candidates: Sequence[MultimodalExample], k: int) -> Tensor:
    """CE pushing the next token toward the digit for the positive's
    1-based position k in the candidate list."""
    m = len(candidates) - 1
    if not 2 <= m <= 5:
        raise ParameterError(f"listwise list must carry M in [2, 5] negatives, got M={m}")
    if not 1 <= k <= len(candidates):
        raise ParameterError(f"positive position {k} outside 1..{len(candidates)}")
    prompt = listwise_prompt(query, candidates, model.cfg)
    return _answer_ce(model, prompt, vocab.digit_token(k))


def total_rerank_loss(point: Tensor, listwise: Tensor) -> Tensor:
    """Joint rerank objective; both weights fixed at 1."""
    for t in (point, listwise):
        if not np.isfinite(as_tensor(t).data).all():
            raise ParameterError("total_rerank_loss: non-finite component")
    return add(point, listwise)
