"""Synthetic corpus generation and line-delimited persistence.

Class identity is planted in both modalities: each latent class owns a
token motif for text and a feature-grid pattern for "images", so a perfect
retriever exists by construction. Relevance is same-latent-class; the
noise rate relabels that fraction of queries to a different class, which
caps achievable metrics below 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .autograd import Grid2D
from .model import ModelConfig, MultimodalExample
from .retrieval import Qrels
from .templates import (
    FREE_DATA_START,
    TASK_CLASSES,
    query_instruction,
    target_instruction,
)

SCHEMA_VERSION = 1
MOTIF_LEN = 3
FILLER_LEN = 2
ITEM_NOISE_SCALE = 0.35
EVAL_EVERY = 5  # every EVAL_EVERY-th query per class is held out

_QUERY_HAS_IMAGE = {"I2I", "I2T", "IT2I", "IT2T", "IT2IT"}
_QUERY_HAS_TEXT = {"T2T", "T2I", "T2IT", "T2VD", "IT2I", "IT2T", "IT2IT"}
_CAND_HAS_IMAGE = {"I2I", "T2I", "IT2I", "T2VD", "T2IT", "IT2IT"}
_CAND_HAS_TEXT = {"T2T", "I2T", "IT2T", "T2IT", "IT2IT"}


class CorpusFormatError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticTaskSpec:
    task_class: str = "T2I"
    num_classes: int = 10
    corpus_size: int = 200
    queries_per_class: int = 10
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.task_class not in TASK_CLASSES:
            raise ValueError(f"unknown task class {self.task_class!r}")
        if self.corpus_size < self.num_classes:
            raise ValueError("corpus_size must be >= num_classes")
        if not 0.0 <= self.noise_rate < 0.5:
            raise ValueError("noise_rate must be in [0, 0.5)")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def class_motif(seed: int, class_id: int, vocab_size: int) -> Tuple[int, ...]:
    """Deterministic per-class token motif in the free data-token band."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7, class_id]))
    lo, hi = FREE_DATA_START, vocab_size
    if hi - lo < MOTIF_LEN:
        raise ValueError(f"vocab_size {vocab_size} leaves too few data tokens")
    return tuple(int(t) for t in rng.choice(np.arange(lo, hi), MOTIF_LEN, replace=False))


def class_pattern(seed: int, class_id: int, cfg: ModelConfig) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11, class_id]))
    return rng.normal(0.0, 1.0, (cfg.patch_h, cfg.patch_w, cfg.vision_channels))


def _text(seed_seq, motif: Tuple[int, ...], vocab_size: int) -> Tuple[int, ...]:
    rng = np.random.default_rng(seed_seq)
    filler = rng.integers(FREE_DATA_START, vocab_size, FILLER_LEN)
    return motif + tuple(int(t) for t in filler)


def _grid(seed_seq, pattern: np.ndarray) -> Grid2D:
    rng = np.random.default_rng(seed_seq)
    return Grid2D(pattern + ITEM_NOISE_SCALE * rng.normal(0.0, 1.0, pattern.shape))


def generate_corpus(spec: SyntheticTaskSpec, cfg: ModelConfig
                    ) -> Tuple[List[MultimodalExample], List[MultimodalExample], Qrels]:
    """Build (candidates, queries, qrels); fully determined by spec.seed."""
    task = spec.task_class
    motifs = [class_motif(spec.seed, c, cfg.vocab_size) for c in range(spec.num_classes)]
    patterns = [class_pattern(spec.seed, c, cfg) for c in range(spec.num_classes)]
    q_instr = query_instruction(task)
    t_instr = target_instruction(task)

    candidates: List[MultimodalExample] = []
    by_class: Dict[int, List[str]] = {c: [] for c in range(spec.num_classes)}
    for i in range(spec.corpus_size):
        c = i % spec.num_classes
        cid = f"c{i:05d}"
        by_class[c].append(cid)
        candidates.append(MultimodalExample(
            example_id=cid, role="candidate", instruction=t_instr,
            visual=_grid(np.random.SeedSequence([spec.seed, 2, i]), patterns[c])
            if task in _CAND_HAS_IMAGE else None,
            text=_text(np.random.SeedSequence([spec.seed, 3, i]), motifs[c], cfg.vocab_size)
            if task in _CAND_HAS_TEXT else (),
            class_id=c))

    queries: List[MultimodalExample] = []
    qrels: Qrels = {}
    noise_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 5]))
    pick_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 6]))
    qn = 0
    for c in range(spec.num_classes):
        for j in range(spec.queries_per_class):
            qid = f"q{qn:05d}"
            label = c
            if noise_rng.random() < spec.noise_rate:
                shift = int(noise_rng.integers(1, spec.num_classes))
                label = (c + shift) % spec.num_classes
            gt = by_class[label][int(pick_rng.integers(len(by_class[label])))]
            queries.append(MultimodalExample(
                example_id=qid, role="query", instruction=q_instr,
                visual=_grid(np.random.SeedSequence([spec.seed, 4, qn]), patterns[c])
                if task in _QUERY_HAS_IMAGE else None,
                text=_text(np.random.SeedSequence([spec.seed, 8, qn]), motifs[c], cfg.vocab_size)
                if task in _QUERY_HAS_TEXT else (),
                class_id=label, gt_positive_id=gt,
                split="eval" if j % EVAL_EVERY == EVAL_EVERY - 1 else "train"))
            qrels[qid] = {cid: 1 for cid in by_class[label]}
            qn += 1
    return candidates, queries, qrels


def instruction_pairs(examples: Sequence[MultimodalExample], seed: int,
                      vocab_size: int) -> List[Tuple[MultimodalExample, Tuple[int, ...]]]:
    """Stage-1 generative pairs: (multimodal input, class-motif response)."""
    return [(e, class_motif(seed, e.class_id, vocab_size))
            for e in examples if e.class_id is not None]


# ---- persistence ----

def _example_record(e: MultimodalExample) -> dict:
    d = {
        "id": e.example_id, "role": e.role,
        "instruction": list(e.instruction), "text": list(e.text),
        "class_id": e.class_id, "split": e.split,
    }
    if e.gt_positive_id is not None:
        d["gt_positive_id"] = e.gt_positive_id
    if e.visual is not None:
        d["visual_shape"] = list(e.visual.values.shape)
        d["visual"] = e.visual.values.ravel().tolist()
    return d


def _record_example(d: dict) -> MultimodalExample:
    visual = None
    if "visual" in d:
        visual = Grid2D(np.asarray(d["visual"], dtype=np.float64)
                        .reshape(d["visual_shape"]))
    return MultimodalExample(
        example_id=d["id"], role=d["role"],
        instruction=tuple(d["instruction"]), visual=visual,
        text=tuple(d["text"]), class_id=d.get("class_id"),
        gt_positive_id=d.get("gt_positive_id"), split=d.get("split", "train"))


def save_corpus(path, examples: Sequence[MultimodalExample]):
    with open(path, "w") as f:
        f.write(json.dumps({"schema_version": SCHEMA_VERSION, "kind": "corpus"}) + "\n")
        for e in examples:
            f.write(json.dumps(_example_record(e)) + "\n")


def load_corpus(path) -> List[MultimodalExample]:
    examples: List[MultimodalExample] = []
    with open(path) as f:
        header_line = f.readline()
        if not header_line.strip():
            return []
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}:1: malformed header: {exc}") from exc
        if header.get("schema_version") != SCHEMA_VERSION:
            raise CorpusFormatError(
                f"{path}: schema version {header.get('schema_version')} "
                f"needs migration to {SCHEMA_VERSION}")
        last_good = 1
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                examples.append(_record_example(json.loads(line)))
            except (json.JSONDecodeError, KeyError) as exc:
                raise CorpusFormatError(
                    f"{path}:{lineno}: malformed record after last good line "
                    f"{last_good}: {exc}") from exc
            last_good = lineno
    return examples


def split_roles(examples: Sequence[MultimodalExample]
                ) -> Tuple[List[MultimodalExample], List[MultimodalExample]]:
    cands = [e for e in examples if e.role == "candidate"]
    queries = [e for e in examples if e.role == "query"]
    return cands, queries
