"""Token-budget arithmetic, analytic attention-cost model, and measured
single-threaded encode latency for compressed vs uncompressed configs."""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .model import Model, ModelConfig, MultimodalExample, serialize
from . import vocab


@dataclass
class CostProfile:
    label: str
    role: str  # "query" | "candidate"
    visual_tokens: int
    text_tokens: int
    attention_flops: float
    wall_clock_ms: float
    trials: int


def token_budget(cfg: ModelConfig, has_image: bool = True) -> int:
    """Visual tokens entering the LLM: H*W/s^2, or 0 without image."""
    return cfg.visual_tokens if has_image else 0


def attention_cost(seq_len: int, layers: int, heads: int, embed_dim: int) -> float:
    """Multiply-accumulate estimate per encode.

    Counts the attention score and attention-value matmuls (2*L^2*D) plus
    QKVO projections and the 4x-expansion MLP (8*L*D^2) per layer.
    Softmax and norm costs are omitted as sub-percent at these shapes.
    """
    if min(seq_len, layers, heads, embed_dim) < 1:
        raise ValueError("all attention-cost arguments must be positive")
    return layers * (2.0 * seq_len ** 2 * embed_dim + 8.0 * seq_len * embed_dim ** 2)


def measure_encode(model: Model, example: MultimodalExample, trials: int = 10,
                   label: str = "") -> CostProfile:
    """Mean single-threaded wall clock over `trials` encodes, one discarded
    warmup run, batch of 1."""
    if trials < 3:
        raise ValueError("trials must be >= 3")
    s = serialize(example, model.cfg)
    n_vis = int((s.ids == vocab.VIS).sum())
    n_text = len(example.text)
    model.embed(example)  # warmup
    times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        model.embed(example)
        times.append(time.perf_counter() - t0)
    mean_s = sum(times) / trials
    return CostProfile(
        label=label, role=example.role,
        visual_tokens=n_vis, text_tokens=n_text,
        attention_flops=attention_cost(len(s.ids), model.cfg.num_layers,
                                       model.cfg.num_heads, model.cfg.embed_dim),
        wall_clock_ms=mean_s * 1e3, trials=trials)


def emit_efficiency_table(profiles: Sequence[CostProfile]) -> Dict[str, str]:
    """Render per-config rows (config, #VT_q, l_q, #VT_c, l_c) as markdown
    and CSV. Missing role measurements render as '-'."""
    if not profiles:
        raise ValueError("need at least one profile")
    by_label: Dict[str, Dict[str, CostProfile]] = {}  # in first-seen label order
    for p in profiles:
        by_label.setdefault(p.label, {})[p.role] = p

    def cell(p: Optional[CostProfile], attr: str) -> str:
        if p is None:
            return "-"
        v = getattr(p, attr)
        return f"{v:.3f}" if attr == "wall_clock_ms" else str(v)

    header = ["config", "#VT_q", "l_q (ms)", "#VT_c", "l_c (ms)"]
    rows = []
    for label, roles in by_label.items():
        q, c = roles.get("query"), roles.get("candidate")
        rows.append([label, cell(q, "visual_tokens"), cell(q, "wall_clock_ms"),
                     cell(c, "visual_tokens"), cell(c, "wall_clock_ms")])

    md_lines = ["| " + " | ".join(header) + " |",
                "|" + "|".join("---" for _ in header) + "|"]
    md_lines += ["| " + " | ".join(r) + " |" for r in rows]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return {"markdown": "\n".join(md_lines) + "\n", "csv": buf.getvalue()}
