"""Toy compressed multimodal encoder-decoder.

Pipeline per input: learned per-site patch embedding over a synthetic
feature grid -> parameter-free bilinear spatial compression by factor s ->
connector projection into the LLM width -> causal pre-norm transformer.
Two heads share the trunk: the last-token hidden state (unit-normalized)
is the retrieval embedding, and a linear vocab head provides next-token
logits for generation, judging, and reranking.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import vocab
from .autograd import (
    Grid2D,
    ParameterError,
    ShapeError,
    Tensor,
    add,
    bilinear_downsample_t,
    constant,
    gelu,
    index_select_last,
    l2_normalize,
    layer_norm_core,
    masked_scatter,
    matmul,
    mul,
    reshape,
    softmax,
    take_rows,
    transpose,
)

CHECKPOINT_MAGIC = b"VTEMB\x00"
CHECKPOINT_VERSION = 1


class ConfigError(ValueError):
    pass


class LengthError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 64
    embed_dim: int = 32
    num_layers: int = 2
    num_heads: int = 4
    patch_h: int = 8
    patch_w: int = 8
    vision_channels: int = 4
    compression_factor: int = 2
    max_seq_len: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim % self.num_heads:
            raise ConfigError("embed_dim must be divisible by num_heads")
        if self.patch_h % self.compression_factor or self.patch_w % self.compression_factor:
            raise ConfigError("patch grid must be divisible by compression_factor")
        if self.vocab_size <= max(vocab.RESERVED):
            raise ConfigError("vocab_size too small for reserved tokens")

    @property
    def visual_tokens(self) -> int:
        s = self.compression_factor
        return (self.patch_h // s) * (self.patch_w // s)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass(frozen=True)
class MultimodalExample:
    example_id: str
    role: str  # "query" | "candidate"
    instruction: Tuple[int, ...] = ()
    visual: Optional[Grid2D] = None
    text: Tuple[int, ...] = ()
    class_id: Optional[int] = None
    gt_positive_id: Optional[str] = None
    split: str = "train"

    def __post_init__(self):
        if self.role not in ("query", "candidate"):
            raise ValueError(f"bad role {self.role!r}")
        if self.visual is None and not self.text:
            raise ValueError(f"{self.example_id}: visual and text both empty")


@dataclass
class Embedding:
    vector: np.ndarray
    source_id: str


@dataclass
class SerializedInput:
    """Token ids plus the feature grids backing each run of VIS slots."""
    ids: np.ndarray
    visuals: List[Grid2D] = field(default_factory=list)

    def __len__(self):
        return len(self.ids)


def serialize(example: MultimodalExample, cfg: ModelConfig) -> SerializedInput:
    """Deterministic layout: BOI instr BOV vis-slots BOT text EOS."""
    n_vis = cfg.visual_tokens if example.visual is not None else 0
    if example.visual is not None:
        g = example.visual
        if (g.height, g.width, g.channels) != (cfg.patch_h, cfg.patch_w, cfg.vision_channels):
            raise ConfigError(
                f"{example.example_id}: visual grid {g.height}x{g.width}x{g.channels} "
                f"does not match config {cfg.patch_h}x{cfg.patch_w}x{cfg.vision_channels}")
    total = 3 + len(example.instruction) + n_vis + len(example.text) + 1
    if total > cfg.max_seq_len:
        raise LengthError(
            f"{example.example_id}: serialized length {total} > max_seq_len "
            f"{cfg.max_seq_len} (instruction={len(example.instruction)}, "
            f"visual_slots={n_vis}, text={len(example.text)})")
    ids = ([vocab.BOI] + list(example.instruction) + [vocab.BOV]
           + [vocab.VIS] * n_vis + [vocab.BOT] + list(example.text) + [vocab.EOS])
    visuals = [example.visual] if example.visual is not None else []
    return SerializedInput(np.asarray(ids, dtype=np.int64), visuals)


def _init_params(cfg: ModelConfig) -> Dict[str, Tensor]:
    rng = np.random.default_rng(cfg.seed)
    d, c, v = cfg.embed_dim, cfg.vision_channels, cfg.vocab_size

    def p(*shape):
        return Tensor(rng.normal(0.0, 0.02, size=shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True)

    params = {
        "tok_emb": p(v, d),
        "pos_emb": p(cfg.max_seq_len, d),
        "patch_w": p(c, c),
        "patch_b": zeros(c),
        "conn_w": p(c, d),
        "conn_b": zeros(d),
        "ln_f_g": ones(d),
        "ln_f_b": zeros(d),
        "out_w": p(d, v),
        "out_b": zeros(v),
    }
    for i in range(cfg.num_layers):
        params.update({
            f"l{i}_ln1_g": ones(d), f"l{i}_ln1_b": zeros(d),
            f"l{i}_wq": p(d, d), f"l{i}_bq": zeros(d),
            f"l{i}_wk": p(d, d), f"l{i}_bk": zeros(d),
            f"l{i}_wv": p(d, d), f"l{i}_bv": zeros(d),
            f"l{i}_wo": p(d, d), f"l{i}_bo": zeros(d),
            f"l{i}_ln2_g": ones(d), f"l{i}_ln2_b": zeros(d),
            f"l{i}_w1": p(d, 4 * d), f"l{i}_b1": zeros(4 * d),
            f"l{i}_w2": p(4 * d, d), f"l{i}_b2": zeros(d),
        })
    return params


def _affine_norm(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    return add(mul(layer_norm_core(x), g), b)


class Model:
    """Parameters plus pure forward functions; training owns all mutation."""

    def __init__(self, cfg: ModelConfig, params: Optional[Dict[str, Tensor]] = None):
        self.cfg = cfg
        self.params = params if params is not None else _init_params(cfg)

    # ---- visual path ----

    def encode_visual_batch(self, grids: Sequence[Grid2D]) -> Tensor:
        """Project grids to visual token embeddings, [sum_slots, D]."""
        cfg = self.cfg
        stacked = np.stack([g.values for g in grids])  # [N, H, W, C]
        n = stacked.shape[0]
        x = constant(stacked.reshape(n, cfg.patch_h * cfg.patch_w, cfg.vision_channels))
        feats = add(matmul(x, self.params["patch_w"]), self.params["patch_b"])
        comp = bilinear_downsample_t(feats, cfg.patch_h, cfg.patch_w, cfg.compression_factor)
        toks = add(matmul(comp, self.params["conn_w"]), self.params["conn_b"])
        return reshape(toks, (n * cfg.visual_tokens, cfg.embed_dim))

    # ---- trunk ----

    def hidden_states(self, batch: Sequence[SerializedInput]) -> Tuple[Tensor, np.ndarray]:
        """Run the causal transformer; returns hidden [B, T, D] and lengths."""
        cfg = self.cfg
        lengths = np.asarray([len(s) for s in batch])
        t = int(lengths.max())
        if t > cfg.max_seq_len:
            raise LengthError(f"sequence length {t} > max_seq_len {cfg.max_seq_len}")
        ids = np.full((len(batch), t), vocab.PAD, dtype=np.int64)
        for i, s in enumerate(batch):
            ids[i, :lengths[i]] = s.ids
        x = take_rows(self.params["tok_emb"], ids)
        vis_mask = ids == vocab.VIS
        all_grids = [g for s in batch for g in s.visuals]
        if all_grids:
            x = masked_scatter(x, vis_mask, self.encode_visual_batch(all_grids))
        x = add(x, _slice_rows(self.params["pos_emb"], t))

        d, h = cfg.embed_dim, cfg.num_heads
        dh = d // h
        causal = constant(np.triu(np.full((t, t), -1e9), k=1))
        for i in range(cfg.num_layers):
            pre = _affine_norm(x, self.params[f"l{i}_ln1_g"], self.params[f"l{i}_ln1_b"])
            q = _heads(add(matmul(pre, self.params[f"l{i}_wq"]), self.params[f"l{i}_bq"]), h, dh)
            k = _heads(add(matmul(pre, self.params[f"l{i}_wk"]), self.params[f"l{i}_bk"]), h, dh)
            v = _heads(add(matmul(pre, self.params[f"l{i}_wv"]), self.params[f"l{i}_bv"]), h, dh)
            scores = add(mul(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh)), causal)
            ctx = matmul(softmax(scores), v)
            merged = reshape(transpose(ctx, (0, 2, 1, 3)), (len(batch), t, d))
            x = add(x, add(matmul(merged, self.params[f"l{i}_wo"]), self.params[f"l{i}_bo"]))
            pre2 = _affine_norm(x, self.params[f"l{i}_ln2_g"], self.params[f"l{i}_ln2_b"])
            mlp = matmul(gelu(add(matmul(pre2, self.params[f"l{i}_w1"]), self.params[f"l{i}_b1"])),
                         self.params[f"l{i}_w2"])
            x = add(x, add(mlp, self.params[f"l{i}_b2"]))
        x = _affine_norm(x, self.params["ln_f_g"], self.params["ln_f_b"])
        return x, lengths

    # ---- heads ----

    def embed_batch_t(self, batch: Sequence[SerializedInput]) -> Tensor:
        """Unit-norm last-token embeddings as a differentiable [B, D] tensor."""
        hidden, lengths = self.hidden_states(batch)
        last = index_select_last(hidden, lengths - 1)
        return l2_normalize(last)

    def embed(self, example: MultimodalExample) -> Embedding:
        vec = self.embed_batch_t([serialize(example, self.cfg)]).data[0]
        return Embedding(vector=vec, source_id=example.example_id)

    def embed_many(self, examples: Sequence[MultimodalExample],
                   batch_size: int = 128) -> List[Embedding]:
        out: List[Embedding] = []
        for i in range(0, len(examples), batch_size):
            chunk = examples[i:i + batch_size]
            vecs = self.embed_batch_t([serialize(e, self.cfg) for e in chunk]).data
            out.extend(Embedding(vector=v, source_id=e.example_id)
                       for v, e in zip(vecs, chunk))
        return out

    def next_token_logits_t(self, batch: Sequence[SerializedInput]) -> Tensor:
        """Unnormalized next-token logits at the final position, [B, V]."""
        if any(len(s) == 0 for s in batch):
            raise ParameterError("next_token_logits: empty prefix")
        hidden, lengths = self.hidden_states(batch)
        last = index_select_last(hidden, lengths - 1)
        return add(matmul(last, self.params["out_w"]), self.params["out_b"])

    def next_token_logits(self, prefix: SerializedInput) -> np.ndarray:
        return self.next_token_logits_t([prefix]).data[0]

    def logits_sequence(self, batch: Sequence[SerializedInput]) -> Tuple[Tensor, np.ndarray]:
        """Per-position next-token logits [B, T, V] plus lengths."""
        hidden, lengths = self.hidden_states(batch)
        return add(matmul(hidden, self.params["out_w"]), self.params["out_b"]), lengths

    # ---- persistence ----

    def save(self, path):
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            cfg_bytes = json.dumps(self.cfg.to_dict(), sort_keys=True).encode()
            f.write(struct.pack("<I", len(cfg_bytes)))
            f.write(cfg_bytes)
            f.write(struct.pack("<I", len(self.params)))
            for name in sorted(self.params):
                t = self.params[name]
                nb = name.encode()
                f.write(struct.pack("<I", len(nb)))
                f.write(nb)
                f.write(struct.pack("<I", t.data.ndim))
                f.write(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
                f.write(t.data.tobytes())

    @classmethod
    def load(cls, path) -> "Model":
        """Read a checkpoint written by `save`; a short read, trailing bytes
        or an unreadable config raise ConfigError naming the path."""
        buf = Path(path).read_bytes()
        if buf[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: not a model checkpoint")
        pos = len(CHECKPOINT_MAGIC)

        def take(n: int) -> bytes:
            nonlocal pos
            if pos + n > len(buf):
                raise ConfigError(f"{path}: checkpoint truncated at byte {len(buf)}")
            pos += n
            return buf[pos - n:pos]

        def u32(k: int = 1) -> tuple:
            return struct.unpack(f"<{k}I", take(4 * k))

        (version,) = u32()
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint version {version}")
        cfg_bytes = take(u32()[0])
        try:
            cfg = ModelConfig.from_dict(json.loads(cfg_bytes.decode()))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}: unreadable model config: {exc}") from exc
        params: Dict[str, Tensor] = {}
        for _ in range(u32()[0]):
            name = take(u32()[0]).decode()
            shape = u32(u32()[0])
            data = np.frombuffer(take(8 * int(np.prod(shape))), dtype=np.float64)
            params[name] = Tensor(data.reshape(shape).copy(), requires_grad=True)
        if pos != len(buf):
            raise ConfigError(f"{path}: {len(buf) - pos} trailing bytes after the checkpoint")
        return cls(cfg, params)

    def clone(self) -> "Model":
        return Model(self.cfg, {k: Tensor(v.data.copy(), requires_grad=True)
                                for k, v in self.params.items()})


def _heads(x: Tensor, h: int, dh: int) -> Tensor:
    b, t, _ = x.shape
    return transpose(reshape(x, (b, t, h, dh)), (0, 2, 1, 3))


def _slice_rows(t: Tensor, n: int) -> Tensor:
    return take_rows(t, np.arange(n))


def with_compression(cfg: ModelConfig, s: int) -> ModelConfig:
    """Same config with a different compression factor (for profiler sweeps)."""
    return replace(cfg, compression_factor=s)
