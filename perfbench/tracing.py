"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the vtembed modules from outside the
package.  Each wrapped call records a span ``[name, start, end, parent,
run id]``; a few wrappers also count work taken from the call's arguments
or result.  Spans stay in memory and are written out when the run ends.
Nothing in vtembed is edited: `Tracer.install` replaces module and class
attributes and `Tracer.uninstall` puts the originals back.

A span's self time is its duration minus the time covered by its child
spans.  The layer of a span is the vtembed module of the wrapped function
(the prefix of its name); spans the benchmark opens itself are layer
``bench``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("autograd", "model", "objectives", "trainer", "curation",
          "retrieval", "profiler", "data", "experiment")

# The autograd ops vtembed.model imports.  They are wrapped where other
# modules import them, not inside vtembed.autograd, so an op that calls
# another op internally (bilinear_downsample_t -> matmul) is one span.
OPS = ("matmul", "gelu", "softmax", "layer_norm_core", "add", "mul",
       "take_rows", "masked_scatter", "bilinear_downsample_t", "l2_normalize",
       "reshape", "transpose")

# (defining module, function name) of every wrapped module-level function.
FUNCTIONS = (
    ("trainer", "run_stage1"), ("trainer", "run_warmup"),
    ("trainer", "run_global_hnm"), ("trainer", "run_stage3"),
    ("trainer", "run_reranker"), ("trainer", "mine_all"),
    ("trainer", "optimizer_step"),
    ("objectives", "info_nce"), ("objectives", "ntp_loss"),
    ("objectives", "pointwise_loss"), ("objectives", "listwise_loss"),
    ("curation", "curate_all"), ("curation", "mine_from_index"),
    ("curation", "retrieve_and_judge"), ("curation", "judge_pair"),
    ("retrieval", "search"), ("retrieval", "rerank_topk"),
    ("profiler", "measure_encode"),
    ("data", "generate_corpus"),
    ("experiment", "run_seed_pipeline"), ("experiment", "evaluate_embedder"),
    ("experiment", "evaluate_two_stage"),
)

MODEL_METHODS = ("hidden_states", "encode_visual_batch", "embed_many", "embed",
                 "next_token_logits")

STAGE_SPANS = {"trainer.run_stage1": "restore", "trainer.run_warmup": "warmup",
               "trainer.run_global_hnm": "global_hnm", "trainer.run_stage3": "judge_ft"}
# trainer.forward_s is stage time less these; mine_all runs inside global_hnm
NOT_FORWARD = ("autograd.backward", "trainer.optimizer_step", "trainer.mine_all")

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.run_id = ""
        self.counts: Dict[str, float] = {
            "tensors": 0, "rows": 0, "positions": 0, "real_positions": 0,
            "encode_rows": 0, "judge_calls": 0, "judge_negatives": 0,
            "window_shrinks": 0, "search_k": 0, "search_candidates": 0,
        }
        self._patches: List[tuple] = []

    # ---- recording ----

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap `fn` so each call records a span; `after(args, kwargs,
        result)` runs once the span has closed."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    def phase(self, name: str, run_id: str, fn: Callable, *args, **kwargs):
        """Run one benchmark operation as a root ``bench.<name>`` span."""
        self.run_id = run_id
        return self.span(f"bench.{name}", fn)(*args, **kwargs)

    # ---- installation ----

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import vtembed.autograd as autograd
        from vtembed.model import Model

        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("vtembed.") and m is not None]
        c = self.counts

        def patch_everywhere(fn, wrapper, skip=None):
            for mod in modules:
                if mod is not skip and getattr(mod, fn.__name__, None) is fn:
                    self._patch(mod, fn.__name__, wrapper)

        for op in OPS:
            fn = getattr(autograd, op)
            patch_everywhere(fn, self.span(f"autograd.{op}", fn), skip=autograd)
        afters = {
            "mine_from_index": self._after_mine,
            "judge_pair": self._after_judge,
            "search": self._after_search,
        }
        for mod_name, fn_name in FUNCTIONS:
            fn = getattr(sys.modules[f"vtembed.{mod_name}"], fn_name)
            patch_everywhere(fn, self.span(f"{mod_name}.{fn_name}", fn,
                                           afters.get(fn_name)))

        method_afters = {"hidden_states": self._after_hidden,
                         "embed_many": self._after_embed_many}
        for meth in MODEL_METHODS:
            self._patch(Model, meth, self.span(f"model.{meth}", getattr(Model, meth),
                                               method_afters.get(meth)))
        tensor = autograd.Tensor
        self._patch(tensor, "backward", self.span("autograd.backward", tensor.backward))
        init = tensor.__init__

        @functools.wraps(init)
        def counting_init(*args, **kwargs):
            c["tensors"] += 1
            init(*args, **kwargs)
        self._patch(tensor, "__init__", counting_init)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # ---- counters read from arguments and results ----

    def _after_hidden(self, args, kwargs, out):
        _hidden, lengths = out
        c = self.counts
        c["rows"] += len(lengths)
        c["positions"] += len(lengths) * int(lengths.max())
        c["real_positions"] += int(lengths.sum())

    def _after_embed_many(self, args, kwargs, out):
        self.counts["encode_rows"] += len(out)

    def _after_mine(self, args, kwargs, out):
        self.counts["window_shrinks"] += int(out.shrunk)

    def _after_judge(self, args, kwargs, out):
        self.counts["judge_calls"] += 1
        self.counts["judge_negatives"] += int(out.verdict == "irrelevant")

    def _after_search(self, args, kwargs, out):
        index = args[0] if args else kwargs["index"]
        self.counts["search_k"] += len(out.ids)
        self.counts["search_candidates"] += len(index)

    # ---- results ----

    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - cov for rec, cov in zip(self.spans, covered)]

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics in seconds, counts and ratios."""
        spans, c = self.spans, self.counts
        total: Dict[str, float] = {}
        own: Dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
        searches: List[float] = []
        not_forward = 0.0  # time inside training stages that is not forward work
        for rec, self_s in zip(spans, self.self_times()):
            name, dur = rec[NAME], rec[END] - rec[START]
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + self_s
            layer_self[name.split(".", 1)[0]] += self_s
            if name == "retrieval.search":
                searches.append(dur)
            elif name in NOT_FORWARD and self._in_stage(rec):
                not_forward += dur

        def t(name):
            return total.get(name, 0.0)

        out: Dict[str, float] = {
            "autograd.backward_s": t("autograd.backward"),
            "autograd.tensors": c["tensors"],
        }
        for op in OPS:
            out[f"autograd.op_s.{op}"] = t(f"autograd.{op}")
        out.update({
            "model.hidden_states_s": own.get("model.hidden_states", 0.0),
            "model.encode_visual_s": t("model.encode_visual_batch"),
            "model.rows": c["rows"],
            "model.pad_fraction": (1.0 - c["real_positions"] / c["positions"]
                                   if c["positions"] else 0.0),
            "model.encode_rows": c["encode_rows"],
            "objectives.info_nce_s": t("objectives.info_nce"),
            "objectives.ntp_loss_s": t("objectives.ntp_loss"),
        })
        for span_name, stage in STAGE_SPANS.items():
            out[f"trainer.stage_s.{stage}"] = t(span_name)
        out.update({
            "trainer.optimizer_s": t("trainer.optimizer_step"),
            "trainer.forward_s": sum(t(n) for n in STAGE_SPANS) - not_forward,
            "trainer.mine_all_s": t("trainer.mine_all"),
            "curation.curate_all_s": t("curation.curate_all"),
            "curation.mine_from_index_s": t("curation.mine_from_index"),
            "curation.judge_calls": c["judge_calls"],
            "curation.judge_negative_ratio": (c["judge_negatives"] / c["judge_calls"]
                                              if c["judge_calls"] else 0.0),
            "curation.window_shrinks": c["window_shrinks"],
            "retrieval.search_s": t("retrieval.search"),
            "retrieval.search_calls": len(searches),
            "retrieval.search_ms.p50": statistics.median(searches) * 1e3 if searches else 0.0,
            "retrieval.rank_useful_ratio": (c["search_k"] / c["search_candidates"]
                                            if c["search_candidates"] else 0.0),
            "retrieval.rerank_s": t("retrieval.rerank_topk"),
            "experiment.eval_s": t("experiment.evaluate_embedder")
                                 + t("experiment.evaluate_two_stage"),
            "data.generate_corpus_s": t("data.generate_corpus"),
        })
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = seconds
        out["trace.spans"] = len(spans)
        return out

    def _in_stage(self, rec) -> bool:
        parent = rec[PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] in STAGE_SPANS:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write(self, path):
        """Write spans as JSON lines: [id, name, start_us, end_us, parent, run]."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            f.write(json.dumps({"fields": ["id", "name", "start_us", "end_us",
                                           "parent", "run"]}) + "\n")
            for i, rec in enumerate(self.spans):
                f.write(json.dumps([i, rec[NAME], round((rec[START] - t0) * 1e6, 1),
                                    round((rec[END] - t0) * 1e6, 1), rec[PARENT],
                                    rec[RUN]]) + "\n")
