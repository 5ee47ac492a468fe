"""Workloads of the vtembed benchmark and the correctness checks on them.

Every workload runs the same phases against the public vtembed API, each
on the workload's own corpus and model shape:

* ``setup``    -- `data.generate_corpus` plus `Model` init;
* ``index``    -- `Model.embed_many` over the corpus, one chunk per unit;
                  the first pass over all chunks builds the
                  `CandidateIndex` every other phase searches;
* ``sweep``    -- batch-1 encode of one candidate at compression s = 1, 2, 4;
* ``queries``  -- a closed loop of one client: `Model.embed` (batch 1),
                  `retrieval.search` top-10, `retrieval.rerank_topk` top-5
                  with `experiment.model_scorer`;
* ``mine``, ``judge`` -- one curation round: `trainer.mine_all`, then
                  `curation.curate_all` with `ClassOracleJudge`;
* ``pipeline`` -- one table4 seed through `experiment.run_experiment`,
                  which runs `run_seed_pipeline` and computes the report
                  `content_id`.

so every end-to-end metric exists on every workload.  The workloads differ
in input shape and in which phase gets most of the run's time (its
``focus``): sequence length, corpus size and whether a backward pass runs
decide which layers dominate.

The program is called only through module attributes at call time
(``retrieval.search(...)``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import logging
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import vtembed.curation as curation
import vtembed.data as data
import vtembed.experiment as experiment
import vtembed.model as model_mod
import vtembed.profiler as profiler
import vtembed.retrieval as retrieval
import vtembed.trainer as trainer

SWEEP_FACTORS = (1, 2, 4)
SEARCH_K = 10
RERANK_K = 5
JUDGE_K = 20
NUM_CLASSES = 10  # latent classes; relevance is same-class
# Learning rates of the shortened schedules.  At the TrainSettings defaults
# (3e-3, 1e-3), and on some seeds still at (1e-3, 3e-4), a few hundred
# steps collapse every embedding to one point, which leaves P@1 at the 0.1
# of a constant ranking.
PEAK_LR, STAGE3_LR = 3e-4, 5e-5
PHASES = ("setup", "index", "sweep", "queries", "mine", "judge", "pipeline")
# A chunk of the index is two `embed_many` batches, so chunked and whole
# builds encode the same batches and give bit-identical rows.
INDEX_CHUNK = 2 * inspect.signature(model_mod.Model.embed_many).parameters["batch_size"].default


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    corpus_size: int
    queries_per_class: int
    focus: Tuple[str, ...]      # the phases that run on until the run's seconds are used
    grid: int = 8               # patch grid is grid x grid
    max_seq_len: int = 256
    setups: int = 9             # set-ups after the first, each timed and checked against it
    index_chunks: int = 8       # chunks encoded again after the first build
    sweep_trials: int = 100     # each times s = 1, 2, 4 once
    # At least 200, so >= 10 latencies lie beyond p95.  More spread the
    # tail over more of the run, so a short stall on a shared machine moves
    # p95 less.
    queries: int = 300
    # curation rounds (mine and judge phases): prefixes of the corpus and train queries
    curate_rounds: int = 2
    curate_corpus: int = 256
    curate_queries: int = 24
    # pipeline phase: its own corpus (generated inside run_seed_pipeline)
    pipeline_runs: int = 1
    pipeline_corpus: int = 200
    pipeline_queries_per_class: int = 5  # every 5th query per class is held out
    steps: Tuple[int, int, int, int] = (1, 2, 2, 1)  # restore, warmup, global_hnm, judge_ft
    p_at_1_floor: float = 0.0   # P@1 after judge_ft

    def counts(self, trace: bool) -> Dict[str, int]:
        """Units per phase.  The traced run makes three passes, so each
        runs one unit of the big phases and fewer of the small ones."""
        if trace:
            return {"setup": 1, "index": 1, "sweep": min(30, self.sweep_trials),
                    "queries": min(100, self.queries), "mine": 1, "judge": 1,
                    "pipeline": 1}
        return {"setup": self.setups, "index": self.index_chunks,
                "sweep": self.sweep_trials, "queries": self.queries,
                "mine": self.curate_rounds, "judge": self.curate_rounds,
                "pipeline": self.pipeline_runs}

    def model_config(self, seed: int) -> model_mod.ModelConfig:
        return model_mod.ModelConfig(patch_h=self.grid, patch_w=self.grid,
                                     max_seq_len=self.max_seq_len, seed=seed)

    def corpus_spec(self, seed: int) -> data.SyntheticTaskSpec:
        return data.SyntheticTaskSpec(task_class=self.task, num_classes=NUM_CLASSES,
                                      corpus_size=self.corpus_size,
                                      queries_per_class=self.queries_per_class, seed=seed)

    def experiment_config(self, seed: int) -> experiment.ExperimentConfig:
        stage1, warmup, hnm, stage3 = self.steps
        return experiment.ExperimentConfig(
            preset="table4", seeds=[seed], model=self.model_config(seed),
            data=data.SyntheticTaskSpec(
                task_class=self.task, num_classes=NUM_CLASSES,
                corpus_size=self.pipeline_corpus,
                queries_per_class=self.pipeline_queries_per_class, seed=seed),
            train=experiment.TrainSettings(stage1_steps=stage1, warmup_steps=warmup,
                                           hnm_steps=hnm, stage3_steps=stage3,
                                           peak_lr=PEAK_LR, stage3_lr=STAGE3_LR))


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # The criterion-7/8 corpus at the default ModelConfig (sequences of 11-22
    # tokens); the training schedule is cut so two seed runs fit in one run.
    Workload(
        name="pipeline",
        task="T2I", corpus_size=2000, queries_per_class=20, focus=("pipeline",),
        setups=6, index_chunks=4, queries=400,
        pipeline_runs=2, pipeline_corpus=2000, pipeline_queries_per_class=20,
        steps=(5, 20, 200, 20), p_at_1_floor=0.15),
    # A 16x16 grid at s = 2: candidates are 70 tokens, rerank prompts 145.
    Workload(
        name="serve",
        task="IT2I", corpus_size=2000, queries_per_class=25, focus=("queries",),
        grid=16, max_seq_len=288, setups=6, index_chunks=2, sweep_trials=60,
        curate_corpus=128, pipeline_corpus=120),
    # Text only, 11-token sequences, so encoding is cheap and ranking 10k
    # candidates per query dominates.  Mining and judging of the one
    # curation round sit a quarter and three quarters into the run, so the
    # other phases sample the whole run around them.
    Workload(
        name="curate",
        task="T2T", corpus_size=10000, queries_per_class=40, focus=("mine", "judge"),
        setups=4, index_chunks=10, sweep_trials=200,
        curate_rounds=1, curate_corpus=10000, curate_queries=320,
        pipeline_corpus=120),
)}


class OverflowCounter(logging.Handler):
    """Counts the prompt overflows `rerank_topk` reports only as warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "prompt overflow" in record.getMessage():
            self.count += 1


@dataclass
class Pass:
    """Outcome of one pass over the phases."""
    values: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)
    digests: List[str] = dataclasses.field(default_factory=list)
    visual_tokens: Dict[int, int] = dataclasses.field(default_factory=dict)
    phase_s: Dict[str, float] = dataclasses.field(default_factory=dict)
    wall_s: float = 0.0

    def op(self, what: str, check: Callable[[], Optional[str]]):
        """Run one operation; an exception or a failed check is a failure."""
        self.attempted += 1
        try:
            problem = check()
        except Exception as exc:  # any error in the program fails the operation
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{what}: {problem}")

    def add(self, name: str, value: float):
        self.values.setdefault(name, []).append(value)


def _digest_examples(examples) -> str:
    h = hashlib.sha256()
    for e in examples:
        h.update(repr((e.example_id, e.instruction, e.text, e.class_id,
                       e.gt_positive_id, e.split)).encode())
        if e.visual is not None:
            h.update(e.visual.values.tobytes())
    return h.hexdigest()


def _id_rank(ids: List[str]) -> np.ndarray:
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def oracle_order(index: retrieval.CandidateIndex, id_rank: np.ndarray,
                 vec: np.ndarray) -> np.ndarray:
    """Brute-force ranking: score descending, then candidate id ascending."""
    scores = index.matrix @ np.asarray(vec, dtype=np.float64)
    return np.lexsort((id_rank, -scores))


class Runner:
    """Runs the phases of one workload for one seed.

    Each phase is a number of units (a set-up, an index chunk, one sweep
    trial, one query, one half of a curation round, one table4 run).
    `schedule` spreads every phase's units evenly over the run, so each
    metric samples the whole run rather than one stretch of it: on a
    shared machine the speed drifts over seconds, and a metric measured in
    one burst would carry that drift from run to run.
    """

    def __init__(self, w: Workload, seed: int, tracer=None):
        self.w, self.seed, self.tracer = w, seed, tracer
        self.overflows = OverflowCounter()
        self.latencies: List[float] = []
        self.sweep_times: Dict[int, List[float]] = {}
        self.mined: Dict[int, tuple] = {}

    def call(self, phase: str, run_id: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.phase(phase, run_id, fn, *args, **kwargs)

    def run(self, counts: Dict[str, int], seconds: float, extend: bool) -> Pass:
        """One pass: set up, build the index, then the scheduled units of
        every phase.

        With `extend` the focus phases run further units while one more
        round of them, at the mean length of their units so far, ends
        within `seconds` of the end of the first set-up.
        """
        logger = logging.getLogger("vtembed.retrieval")
        logger.addHandler(self.overflows)
        try:
            p = Pass()
            t0 = time.perf_counter()
            self.setup(p)
            deadline = time.perf_counter() + seconds
            p.phase_s["setup"] = time.perf_counter() - t0
            self.build_index(p)
            p.phase_s["index"] = time.perf_counter() - t0 - p.phase_s["setup"]
            self.sweep_init(p)
            units = {"setup": self.unit_setup, "index": self.unit_index,
                     "sweep": self.unit_sweep, "queries": self.unit_query,
                     "mine": self.unit_mine, "judge": self.unit_judge,
                     "pipeline": self.unit_pipeline}
            done = {ph: 0 for ph in PHASES}

            def do(ph):
                t1 = time.perf_counter()
                units[ph](p, done[ph])
                done[ph] += 1
                p.phase_s[ph] = p.phase_s.get(ph, 0.0) + time.perf_counter() - t1

            for ph in schedule(counts):
                do(ph)
            focus = self.w.focus
            while extend and (time.perf_counter()
                              + sum(p.phase_s[ph] / done[ph] for ph in focus) <= deadline):
                for ph in focus:
                    do(ph)
            self.finish(p)
            p.wall_s = time.perf_counter() - t0
            return p
        finally:
            logger.removeHandler(self.overflows)

    def finish(self, p: Pass):
        p.values["query_latencies_ms"] = self.latencies
        for s, ts in self.sweep_times.items():
            p.add(f"encode_ms.s{s}", statistics.median(ts) * 1e3)

    # ---- set-up: corpus generation plus model init ----

    def make(self, p: Pass, run_id: str):
        t0 = time.perf_counter()
        cands, queries, _qrels = self.call(
            "setup", run_id, data.generate_corpus,
            self.w.corpus_spec(self.seed), self.w.model_config(self.seed))
        model = model_mod.Model(self.w.model_config(self.seed))
        p.add("setup_s", time.perf_counter() - t0)
        return cands, queries, model

    def setup(self, p: Pass):
        self.cands, self.queries, self.model = self.make(p, "setup:first")
        self.by_id = {c.example_id: c for c in self.cands}
        self.corpus_digest = _digest_examples(self.cands + self.queries)

    def unit_setup(self, p: Pass, i: int):
        def again():
            cands, queries, model = self.make(p, f"setup:{i}")
            if _digest_examples(cands + queries) != self.corpus_digest:
                return "corpus differs between set-ups with one seed"
            if any(not np.array_equal(v.data, self.model.params[k].data)
                   for k, v in model.params.items()):
                return "model init differs between set-ups with one seed"
            return None
        p.op(f"setup {i}", again)

    # ---- index ----

    def embed_chunk(self, p: Pass, j: int, run_id: str):
        """Encode chunk `j` of the corpus; one `index_items_per_s` sample."""
        chunk = self.cands[j * INDEX_CHUNK:(j + 1) * INDEX_CHUNK]
        t0 = time.perf_counter()
        embs = self.call("index", run_id, self.model.embed_many, chunk)
        p.add("index_items_per_s", len(chunk) / (time.perf_counter() - t0))
        return embs

    def build_index(self, p: Pass):
        """The index every phase searches, built chunk by chunk."""
        self.n_chunks = -(-len(self.cands) // INDEX_CHUNK)

        def build():
            embs = [e for j in range(self.n_chunks)
                    for e in self.embed_chunk(p, j, f"index:first:{j}")]
            self.index = retrieval.CandidateIndex.build(embs)
            self.id_rank = _id_rank(self.index.ids)
            if self.index.ids != [c.example_id for c in self.cands]:
                return "index ids differ from corpus ids"
            return None
        p.op("index build", build)

    def unit_index(self, p: Pass, i: int):
        j = i % self.n_chunks

        def again():
            embs = self.embed_chunk(p, j, f"index:{i}")
            rows = self.index.matrix[j * INDEX_CHUNK:(j + 1) * INDEX_CHUNK]
            if not np.array_equal(np.stack([e.vector for e in embs]), rows):
                return f"chunk {j} differs from the first build"
            return None
        p.op(f"index chunk {i}", again)

    # ---- s sweep ----

    def sweep_init(self, p: Pass):
        """One model per compression factor; `measure_encode` checks the
        visual token count of each."""
        self.sweep_example = example = self.cands[0]
        base = self.w.model_config(self.seed)
        self.sweep_models = {}
        for s in SWEEP_FACTORS:
            cfg = model_mod.with_compression(base, s)
            m = model_mod.Model(cfg)

            def profile(s=s, m=m, cfg=cfg):
                prof = self.call("sweep", f"sweep:s{s}", profiler.measure_encode,
                                 m, example, trials=3, label=f"s{s}")
                p.visual_tokens[s] = prof.visual_tokens
                want = profiler.token_budget(cfg, has_image=example.visual is not None)
                if prof.visual_tokens != want:
                    return f"s={s}: {prof.visual_tokens} visual tokens, expected {want}"
                self.sweep_models[s] = m
                self.sweep_times[s] = []
                return None
            p.op(f"sweep s={s}", profile)

    def unit_sweep(self, p: Pass, i: int):
        for s, m in self.sweep_models.items():
            def encode(s=s, m=m):
                t0 = time.perf_counter()
                emb = self.call("sweep", f"sweep:{i}", m.embed, self.sweep_example)
                self.sweep_times[s].append(time.perf_counter() - t0)
                return None if np.isfinite(emb.vector).all() else "non-finite embedding"
            p.op(f"sweep {i} s={s}", encode)

    # ---- closed-loop queries ----

    def unit_query(self, p: Pass, i: int):
        q = self.queries[i % len(self.queries)]
        p.op(f"query {i} ({q.example_id})", lambda: self.one_query(q, f"query:{i}"))

    def one_query(self, q, run_id: str) -> Optional[str]:
        def serve():
            emb = self.model.embed(q)
            ranked = retrieval.search(self.index, emb.vector, k=SEARCH_K,
                                      query_id=q.example_id)
            scorer = experiment.model_scorer(self.model, q, self.by_id)
            return emb, ranked, retrieval.rerank_topk(ranked, scorer, k_rerank=RERANK_K)

        before = self.overflows.count
        t0 = time.perf_counter()
        emb, ranked, reranked = self.call("query", run_id, serve)
        self.latencies.append((time.perf_counter() - t0) * 1e3)
        want = [self.index.ids[j]
                for j in oracle_order(self.index, self.id_rank, emb.vector)[:SEARCH_K]]
        if ranked.ids != want:
            return "top-10 differs from the lexsort oracle"
        if (set(reranked.ids[:RERANK_K]) != set(ranked.ids[:RERANK_K])
                or reranked.ids[RERANK_K:] != ranked.ids[RERANK_K:]):
            return "rerank changed the top-5 membership or the tail"
        if self.overflows.count != before:
            return f"{self.overflows.count - before} rerank prompt overflows"
        return None

    # ---- mining and curation ----

    def curate_init(self):
        """Inputs of a curation round and the oracle index that checks it."""
        w = self.w
        self.cur_cands = self.cands[:w.curate_corpus]
        self.cur_queries = [q for q in self.queries if q.split == "train"][:w.curate_queries]
        if len(self.cur_cands) == len(self.cands):
            self.cur_index, self.cur_rank = self.index, self.id_rank
        else:
            self.cur_index = retrieval.CandidateIndex.build(
                self.model.embed_many(self.cur_cands))
            self.cur_rank = _id_rank(self.cur_index.ids)
        self.cur_qvecs = [e.vector for e in self.model.embed_many(self.cur_queries)]
        self.plan = trainer.StagePlan(stage="global_hnm", seed=self.seed)
        if len(self.cur_cands) <= self.plan.mine_window[1]:
            raise ValueError(f"{w.name}: curate corpus must exceed the mining window")

    def unit_mine(self, p: Pass, i: int):
        if i == 0:
            self.curate_init()
        t0 = time.perf_counter()
        try:
            mined = self.call("curate", f"curate:{i}", trainer.mine_all,
                              self.model, self.cur_cands, self.cur_queries, self.plan)
        except Exception as exc:  # the round failed; its judge unit counts the queries
            mined = exc
        self.mined[i] = (mined, time.perf_counter() - t0)

    def unit_judge(self, p: Pass, i: int):
        queries, (mined, mine_s) = self.cur_queries, self.mined.pop(i)
        try:
            if isinstance(mined, Exception):
                raise mined
            t0 = time.perf_counter()
            curated = self.call("curate", f"curate:{i}", curation.curate_all,
                                queries, self.cur_cands, self.model.embed_many,
                                curation.ClassOracleJudge(seed=self.seed),
                                template_id=self.w.task, k=JUDGE_K)
            p.add("curate_queries_per_s",
                  len(queries) / (mine_s + time.perf_counter() - t0))
        except Exception as exc:  # the round failed, so every query in it failed
            p.attempted += len(queries)
            p.failures.append(f"curate round {i}: {type(exc).__name__}: {exc}")
            return
        by_q = {s.query_id: s for s in curated}
        for q, vec in zip(queries, self.cur_qvecs):
            p.op(f"curate {i} {q.example_id}", lambda q=q, vec=vec: self.check_curated(
                q, vec, mined.get(q.example_id), by_q.get(q.example_id)))

    def check_curated(self, q, vec, mined, sample) -> Optional[str]:
        if mined is None or sample is None:
            return "query missing from the mined or curated output"
        lo, hi = self.plan.mine_window
        index = self.cur_index
        # the ground truth is dropped at most once, so hi + 1 ranks cover the window
        ranked = [index.ids[j] for j in oracle_order(index, self.cur_rank, vec)[:hi + 1]]
        pool = [cid for cid in ranked if cid != q.gt_positive_id]
        window = set(pool[lo - 1:hi])
        if len(mined) != len(set(mined)) or not set(mined) <= window:
            return f"mined ids {mined} outside oracle ranks {lo}-{hi}"
        judged = [cid for cid in ranked[:JUDGE_K] if cid != q.gt_positive_id]
        if [v.candidate_id for v in sample.verdicts] != judged:
            return "judged ids differ from the oracle top-20"
        for v in sample.verdicts:
            same = self.by_id[v.candidate_id].class_id == q.class_id
            if v.verdict != ("relevant" if same else "irrelevant"):
                return f"verdict {v.verdict} on {v.candidate_id} contradicts class labels"
        if (sample.judge_positive_ids != [v.candidate_id for v in sample.verdicts
                                          if v.verdict == "relevant"]
                or sample.judge_negative_ids != [v.candidate_id for v in sample.verdicts
                                                 if v.verdict == "irrelevant"]):
            return "judge positives/negatives do not follow the verdicts"
        return None

    # ---- table4 seed ----

    def unit_pipeline(self, p: Pass, i: int):
        cfg = self.w.experiment_config(self.seed)
        p.op(f"pipeline run {i}", lambda: self.one_pipeline(p, cfg, f"pipeline:{i}"))

    def one_pipeline(self, p: Pass, cfg, run_id: str) -> Optional[str]:
        t0 = time.perf_counter()
        report = self.call("pipeline", run_id, experiment.run_experiment, cfg)
        p.add("pipeline_s", time.perf_counter() - t0)
        digest = report["manifest"]["content_id"]
        p.digests.append(digest)
        if report["failures"]:
            return f"seed failed: {report['failures']}"
        for stage, trace in report["loss_traces"][str(self.seed)].items():
            if not all(math.isfinite(x) for x in trace):
                return f"non-finite loss in stage {stage}"
        p1 = next(row[f"seed{self.seed}"] for row in report["rows"]
                  if row["config"] == experiment.STAGE_LABELS["judge_ft"])
        p.add("p_at_1_judge_ft", p1)
        if p1 < self.w.p_at_1_floor:
            return f"P@1 after judge_ft {p1} below floor {self.w.p_at_1_floor}"
        if digest != p.digests[0]:
            return f"content_id {digest} differs from the first run's {p.digests[0]}"
        return None


# Where in its period each phase's units sit: mining a quarter of the way
# in and judging three quarters, so the halves of a curation round are
# apart and each round mines before it judges.
OFFSETS = {"mine": 0.25, "judge": 0.75}


def schedule(counts: Dict[str, int]) -> List[str]:
    """Order units so each phase's units sit evenly spread over the run:
    unit i of a phase with n units sits at position (i + offset) / n."""
    slots = []
    for order, (phase, n) in enumerate(counts.items()):
        offset = OFFSETS.get(phase, 0.5)
        slots += [((i + offset) / n, order, phase) for i in range(n)]
    return [phase for _pos, _order, phase in sorted(slots)]


def end_to_end(p: Pass) -> Dict[str, float]:
    v = p.values
    lat = v["query_latencies_ms"]
    return {
        "setup_s": statistics.median(v["setup_s"]),
        "pipeline_s": statistics.median(v["pipeline_s"]),
        "index_items_per_s": statistics.median(v["index_items_per_s"]),
        "query_ms.p50": statistics.median(lat),
        "query_ms.p95": statistics.quantiles(lat, n=100)[94],
        **{f"encode_ms.s{s}": statistics.median(v[f"encode_ms.s{s}"])
           for s in SWEEP_FACTORS},
        "curate_queries_per_s": statistics.median(v["curate_queries_per_s"]),
    }
