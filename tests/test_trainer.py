"""Optimizer math, stage ordering, determinism, and training dynamics."""

import json
import logging

import numpy as np
import pytest

from vtembed.autograd import Tensor
from vtembed.data import instruction_pairs
from vtembed.model import Model
from vtembed.trainer import (
    REQUIRED_PREDECESSOR,
    STAGES,
    AdamState,
    DivergenceError,
    GradientError,
    StageOrderError,
    StagePlan,
    _DivergenceWatch,
    _contrastive_step,
    check_predecessor,
    load_stage_checkpoint,
    mine_all,
    optimizer_step,
    run_global_hnm,
    run_reranker,
    run_stage1,
    run_stage3,
    run_warmup,
)


def _scalar_param(value, grad):
    p = Tensor(np.array([value]), requires_grad=True)
    p.grad = np.array([grad])
    return {"w": p}


class TestAdam:
    def test_first_step_scalar_oracle(self):
        """Hand-derived: mhat=g, vhat=g^2, update=lr*g/(|g|+eps) -> w=0.9."""
        params = _scalar_param(1.0, 1.0)
        optimizer_step(params, AdamState(peak_lr=0.1, total_steps=1, warmup_frac=0.0))
        assert abs(params["w"].data[0] - 0.9) <= 1e-8

    def test_two_steps_scalar_oracle(self):
        """Replay the textbook recursion independently for two steps."""
        grads = [1.0, -0.5]
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
        w, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        params = _scalar_param(1.0, grads[0])
        # constant-lr schedule: one-step warmup to peak then hold via cosine(0)
        state = AdamState(peak_lr=lr, total_steps=10 ** 9, warmup_frac=0.0)
        optimizer_step(params, state)
        params["w"].grad = np.array([grads[1]])
        optimizer_step(params, state)
        assert abs(params["w"].data[0] - w) <= 1e-9

    def test_missing_gradient_leaves_weight(self):
        params = {"w": Tensor(np.array([2.0]), requires_grad=True)}
        optimizer_step(params, AdamState(peak_lr=0.1, total_steps=1, warmup_frac=0.0))
        assert params["w"].data[0] == 2.0

    def test_non_finite_gradient_rejected(self):
        params = _scalar_param(1.0, np.nan)
        with pytest.raises(GradientError, match="w"):
            optimizer_step(params, AdamState(peak_lr=0.1, total_steps=1))

    def test_grad_cleared_after_step(self):
        params = _scalar_param(1.0, 1.0)
        optimizer_step(params, AdamState(peak_lr=0.1, total_steps=1, warmup_frac=0.0))
        assert params["w"].grad is None


class TestSchedule:
    def test_no_warmup_starts_at_peak(self):
        s = AdamState(peak_lr=3e-3, total_steps=100, warmup_frac=0.0)
        assert s.lr() == 3e-3

    def test_linear_warmup(self):
        s = AdamState(peak_lr=1.0, total_steps=100, warmup_frac=0.1)
        lrs = []
        for _ in range(10):
            lrs.append(s.lr())
            s.step_count += 1
        assert np.allclose(lrs, np.arange(1, 11) / 10)

    def test_cosine_decays_to_zero(self):
        s = AdamState(peak_lr=1.0, total_steps=100, warmup_frac=0.1)
        s.step_count = 100
        assert abs(s.lr()) <= 1e-12

    def test_midpoint_is_half_peak(self):
        s = AdamState(peak_lr=2.0, total_steps=100, warmup_frac=0.0)
        s.step_count = 50
        assert abs(s.lr() - 1.0) <= 1e-12

    def test_monotone_after_warmup(self):
        s = AdamState(peak_lr=1.0, total_steps=60, warmup_frac=0.1)
        lrs = []
        for t in range(6, 60):
            s.step_count = t
            lrs.append(s.lr())
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))


class TestStageOrder:
    def test_required_predecessors(self):
        assert REQUIRED_PREDECESSOR == {
            "restore": None, "warmup": "restore", "global_hnm": "warmup",
            "judge_ft": "global_hnm", "reranker": "restore"}

    def test_check_predecessor_pass_and_fail(self):
        check_predecessor("warmup", "restore")
        check_predecessor("reranker", "restore")
        with pytest.raises(StageOrderError):
            check_predecessor("judge_ft", "warmup")
        with pytest.raises(StageOrderError):
            check_predecessor("reranker", "judge_ft")

    def test_unknown_stage_in_plan(self):
        with pytest.raises(ValueError):
            StagePlan(stage="stage_zero")

    def test_load_checks_sidecar_stage(self, small_model, tmp_path):
        p = tmp_path / "m.ckpt"
        small_model.save(p)
        (tmp_path / "m.ckpt.meta.json").write_text(json.dumps({"stage": "warmup"}))
        loaded = load_stage_checkpoint(p, "warmup")
        assert np.array_equal(loaded.params["tok_emb"].data,
                              small_model.params["tok_emb"].data)
        with pytest.raises(StageOrderError, match="warmup"):
            load_stage_checkpoint(p, "global_hnm")

    def test_load_missing_sidecar(self, small_model, tmp_path):
        p = tmp_path / "bare.ckpt"
        small_model.save(p)
        with pytest.raises(StageOrderError, match="metadata"):
            load_stage_checkpoint(p, "restore")


class TestDivergenceWatch:
    def test_trips_after_patience(self):
        w = _DivergenceWatch(patience=3)
        w.check(1.0, "warmup")
        w.check(11.0, "warmup")
        w.check(11.0, "warmup")
        with pytest.raises(DivergenceError):
            w.check(11.0, "warmup")

    def test_recovery_resets_counter(self):
        w = _DivergenceWatch(patience=2)
        w.check(1.0, "warmup")
        w.check(11.0, "warmup")
        w.check(0.5, "warmup")
        w.check(11.0, "warmup")  # counter restarted; no raise


class TestTrainingRuns:
    def _plan(self, stage, steps=8, **kw):
        kw.setdefault("peak_lr", 1e-3)
        kw.setdefault("batch_size", 4)
        return StagePlan(stage=stage, steps=steps, seed=0, **kw)

    def test_stage1_identical_traces_same_seed(self, small_cfg, small_corpus):
        candidates, _, _ = small_corpus
        pairs = instruction_pairs(candidates[:12], seed=0,
                                  vocab_size=small_cfg.vocab_size)
        traces = []
        for _ in range(2):
            r = run_stage1(Model(small_cfg), pairs, self._plan("restore"))
            traces.append(r.loss_trace)
        assert traces[0] == traces[1]  # bitwise-equal floats

    def test_stage1_learns(self, small_cfg, small_corpus):
        candidates, _, _ = small_corpus
        pairs = instruction_pairs(candidates[:8], seed=0,
                                  vocab_size=small_cfg.vocab_size)
        r = run_stage1(Model(small_cfg), pairs,
                       self._plan("restore", steps=40, peak_lr=1e-2))
        assert r.final_loss < r.loss_trace[0]

    def test_warmup_writes_stage_sidecar(self, small_cfg, small_corpus, tmp_path):
        candidates, queries, _ = small_corpus
        out = tmp_path / "w.ckpt"
        plan = self._plan("warmup", steps=3)
        plan.output_checkpoint = str(out)
        run_warmup(Model(small_cfg), candidates, queries, plan)
        meta = json.loads((tmp_path / "w.ckpt.meta.json").read_text())
        assert meta == {"stage": "warmup"}
        load_stage_checkpoint(out, "warmup")

    def test_crashed_rewrite_leaves_no_loadable_partial(self, small_cfg, small_corpus,
                                                        tmp_path, monkeypatch):
        candidates, queries, _ = small_corpus
        out = tmp_path / "w.ckpt"
        plan = self._plan("warmup", steps=1, output_checkpoint=str(out))
        run_warmup(Model(small_cfg), candidates, queries, plan)
        finished = out.read_bytes()

        def crash(model, path):
            with open(path, "wb") as f:
                f.write(finished[:16])
            raise OSError("disk gone")
        monkeypatch.setattr(Model, "save", crash)
        with pytest.raises(OSError, match="disk gone"):
            run_warmup(Model(small_cfg), candidates, queries, plan)
        assert out.read_bytes() == finished
        with pytest.raises(StageOrderError, match="metadata"):
            load_stage_checkpoint(out, "warmup")

    def test_seed_changes_trace(self, small_cfg, small_corpus):
        candidates, queries, _ = small_corpus
        a = run_warmup(Model(small_cfg), candidates, queries, self._plan("warmup"))
        plan_b = self._plan("warmup")
        plan_b.seed = 1
        b = run_warmup(Model(small_cfg), candidates, queries, plan_b)
        assert a.loss_trace != b.loss_trace

    def test_mined_negatives_frozen_and_deterministic(self, small_cfg, small_corpus):
        candidates, queries, _ = small_corpus
        m = Model(small_cfg)
        plan = self._plan("global_hnm")
        mined_a = mine_all(m, candidates, queries, plan)
        mined_b = mine_all(m, candidates, queries, plan)
        assert mined_a == mined_b
        assert set(mined_a) == {q.example_id for q in queries}
        for q in queries:
            assert len(mined_a[q.example_id]) == plan.mine_count
            assert q.gt_positive_id not in mined_a[q.example_id]

    def test_mining_logs_one_shrink_summary_per_pass(self, small_cfg, small_corpus,
                                                     caplog):
        candidates, queries, _ = small_corpus  # 24 candidates, window (50, 100)
        m = Model(small_cfg)
        with caplog.at_level(logging.WARNING, logger="vtembed"):
            for _ in range(2):
                mine_all(m, candidates, queries, self._plan("global_hnm"))
        msgs = [r.getMessage() for r in caplog.records]
        assert len(msgs) == 2
        assert f"shrunk to [(22, 23)] for {len(queries)} of {len(queries)}" in msgs[0]

    def test_hnm_accepts_precomputed_mined(self, small_cfg, small_corpus):
        candidates, queries, _ = small_corpus
        m = Model(small_cfg)
        plan = self._plan("global_hnm", steps=3)
        mined = mine_all(m, candidates,
                         [q for q in queries if q.split == "train"], plan)
        r = run_global_hnm(m, candidates, queries, plan, mined=mined)
        assert len(r.loss_trace) == 3

    def test_stage3_uses_curated_negatives(self, small_cfg, small_corpus):
        from vtembed.curation import CuratedSample
        candidates, queries, _ = small_corpus
        cand_ids = [c.example_id for c in candidates]
        curated = [CuratedSample(q.example_id, q.gt_positive_id,
                                 judge_negative_ids=[c for c in cand_ids[:6]
                                                     if c != q.gt_positive_id])
                   for q in queries]
        r = run_stage3(Model(small_cfg), candidates, queries, curated,
                       self._plan("judge_ft", steps=3))
        assert len(r.loss_trace) == 3 and np.isfinite(r.final_loss)

    def test_reranker_needs_negatives(self, small_cfg, small_corpus):
        from vtembed.curation import CuratedSample
        candidates, queries, _ = small_corpus
        empty = [CuratedSample(q.example_id, q.gt_positive_id) for q in queries]
        with pytest.raises(ValueError, match="judge negatives"):
            run_reranker(Model(small_cfg), candidates, queries, empty,
                         self._plan("reranker", steps=1))

    def test_reranker_two_epochs_cover_each_sample(self, small_cfg, small_corpus):
        from vtembed.curation import CuratedSample
        candidates, queries, _ = small_corpus
        cand_ids = [c.example_id for c in candidates]
        curated = [CuratedSample(q.example_id, q.gt_positive_id,
                                 judge_negative_ids=[c for c in cand_ids[:8]
                                                     if c != q.gt_positive_id])
                   for q in queries[:3]]
        plan = self._plan("reranker", steps=1)
        r = run_reranker(Model(small_cfg), candidates, queries, curated, plan)
        assert len(r.loss_trace) == 2 * 3  # epochs x usable samples

    def test_trace_csv_roundtrip(self, small_cfg, small_corpus, tmp_path):
        candidates, _, _ = small_corpus
        pairs = instruction_pairs(candidates[:8], seed=0,
                                  vocab_size=small_cfg.vocab_size)
        r = run_stage1(Model(small_cfg), pairs, self._plan("restore", steps=4))
        p = tmp_path / "trace.csv"
        r.save_trace_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert [float(line.split(",")[1]) for line in lines[1:]] == r.loss_trace

    def test_checkpoint_reload_is_bitwise_stable(self, small_cfg, small_corpus, tmp_path):
        """Probe loss after save->load matches the live model bit for bit."""
        from vtembed.objectives import ContrastiveBatch, info_nce
        candidates, queries, _ = small_corpus
        m = Model(small_cfg)
        run_warmup(m, candidates, queries, self._plan("warmup", steps=4))
        p = tmp_path / "probe.ckpt"
        m.save(p)
        m2 = Model.load(p)
        e1 = np.stack([e.vector for e in m.embed_many(candidates[:6])])
        e2 = np.stack([e.vector for e in m2.embed_many(candidates[:6])])
        assert np.array_equal(e1, e2)


# Tensors one small-config contrastive step builds (forward; backward builds
# none), counted when the op graph was last changed. A fused op may lower it.
CONTRASTIVE_STEP_TENSORS = 115


def test_contrastive_step_graph_size(small_cfg, small_corpus, monkeypatch):
    candidates, queries, _ = small_corpus
    model = Model(small_cfg)
    by_id = {c.example_id: c for c in candidates}
    batch = [q for q in queries if q.split == "train"][:4]
    extras = [[candidates[j].example_id for j in (i, i + 1)] for i in range(4)]
    count = [0]
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(Tensor, "__init__", counting_init)
    _contrastive_step(model, batch, by_id, extras).backward()
    assert model.params["tok_emb"].grad is not None
    assert count[0] <= CONTRASTIVE_STEP_TENSORS
