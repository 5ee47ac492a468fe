"""Token-budget identities, the attention-cost model, and table rendering."""

import csv
import io

import numpy as np
import pytest

from vtembed.autograd import Grid2D
from vtembed.model import Model, ModelConfig, MultimodalExample
from vtembed.profiler import (
    CostProfile,
    attention_cost,
    emit_efficiency_table,
    measure_encode,
    token_budget,
)


class TestTokenBudget:
    def test_compression_identity(self):
        """Budget scales exactly with 1/s^2 of the raw patch grid."""
        for s in (1, 2, 4):
            cfg = ModelConfig(patch_h=16, patch_w=16, compression_factor=s,
                              max_seq_len=512)
            assert token_budget(cfg) == 16 * 16 // (s * s)

    def test_expected_counts(self):
        c1 = ModelConfig(patch_h=16, patch_w=16, compression_factor=1,
                         max_seq_len=512)
        c2 = ModelConfig(patch_h=16, patch_w=16, compression_factor=2,
                         max_seq_len=512)
        assert token_budget(c1) == 256
        assert token_budget(c2) == 64

    def test_no_image_is_zero(self):
        cfg = ModelConfig(patch_h=16, patch_w=16, compression_factor=2,
                          max_seq_len=512)
        assert token_budget(cfg, has_image=False) == 0


class TestAttentionCost:
    def test_single_layer_formula(self):
        """L=1: exactly 2*T^2*D + 8*T*D^2 multiply-accumulates."""
        assert attention_cost(10, 1, 2, 16) == 2 * 100 * 16 + 8 * 10 * 256

    def test_layers_scale_linearly(self):
        one = attention_cost(32, 1, 4, 64)
        assert attention_cost(32, 3, 4, 64) == 3 * one

    def test_sixteen_fold_quadratic_drop(self):
        """256 -> 64 visual tokens cuts the quadratic term exactly 16x."""
        d, layers = 64, 2

        def quad(t):
            return attention_cost(t, layers, 4, d) - layers * 8.0 * t * d * d

        assert quad(256) / quad(64) == 16.0

    def test_convex_in_seq_len(self):
        costs = [attention_cost(t, 2, 4, 32) for t in range(8, 128, 8)]
        diffs = np.diff(costs)
        assert (np.diff(diffs) > 0).all()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            attention_cost(0, 1, 1, 16)


class TestMeasure:
    def test_measure_shapes_and_budget(self, small_cfg, rng):
        m = Model(small_cfg)
        ex = MultimodalExample(
            example_id="x", role="candidate",
            visual=Grid2D(rng.normal(0, 1, (small_cfg.patch_h, small_cfg.patch_w,
                                            small_cfg.vision_channels))))
        p = measure_encode(m, ex, trials=3, label="s2")
        assert p.visual_tokens == token_budget(small_cfg)
        assert p.wall_clock_ms > 0 and p.trials == 3
        assert p.role == "candidate"

    def test_too_few_trials(self, small_model, rng):
        ex = MultimodalExample(example_id="x", role="query", text=(30, 31))
        with pytest.raises(ValueError):
            measure_encode(small_model, ex, trials=2)


class TestTable:
    def _profile(self, label, role, vt, ms):
        return CostProfile(label=label, role=role, visual_tokens=vt,
                           text_tokens=4, attention_flops=1.0,
                           wall_clock_ms=ms, trials=5)

    def test_structure_and_csv_roundtrip(self):
        profiles = [self._profile("s=1", "query", 256, 12.5),
                    self._profile("s=1", "candidate", 256, 13.0),
                    self._profile("s=2", "query", 64, 3.25),
                    self._profile("s=2", "candidate", 64, 3.5)]
        out = emit_efficiency_table(profiles)
        rows = list(csv.reader(io.StringIO(out["csv"])))
        assert rows[0] == ["config", "#VT_q", "l_q (ms)", "#VT_c", "l_c (ms)"]
        assert rows[1] == ["s=1", "256", "12.500", "256", "13.000"]
        assert rows[2] == ["s=2", "64", "3.250", "64", "3.500"]
        md = out["markdown"].splitlines()
        assert md[0].startswith("| config |")
        assert "| s=2 | 64 | 3.250 | 64 | 3.500 |" in md

    def test_missing_role_renders_dash(self):
        out = emit_efficiency_table([self._profile("q-only", "query", 64, 1.0)])
        rows = list(csv.reader(io.StringIO(out["csv"])))
        assert rows[1][3] == "-" and rows[1][4] == "-"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_efficiency_table([])
