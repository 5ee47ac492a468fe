"""Encoder contract: serialization, embedding, logits, checkpoints."""

import numpy as np
import pytest

from vtembed import vocab
from vtembed.autograd import Grid2D, ParameterError
from vtembed.model import (
    ConfigError,
    LengthError,
    Model,
    ModelConfig,
    MultimodalExample,
    SerializedInput,
    serialize,
    with_compression,
)

from conftest import fd_check, random_grid


def _cand(rng, cfg, eid="c0"):
    g = Grid2D(rng.normal(0, 1, (cfg.patch_h, cfg.patch_w, cfg.vision_channels)))
    return MultimodalExample(example_id=eid, role="candidate", visual=g)


def _query(eid="q0", text=(30, 31, 32)):
    return MultimodalExample(example_id=eid, role="query", text=text)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(embed_dim=30, num_heads=4)

    def test_grid_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(patch_h=9, compression_factor=2)

    def test_vocab_floor(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10)

    def test_visual_token_counts(self):
        assert ModelConfig(patch_h=16, patch_w=16, compression_factor=2,
                           max_seq_len=512).visual_tokens == 64
        assert ModelConfig(patch_h=16, patch_w=16, compression_factor=1,
                           max_seq_len=512).visual_tokens == 256
        assert ModelConfig(patch_h=16, patch_w=16,
                           compression_factor=4).visual_tokens == 16

    def test_with_compression(self):
        cfg = ModelConfig(patch_h=8, patch_w=8)
        assert with_compression(cfg, 4).visual_tokens == 4


class TestSerialize:
    def test_layout_visual_only(self, small_cfg, rng):
        s = serialize(_cand(rng, small_cfg), small_cfg)
        n_vis = small_cfg.visual_tokens
        assert s.ids[0] == vocab.BOI
        assert s.ids[-1] == vocab.EOS
        assert int((s.ids == vocab.VIS).sum()) == n_vis
        assert len(s.visuals) == 1

    def test_text_only_has_no_slots(self, small_cfg):
        s = serialize(_query(), small_cfg)
        assert int((s.ids == vocab.VIS).sum()) == 0
        assert s.visuals == []

    def test_deterministic(self, small_cfg, rng):
        e = _cand(rng, small_cfg)
        assert np.array_equal(serialize(e, small_cfg).ids, serialize(e, small_cfg).ids)

    def test_overflow_names_field(self, small_cfg):
        long_text = tuple(range(30, 30 + small_cfg.max_seq_len))
        with pytest.raises(LengthError, match="text"):
            serialize(_query(text=long_text), small_cfg)

    def test_wrong_grid_shape(self, small_cfg):
        bad = MultimodalExample(example_id="b", role="candidate",
                                visual=Grid2D(np.zeros((2, 2, 1))))
        with pytest.raises(ConfigError):
            serialize(bad, small_cfg)

    def test_empty_example_rejected(self):
        with pytest.raises(ValueError):
            MultimodalExample(example_id="e", role="query")


class TestEmbed:
    def test_unit_norm(self, small_model, rng):
        e = small_model.embed(_cand(rng, small_model.cfg))
        assert abs(np.linalg.norm(e.vector) - 1.0) <= 1e-9

    def test_determinism(self, small_model, rng):
        ex = _cand(rng, small_model.cfg)
        assert np.array_equal(small_model.embed(ex).vector,
                              small_model.embed(ex).vector)

    def test_batching_matches_single(self, small_model, rng):
        """Padding other sequences into the batch never changes an embedding."""
        exs = [_cand(rng, small_model.cfg, f"c{i}") for i in range(3)]
        exs.append(_query("q0", text=(30,) * 20))  # longer -> pads the others
        batch = small_model.embed_many(exs, batch_size=4)
        for e, ex in zip(batch, exs):
            solo = small_model.embed(ex)
            assert np.allclose(e.vector, solo.vector, atol=1e-10)

    def test_statelessness(self, small_model, rng):
        ex = _cand(rng, small_model.cfg, "keep")
        before = small_model.embed(ex).vector
        small_model.embed_many([_cand(rng, small_model.cfg, f"x{i}") for i in range(5)])
        assert np.array_equal(before, small_model.embed(ex).vector)

    def test_end_to_end_gradient(self, small_model, rng):
        """Loss-through-embed gradients vs finite differences, rel 1e-3."""
        m = small_model
        s = serialize(_cand(rng, m.cfg), m.cfg)
        w = rng.normal(0, 1, (1, m.cfg.embed_dim))

        def loss():
            from vtembed.autograd import mul, sum_
            return sum_(mul(m.embed_batch_t([s]), w))

        for name in ("patch_w", "conn_w", "tok_emb", "l0_wq"):
            for p in m.params.values():
                p.grad = None
            fd_check(loss, [m.params[name]], rel_tol=1e-3, n_coords=4)


class TestLogits:
    def test_causal_property(self, small_model):
        """Appending a token never changes logits at earlier positions."""
        short = SerializedInput(np.array([vocab.BOI, 30, 31], dtype=np.int64))
        longer = SerializedInput(np.array([vocab.BOI, 30, 31, 32], dtype=np.int64))
        a, _ = small_model.logits_sequence([short])
        b, _ = small_model.logits_sequence([longer])
        assert np.allclose(a.data[0, :3], b.data[0, :3], atol=1e-10)

    def test_finite(self, small_model):
        logits = small_model.next_token_logits(
            SerializedInput(np.array([vocab.BOI, 30], dtype=np.int64)))
        assert np.isfinite(logits).all()

    def test_empty_prefix(self, small_model):
        with pytest.raises(ParameterError):
            small_model.next_token_logits_t([SerializedInput(np.array([], dtype=np.int64))])

    def test_attention_rows_are_probabilities(self, small_model, rng):
        """Spot-check via softmax over the realized score matrix."""
        from vtembed.autograd import softmax, Tensor
        scores = rng.normal(0, 1, (4, 4)) + np.triu(np.full((4, 4), -1e9), k=1)
        p = softmax(Tensor(scores)).data
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert np.allclose(np.triu(p, k=1), 0.0)

    def test_memorization(self, small_cfg):
        """Overfitting one 3-token continuation makes argmax reproduce it."""
        from vtembed.objectives import ntp_loss
        from vtembed.trainer import AdamState, optimizer_step
        m = Model(small_cfg)
        prefix = [vocab.BOI, 30]
        response = [31, 32, 33]
        full = np.array(prefix + response, dtype=np.int64)
        opt = AdamState(peak_lr=3e-2, total_steps=500, warmup_frac=0.0)
        mask = np.array([[False] + [True] * 3])
        for _ in range(500):
            logits, _ = m.logits_sequence([SerializedInput(full[:-1])])
            loss = ntp_loss(logits, full[1:][None, :], mask)
            loss.backward()
            optimizer_step(m.params, opt)
        for i in range(len(prefix), len(full)):
            pred = m.next_token_logits(SerializedInput(full[:i]))
            assert int(np.argmax(pred)) == full[i]


class TestCheckpoint:
    def test_roundtrip_byte_identical(self, small_model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        small_model.save(p1)
        again = Model.load(p1)
        again.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        for k in small_model.params:
            assert np.array_equal(small_model.params[k].data, again.params[k].data)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ConfigError):
            Model.load(p)

    def test_truncated_or_padded_checkpoint_raises_config_error(self, small_model, tmp_path):
        good = tmp_path / "good.ckpt"
        small_model.save(good)
        data = good.read_bytes()
        n = len(data)
        cuts = sorted({0, 3, 8, 12, 40, 200, n // 2, n - 1} | set(range(6, n, n // 40)))
        bad = tmp_path / "bad.ckpt"
        for cut in cuts:
            bad.write_bytes(data[:cut])
            with pytest.raises(ConfigError, match="bad.ckpt"):
                Model.load(bad)
        bad.write_bytes(data + b"\x00")
        with pytest.raises(ConfigError, match="bad.ckpt.*trailing"):
            Model.load(bad)
        bad.write_bytes(data[:14] + b"[" + data[15:])  # the config JSON's opening brace
        with pytest.raises(ConfigError, match="bad.ckpt.*config"):
            Model.load(bad)

    def test_clone_is_independent(self, small_model):
        c = small_model.clone()
        c.params["tok_emb"].data += 1.0
        assert not np.array_equal(c.params["tok_emb"].data,
                                  small_model.params["tok_emb"].data)

    def test_seeded_init_reproducible(self, small_cfg):
        a, b = Model(small_cfg), Model(small_cfg)
        for k in a.params:
            assert np.array_equal(a.params[k].data, b.params[k].data)
