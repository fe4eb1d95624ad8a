"""Distillation losses: worked values, invariants, finite differences."""

import numpy as np
import pytest

from slimformer.distill import (
    DistillConfig,
    distill_injections,
    distill_step,
    mse_loss,
    prediction_loss,
)
from slimformer.errors import MappingError, RangeError, ShapeError
from slimformer.model import (
    Adam,
    EncoderModel,
    ForwardTrace,
    ModelConfig,
    init_model,
    softmax,
)

CFG = ModelConfig(vocab_size=11, embed_dim=8, num_layers=2, num_heads=2,
                  ffn_dim=12, max_seq_len=6, num_classes=3)


def rand_tokens(rng, batch=3):
    return rng.integers(0, CFG.vocab_size, size=(batch, CFG.max_seq_len))


class TestMse:
    def test_identical_is_zero(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert mse_loss(x, x) == 0.0

    def test_worked_value(self):
        assert mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 2.5

    def test_zero_vs_zero(self):
        assert mse_loss(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestPredictionLoss:
    def test_uniform_pair_gives_ln2(self):
        loss = prediction_loss(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_near_one_hot_self(self):
        logits = np.array([10.0, -10.0])
        assert prediction_loss(logits, logits) <= 1e-7

    def test_shift_invariance(self):
        teacher = np.array([0.0, 0.0])
        for c in (-5.0, 0.0, 3.0, 100.0):
            loss = prediction_loss(teacher, np.array([c, c]))
            assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_cross_entropy_at_least_entropy(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = rng.normal(size=5) * 3
            s = rng.normal(size=5) * 3
            entropy = prediction_loss(t, t)
            assert prediction_loss(t, s) >= entropy - 1e-12

    def test_equality_iff_same_softmax(self):
        t = np.array([1.0, -0.5, 2.0])
        entropy = prediction_loss(t, t)
        assert prediction_loss(t, t + 7.0) == pytest.approx(entropy, abs=1e-12)
        assert prediction_loss(t, t[::-1].copy()) > entropy + 1e-6

    def test_batch_is_mean_over_rows(self):
        t = np.array([[0.0, 0.0], [3.0, -1.0]])
        s = np.array([[1.0, 2.0], [0.0, 0.5]])
        rows = [prediction_loss(t[i], s[i]) for i in range(2)]
        assert prediction_loss(t, s) == pytest.approx(np.mean(rows), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ShapeError):
            prediction_loss(np.zeros(2), np.zeros(3))


def make_trace(rng, batch=2, layers=2, heads=2, n=4, d=6, classes=3):
    attn = tuple(softmax(rng.normal(size=(batch, heads, n, n)))
                 for _ in range(layers))
    return ForwardTrace(
        embedding_out=rng.normal(size=(batch, n, d)),
        attention=attn,
        hidden=tuple(rng.normal(size=(batch, n, d)) for _ in range(layers)),
        logits=rng.normal(size=(batch, classes)),
    )


class TestTotalLoss:
    def test_self_distillation_floor(self):
        trace = make_trace(np.random.default_rng(2))
        total, breakdown = distill_injections(trace, trace,
                                              DistillConfig())[:2]
        assert breakdown["embedding"] == 0.0
        assert breakdown["attention"] == 0.0
        assert breakdown["hidden"] == 0.0
        assert total == pytest.approx(breakdown["prediction"], abs=1e-15)
        assert total == pytest.approx(
            prediction_loss(trace.logits, trace.logits), abs=1e-12)

    def test_prediction_only_uniform(self):
        rng = np.random.default_rng(3)
        teacher = make_trace(rng)
        student = make_trace(rng)
        teacher = ForwardTrace(teacher.embedding_out, teacher.attention,
                               teacher.hidden, np.zeros((2, 3)))
        student = ForwardTrace(student.embedding_out, student.attention,
                               student.hidden, np.zeros((2, 3)))
        cfg = DistillConfig(embedding_weight=0, attention_weight=0,
                            hidden_weight=0, prediction_weight=1)
        total = distill_injections(teacher, student, cfg)[0]
        assert total == pytest.approx(np.log(3.0), abs=1e-12)

    def test_embedding_offset_by_one(self):
        rng = np.random.default_rng(4)
        teacher = make_trace(rng)
        student = ForwardTrace(teacher.embedding_out + 1.0, teacher.attention,
                               teacher.hidden, teacher.logits)
        total, breakdown = distill_injections(teacher, student,
                                              DistillConfig())[:2]
        assert breakdown["embedding"] == pytest.approx(1.0, abs=1e-12)
        assert total == pytest.approx(1.0 + breakdown["prediction"], abs=1e-12)

    def test_zero_weight_terms_skipped(self):
        rng = np.random.default_rng(5)
        teacher = make_trace(rng)
        student = make_trace(rng)  # wildly different everywhere
        cfg = DistillConfig(embedding_weight=0, attention_weight=0,
                            hidden_weight=0, prediction_weight=1)
        breakdown = distill_injections(teacher, student, cfg)[1]
        assert breakdown["embedding"] == 0.0
        assert breakdown["attention"] == 0.0
        assert breakdown["hidden"] == 0.0
        assert breakdown["prediction"] > 0.0

    def test_layer_mismatch_raises(self):
        rng = np.random.default_rng(6)
        teacher = make_trace(rng, layers=2)
        student = make_trace(rng, layers=1)
        with pytest.raises(MappingError):
            distill_injections(teacher, student, DistillConfig())

    @pytest.mark.parametrize("weight, field", [
        ("embedding_weight", "embedding_out"),
        ("attention_weight", "attention"),
        ("hidden_weight", "hidden"),
    ])
    def test_term_reading_a_missing_field_raises(self, weight, field):
        """A plain forward keeps only the logits: a positively weighted
        term that reads another field raises MappingError, on either
        side; prediction alone reads the logits only."""
        model = init_model(CFG, seed=8)
        tokens = rand_tokens(np.random.default_rng(8))
        plain = model.forward(tokens)
        full = model.forward(tokens, with_cache=True)[0]
        weights = dict.fromkeys(("embedding_weight", "attention_weight",
                                 "hidden_weight", "prediction_weight"), 0.0)
        weights[weight] = 1.0
        cfg = DistillConfig(**weights)
        for teacher, student in ((plain, full), (full, plain)):
            with pytest.raises(MappingError, match=field):
                distill_injections(teacher, student, cfg)
        predict = DistillConfig(embedding_weight=0.0, attention_weight=0.0,
                                hidden_weight=0.0, prediction_weight=1.0)
        assert (distill_injections(plain, full, predict)[:2]
                == distill_injections(full, full, predict)[:2])

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(7)
        teacher = make_trace(rng, batch=4)
        student = make_trace(rng, batch=4)
        perm = np.array([2, 0, 3, 1])

        def permute(tr):
            return ForwardTrace(tr.embedding_out[perm],
                                tuple(a[perm] for a in tr.attention),
                                tuple(h[perm] for h in tr.hidden),
                                tr.logits[perm])

        a, bd_a = distill_injections(teacher, student, DistillConfig())[:2]
        b, bd_b = distill_injections(permute(teacher), permute(student),
                                     DistillConfig())[:2]
        assert a == pytest.approx(b, abs=1e-12)
        assert bd_a == pytest.approx(bd_b, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(RangeError):
            DistillConfig(embedding_weight=-1)
        with pytest.raises(RangeError):
            DistillConfig(embedding_weight=0, attention_weight=0,
                          hidden_weight=0, prediction_weight=0)


class TestDistillGradients:
    def fd_through_total(self, cfg, seed):
        teacher = init_model(CFG, seed=seed)
        student = init_model(CFG, seed=seed + 1)
        rng = np.random.default_rng(seed + 2)
        tokens = rand_tokens(rng)
        teacher_trace = teacher.forward(tokens, with_cache=True)[0]

        def loss_of():
            return distill_injections(
                teacher_trace, student.forward(tokens, with_cache=True)[0],
                cfg)[0]

        strace, cache = student.forward(tokens, with_cache=True)
        _, _, inj = distill_injections(teacher_trace, strace, cfg)
        grads = student.backward(cache, inj)
        h = 1e-5
        worst = 0.0
        for key in ("tok_embed", "pos_embed", "enc0.attn.wq", "enc0.attn.wv",
                    "enc1.attn.wo", "enc0.ln1.gamma", "enc1.ffn.w1",
                    "enc1.ffn.w2", "enc0.ffn.b1", "cls.w", "cls.b"):
            arr = student.params[key]
            for _ in range(3):
                idx = tuple(rng.integers(0, s) for s in arr.shape)
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss_of()
                arr[idx] = orig - h
                down = loss_of()
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                an = grads[key][idx]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
        return worst

    def test_fd_all_terms_default(self):
        assert self.fd_through_total(DistillConfig(), 30) < 1e-4

    def test_fd_single_terms(self):
        for kw in ("embedding_weight", "attention_weight",
                   "hidden_weight", "prediction_weight"):
            weights = {k: 0.0 for k in ("embedding_weight", "attention_weight",
                                        "hidden_weight", "prediction_weight")}
            weights[kw] = 1.0
            assert self.fd_through_total(DistillConfig(**weights), 33) < 1e-4


class TestDistillStep:
    def test_zero_lr_unchanged(self):
        teacher = init_model(CFG, seed=40)
        student = init_model(CFG, seed=41)
        before = {k: v.copy() for k, v in student.params.items()}
        tokens = rand_tokens(np.random.default_rng(0))
        distill_step(student, teacher, tokens, DistillConfig(), Adam(lr=0.0))
        for key in before:
            assert np.array_equal(student.params[key], before[key])

    def test_self_distillation_no_drift(self):
        teacher = init_model(CFG, seed=42)
        student = teacher.copy()
        tokens = rand_tokens(np.random.default_rng(1))
        _, terms = distill_step(student, teacher, tokens, DistillConfig(),
                                Adam(lr=1e-3))
        assert terms["embedding"] == 0.0
        trace_t = teacher.forward(tokens, with_cache=True)[0]
        trace_s = student.forward(tokens, with_cache=True)[0]
        breakdown = distill_injections(trace_t, trace_s, DistillConfig())[1]
        assert breakdown["embedding"] <= 1e-10
        assert breakdown["attention"] <= 1e-10
        assert breakdown["hidden"] <= 1e-10

    def test_masked_entries_stay_zero(self):
        teacher = init_model(CFG, seed=43)
        base = init_model(CFG, seed=44)
        rng = np.random.default_rng(2)
        mask = (rng.random(base.params["enc0.ffn.w1"].shape) > 0.5).astype(float)
        student = EncoderModel(CFG, base.params, {"enc0.ffn.w1": mask})
        opt = Adam(lr=1e-3)
        tokens = rand_tokens(rng)
        for _ in range(3):
            distill_step(student, teacher, tokens, DistillConfig(), opt)
        w = student.params["enc0.ffn.w1"]
        assert np.all(w[mask == 0] == 0.0)
        assert np.any(w[mask == 1] != 0.0)

    def test_loss_decreases_over_steps(self):
        teacher = init_model(CFG, seed=45)
        student = init_model(CFG, seed=46)
        opt = Adam(lr=1e-2)
        tokens = rand_tokens(np.random.default_rng(3))
        losses = [distill_step(student, teacher, tokens, DistillConfig(), opt)[0]
                  for _ in range(40)]
        assert losses[-1] < losses[0]
