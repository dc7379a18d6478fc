import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scorelm.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from scorelm.errors import CheckpointFormatError, CheckpointShapeError, CheckpointVersionError
from scorelm.model import ModelConfig, Parameters, forward, init_params
from scorelm.scores import NO_SMOOTHING, RULES, ScoreRule, SmoothingConfig


@pytest.fixture
def ckpt():
    cfg = ModelConfig(vocab_size=6, context=2, embed_dim=4, hidden_dim=8, seed=77)
    return Checkpoint(model=cfg, rule=ScoreRule("brier"), smoothing=NO_SMOOTHING,
                      step=123, params=init_params(cfg))


class TestRoundTrip:
    def test_exact_values(self, ckpt, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        for (n, a), (_, b) in zip(ckpt.params.named(), loaded.params.named()):
            assert np.array_equal(a, b), n  # repr round-trip is exact
        assert loaded.model == ckpt.model
        assert loaded.rule == ckpt.rule
        assert loaded.step == 123

    def test_forward_identical(self, ckpt, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        ctx = np.array([2, 5])
        assert np.abs(forward(ckpt.params, ctx) - forward(loaded.params, ctx)).max() < 1e-12


@st.composite
def checkpoints(draw):
    """A checkpoint of arbitrary shape whose tensors hold any finite doubles
    (subnormals, -0.0 and the extremes included), under any rule."""
    V, K, d, h = draw(st.integers(2, 7)), draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cfg = ModelConfig(vocab_size=V, context=K, embed_dim=d, hidden_dim=h, seed=draw(st.integers(0, 2**63 - 1)))
    shapes = {"embed": (V, d), "w_hidden": (K * d, h), "b_hidden": (h,), "w_out": (h, V), "b_out": (V,)}
    finite = st.floats(allow_nan=False, allow_infinity=False)
    params = Parameters(**{name: draw(arrays(np.float64, shape, elements=finite)) for name, shape in shapes.items()})
    kind = draw(st.sampled_from(sorted(RULES)))
    pinned = RULES[kind].alpha
    alpha = pinned if pinned is not None else draw(st.floats(1.0, 1e6, exclude_min=True))
    eps = draw(st.floats(0.0, 1.0))
    smoothing = SmoothingConfig(eps, draw(st.booleans()) if eps > 0 else False)
    return Checkpoint(model=cfg, rule=ScoreRule(kind, alpha), smoothing=smoothing,
                      step=draw(st.integers(0, 2**40)), params=params)


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ckpt=checkpoints())
    def test_bitwise_and_byte_stable(self, ckpt):
        # load(save(x)) keeps every parameter bit; saving the loaded copy gives the same bytes
        with tempfile.TemporaryDirectory() as tmp:
            first, again = os.path.join(tmp, "first.json"), os.path.join(tmp, "again.json")
            save_checkpoint(first, ckpt)
            loaded = load_checkpoint(first)
            save_checkpoint(again, loaded)
            with open(first, "rb") as fa, open(again, "rb") as fb:
                assert fa.read() == fb.read()
        for (name, a), (_, b) in zip(ckpt.params.named(), loaded.params.named()):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert (loaded.model, loaded.rule, loaded.smoothing, loaded.step) == \
            (ckpt.model, ckpt.rule, ckpt.smoothing, ckpt.step)


class TestValidation:
    def test_truncated_file(self, ckpt, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ckpt)
        path.write_text(path.read_text()[: 100])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_unsupported_version(self, ckpt, tmp_path):
        path = tmp_path / "ckpt.json"
        doc = ckpt.to_document()
        doc["v"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointVersionError, match="supported versions: 1"):
            load_checkpoint(path)

    def test_shape_mismatch(self, ckpt, tmp_path):
        path = tmp_path / "ckpt.json"
        doc = ckpt.to_document()
        doc["params"]["w_out"] = [[0.0] * 6] * 9  # h=8 expected
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointShapeError, match="w_out"):
            load_checkpoint(path)

    def test_missing_tensor(self, ckpt, tmp_path):
        path = tmp_path / "ckpt.json"
        doc = ckpt.to_document()
        del doc["params"]["embed"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_non_finite_rejected(self, ckpt, tmp_path):
        path = tmp_path / "ckpt.json"
        doc = ckpt.to_document()
        doc["params"]["b_out"][0] = None  # json null -> nan
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)
