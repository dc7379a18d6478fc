import base64
import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scorelm.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from scorelm.data import EOS_SYMBOL, PAD_SYMBOL
from scorelm.errors import CheckpointFormatError, CheckpointShapeError, CheckpointVersionError
from scorelm.model import ModelConfig, Parameters, forward, init_params, param_shapes
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


def symbol_tables(V):
    """None, or a symbol table of V distinct strings after the reserved pair."""
    table = st.lists(st.text(min_size=1, max_size=3), min_size=V - 2, max_size=V - 2, unique=True)
    return st.none() | table.filter(lambda t: not {PAD_SYMBOL, EOS_SYMBOL} & set(t)).map(
        lambda t: [PAD_SYMBOL, EOS_SYMBOL] + t)


@st.composite
def checkpoints(draw):
    """A checkpoint of arbitrary shape whose tensors hold any finite doubles
    (subnormals, -0.0 and the extremes included), under any rule, with or
    without a symbol table."""
    V, K, d, h = draw(st.integers(2, 7)), draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cfg = ModelConfig(vocab_size=V, context=K, embed_dim=d, hidden_dim=h, seed=draw(st.integers(0, 2**63 - 1)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    params = Parameters(**{name: draw(arrays(np.float64, shape, elements=finite)) for name, shape in param_shapes(cfg)})
    kind = draw(st.sampled_from(sorted(RULES)))
    pinned = RULES[kind].alpha
    alpha = pinned if pinned is not None else draw(st.floats(1.0, 1e6, exclude_min=True))
    eps = draw(st.floats(0.0, 1.0))
    smoothing = SmoothingConfig(eps, draw(st.booleans()) if eps > 0 else False)
    return Checkpoint(model=cfg, rule=ScoreRule(kind, alpha), smoothing=smoothing,
                      step=draw(st.integers(0, 2**40)), params=params, symbols=draw(symbol_tables(V)))


def same_checkpoint(a, b):
    assert a.params.flat.dtype == b.params.flat.dtype
    for (name, x), (_, y) in zip(a.params.named(), b.params.named()):
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert (a.model, a.rule, a.smoothing, a.step, a.symbols) == (b.model, b.rule, b.smoothing, b.step, b.symbols)


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ckpt=checkpoints())
    def test_bitwise_and_byte_stable(self, ckpt):
        # load(save(x)) keeps every parameter bit and the symbol table; saving the loaded copy gives the same bytes
        with tempfile.TemporaryDirectory() as tmp:
            first, again = os.path.join(tmp, "first.json"), os.path.join(tmp, "again.json")
            save_checkpoint(first, ckpt)
            loaded = load_checkpoint(first)
            save_checkpoint(again, loaded)
            with open(first, "rb") as fa, open(again, "rb") as fb:
                assert fa.read() == fb.read()
        same_checkpoint(loaded, ckpt)


class TestFormat:
    def test_v2_document(self, ckpt):
        doc = ckpt.to_document()
        assert list(doc) == ["v", "model", "rule", "smoothing", "step", "symbols", "params"]
        assert doc["v"] == 2 and doc["symbols"] is None
        raw = base64.b64decode(doc["params"])
        assert raw == ckpt.params.flat.astype("<f8").tobytes()

    def test_symbols_round_trip(self, ckpt, tmp_path):
        ckpt.symbols = [PAD_SYMBOL, EOS_SYMBOL, "a", "b", "é", "\n"]
        save_checkpoint(tmp_path / "ckpt.json", ckpt)
        assert load_checkpoint(tmp_path / "ckpt.json").symbols == ckpt.symbols


    @pytest.mark.parametrize("symbols, message", [
        (["<pad>", "<eos>", "a"], "symbol table has 3 entries, vocab_size is 6"),
        ("<pad><eos>abcd", "must be a list of strings or null"),
    ])
    def test_constructor_checks_the_table(self, ckpt, symbols, message):
        with pytest.raises(CheckpointFormatError, match=message):
            dataclasses.replace(ckpt, symbols=symbols)

    def test_tuple_table_stored_as_list(self, ckpt):
        table = (PAD_SYMBOL, EOS_SYMBOL, "a", "b", "c", "d")
        assert dataclasses.replace(ckpt, symbols=table).symbols == list(table)

    @pytest.mark.parametrize("model, built, message", [
        ((6, 1, 4, 8), (6, 2, 4, 8), r"'w_hidden' has shape \(8, 8\), config implies \(4, 8\)"),
        ((6, 2, 4, 8), (6, 2, 2, 12), r"'embed' has shape \(6, 2\), config implies \(6, 4\)"),
    ], ids=["other-size", "same-size"])
    def test_constructor_checks_the_tensor_shapes(self, ckpt, tmp_path, model, built, message):
        # refused when built, so never saved: a same-size payload would load silently reshaped
        params = init_params(ModelConfig(*built))
        with pytest.raises(CheckpointShapeError, match=message):
            dataclasses.replace(ckpt, model=ModelConfig(*model), params=params)

    @pytest.mark.parametrize("field, value, error, message", [
        ("params", init_params(ModelConfig(6, 1, 4, 8)), CheckpointShapeError,
         r"'w_hidden' has shape \(4, 8\), config implies \(8, 8\)"),
        ("symbols", ["x"], CheckpointFormatError, "symbol table has 1 entries, vocab_size is 6"),
    ], ids=["params", "symbols"])
    def test_save_checks_reassigned_fields(self, ckpt, tmp_path, field, value, error, message):
        # a field assigned after construction is checked again before the file is opened
        setattr(ckpt, field, value)
        with pytest.raises(error, match=message):
            save_checkpoint(tmp_path / "ckpt.json", ckpt)
        assert not (tmp_path / "ckpt.json").exists()


def write_doc(tmp_path, doc):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc))
    return path


def with_payload(ckpt, raw: bytes):
    doc = ckpt.to_document()
    doc["params"] = base64.b64encode(raw).decode("ascii")
    return doc


class TestValidation:
    def test_truncated_file(self, ckpt, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ckpt)
        path.write_text(path.read_text()[: 100])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("body, fault", [
        (b'{"v": 2,\n "model": "\xff"}', "line 2 is not UTF-8 (byte 0xff at byte offset 20)"),
        (b'{"v": 2,\n  "model": }', "line 2 column 12: malformed JSON (Expecting value)"),
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deep to read"),
    ], ids=["not-utf8", "malformed", "too-deep"])
    def test_unreadable_document_is_a_format_error_by_path(self, tmp_path, body, fault):
        path = tmp_path / "ckpt.json"
        path.write_bytes(body)
        with pytest.raises(CheckpointFormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: {fault}"

    @pytest.mark.parametrize("version", [0, 3, "2"])
    def test_unsupported_version(self, ckpt, tmp_path, version):
        doc = ckpt.to_document()
        doc["v"] = version
        with pytest.raises(CheckpointVersionError, match="supported versions: 2$"):
            load_checkpoint(write_doc(tmp_path, doc))

    def test_v1_document_refused(self, ckpt, tmp_path):
        # format v1: each tensor as nested decimal arrays, no symbol table; no longer read
        doc = ckpt.to_document()
        doc["v"] = 1
        del doc["symbols"]
        doc["params"] = {name: t.tolist() for name, t in ckpt.params.named()}
        with pytest.raises(CheckpointVersionError, match=r"version 1 \(version 1 is retired: load_checkpoint \+ "
                                                         r"save_checkpoint in an earlier scorelm"):
            load_checkpoint(write_doc(tmp_path, doc))

    def test_shape_mismatch(self, ckpt, tmp_path):
        doc = ckpt.to_document()
        doc["model"]["hidden_dim"] = 9  # the payload holds h=8 tensors
        with pytest.raises(CheckpointFormatError, match=f"holds {ckpt.params.flat.size * 8} bytes, the config needs"):
            load_checkpoint(write_doc(tmp_path, doc))

    def test_missing_tensor(self, ckpt, tmp_path):
        raw = ckpt.params.flat[ckpt.params.embed.size:].tobytes()  # every tensor but embed
        with pytest.raises(CheckpointFormatError, match=f"holds {len(raw)} bytes"):
            load_checkpoint(write_doc(tmp_path, with_payload(ckpt, raw)))

    def test_missing_params_field(self, ckpt, tmp_path):
        doc = ckpt.to_document()
        del doc["params"]
        with pytest.raises(CheckpointFormatError, match="params"):
            load_checkpoint(write_doc(tmp_path, doc))

    def test_missing_symbols_field(self, ckpt, tmp_path):
        doc = ckpt.to_document()
        del doc["symbols"]
        with pytest.raises(CheckpointFormatError, match="symbols"):
            load_checkpoint(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("data", ["not base64!", "QUJD=", 7, None, [0.0]])
    def test_bad_base64(self, ckpt, tmp_path, data):
        doc = ckpt.to_document()
        doc["params"] = data
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(write_doc(tmp_path, doc))

    def test_bad_base64_is_named(self, ckpt, tmp_path):
        doc = ckpt.to_document()
        doc["params"] = doc["params"][:-4] + "*" * 4
        with pytest.raises(CheckpointFormatError, match="not valid base64"):
            load_checkpoint(write_doc(tmp_path, doc))

    def test_payload_that_is_not_ascii(self, ckpt, tmp_path):
        # b64decode refuses such a str with a plain ValueError, not a binascii.Error
        doc = ckpt.to_document()
        doc["params"] = "\u00e9" + doc["params"][1:]
        with pytest.raises(CheckpointFormatError, match="^parameter payload is not valid base64: "
                                                        "string argument should contain only ASCII characters$"):
            load_checkpoint(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("cut", [-8, -1, 8])
    def test_wrong_payload_length(self, ckpt, tmp_path, cut):
        raw = ckpt.params.flat.tobytes()
        raw = raw[:cut] if cut < 0 else raw + bytes(cut)
        with pytest.raises(CheckpointFormatError, match=f"holds {len(raw)} bytes, the config needs {ckpt.params.flat.size * 8}"):
            load_checkpoint(write_doc(tmp_path, with_payload(ckpt, raw)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, ckpt, tmp_path, bad):
        flat = ckpt.params.flat.copy()
        flat[-1] = bad  # the last entry of b_out
        with pytest.raises(CheckpointFormatError, match="'b_out' contains non-finite values"):
            load_checkpoint(write_doc(tmp_path, with_payload(ckpt, flat.astype("<f8").tobytes())))

    @pytest.mark.parametrize("symbols, message", [
        ([PAD_SYMBOL, EOS_SYMBOL, "a", "b", "c"], "symbol table has 5 entries, vocab_size is 6"),
        ([PAD_SYMBOL, EOS_SYMBOL, "a", "b", "c", "d", "e"], "symbol table has 7 entries, vocab_size is 6"),
        ([PAD_SYMBOL, EOS_SYMBOL, "a", "b", "a", "c"], "symbol table lists 'a' more than once"),
        ([PAD_SYMBOL, EOS_SYMBOL, "a", "b", "c", EOS_SYMBOL], "lists '<eos>' more than once"),
        (["a", "b", PAD_SYMBOL, EOS_SYMBOL, "c", "d"], "must start with '<pad>', '<eos>'"),
        ([PAD_SYMBOL, EOS_SYMBOL, "a", "b", "c", 4], "must be a list of strings or null"),
        ("<pad><eos>abcd", "must be a list of strings or null"),
    ])
    def test_bad_symbol_table(self, ckpt, tmp_path, symbols, message):
        doc = ckpt.to_document()
        doc["symbols"] = symbols
        with pytest.raises(CheckpointFormatError, match=message):
            load_checkpoint(write_doc(tmp_path, doc))



class TestHeaderTypes:
    """Each header key is read by its JSON type and never converted; a probe
    fails naming its key, and a valid checkpoint loads bit for bit."""

    def probe(self, ckpt, tmp_path, edit, message):
        doc = ckpt.to_document()
        edit(doc)
        with pytest.raises(CheckpointFormatError, match=message):
            load_checkpoint(write_doc(tmp_path, doc))

    def test_float_model_dimension(self, ckpt, tmp_path):
        self.probe(ckpt, tmp_path, lambda doc: doc["model"].update(hidden_dim=8.0),
                   "checkpoint model key 'hidden_dim' must be an integer, got 8.0")

    @pytest.mark.parametrize("step", [1.7, 123.0, "12", True, None])
    def test_step_not_an_integer(self, ckpt, tmp_path, step):
        self.probe(ckpt, tmp_path, lambda doc: doc.update(step=step), "checkpoint key 'step' must be an integer")

    def test_negative_step(self, ckpt, tmp_path):
        self.probe(ckpt, tmp_path, lambda doc: doc.update(step=-5), "checkpoint key 'step' must be >= 0, got -5")

    @pytest.mark.parametrize("flag", ["no", 0, 1, None])
    def test_mask_enhanced_not_a_boolean(self, ckpt, tmp_path, flag):
        self.probe(ckpt, tmp_path, lambda doc: doc["smoothing"].update(mask_enhanced=flag),
                   "checkpoint smoothing key 'mask_enhanced' must be a boolean")

    @pytest.mark.parametrize("v", [True, False, 2.0, 1.0])
    def test_version_not_an_integer(self, ckpt, tmp_path, v):
        self.probe(ckpt, tmp_path, lambda doc: doc.update(v=v), f"checkpoint key 'v' must be an integer, got {v!r}")

    @pytest.mark.parametrize("section, key, value, message", [
        ("model", "seed", "x", "checkpoint model key 'seed' must be an integer"),
        ("model", "context", True, "checkpoint model key 'context' must be an integer"),
        ("rule", "kind", 3, "checkpoint rule key 'kind' must be a string"),
        ("rule", "alpha", "2", "checkpoint rule key 'alpha' must be a number"),
        ("smoothing", "eps", float("nan"), "checkpoint smoothing key 'eps' must be finite"),
        ("model", "width", 3, "unknown checkpoint model key"),
        (None, "extra", 1, "unknown checkpoint key"),
        (None, "model", [], "checkpoint model must be a JSON object"),
    ])
    def test_other_keys_by_type(self, ckpt, tmp_path, section, key, value, message):
        self.probe(ckpt, tmp_path, lambda doc: (doc if section is None else doc[section]).update({key: value}),
                   message)

    @pytest.mark.parametrize("section, key", [(None, "step"), (None, "rule"), ("model", "context"),
                                              ("rule", "kind")])
    def test_missing_key_named(self, ckpt, tmp_path, section, key):
        self.probe(ckpt, tmp_path, lambda doc: (doc if section is None else doc[section]).pop(key),
                   f"missing checkpoint {'' if section is None else section + ' '}key {key!r}")

    @pytest.mark.parametrize("section, key", [(section, f.name) for section, cls in (
        ("model", ModelConfig), ("rule", ScoreRule), ("smoothing", SmoothingConfig)) for f in dataclasses.fields(cls)])
    def test_every_config_field_required(self, ckpt, tmp_path, section, key):
        # save_checkpoint writes every field, so a header without one is refused, defaulted fields included
        self.probe(ckpt, tmp_path, lambda doc: doc[section].pop(key), f"missing checkpoint {section} key {key!r}")

    def test_range_errors_are_format_errors(self, ckpt, tmp_path):
        self.probe(ckpt, tmp_path, lambda doc: doc["model"].update(context=0), "context must be >= 1")
        self.probe(ckpt, tmp_path, lambda doc: doc["rule"].update(kind="log"), "unknown scoring rule 'log'")

    def test_valid_header_loads_bit_for_bit(self, ckpt, tmp_path):
        ckpt.smoothing = SmoothingConfig(0.1, mask_enhanced=True)
        path = tmp_path / "ok.json"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert (loaded.model, loaded.rule, loaded.smoothing, loaded.step) == (
            ckpt.model, ckpt.rule, ckpt.smoothing, ckpt.step)
        assert loaded.params.flat.tobytes() == ckpt.params.flat.tobytes()
        save_checkpoint(tmp_path / "again.json", loaded)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
