"""Token ids and loss masks are read by one reader, documents.read_ids and
read_mask: every public entry point takes ids of any integer dtype, refuses
boolean and float ones by dtype, refuses an id outside the vocabulary, and
refuses any shape but the one it passes the reader."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorelm
from scorelm.checkpoint import Checkpoint
from scorelm.data import build_vocab, decode, make_batches
from scorelm.decode import BeamConfig, beam_search, exhaustive_search, greedy
from scorelm.errors import InvalidInputError
from scorelm.model import ModelConfig, PackedSeqs, TokenSeq, forward, init_params, loss_and_grads
from scorelm.scores import NO_SMOOTHING, ScoreRule, token_losses_and_grads
from scorelm.train import TrainConfig, evaluate_scores, finetune, split_data, train

V = 6  # two reserved ids and the four symbols of VOCAB
MODEL_CFG = ModelConfig(vocab_size=V, context=2, embed_dim=3, hidden_dim=4, seed=7)
PARAMS = init_params(MODEL_CFG)
VOCAB = build_vocab("abcd")
LOG = ScoreRule("logarithmic")
CORPUS = np.random.default_rng(3).integers(2, V, size=60)
CONTEXTS, TARGETS = np.array([[2, 3], [3, 4], [2, 3]]), np.array([4, 5, 4])
STEP = TrainConfig(rule=LOG, steps=1, batch_size=8, warmup_steps=0)

# entry point -> (the integer ids it is given, a call on ids in their place, whether it knows the vocabulary,
# {shape case: (wrong-shaped ids, the refusal)}): a wrong rank everywhere, and rows that disagree where two
# arrays go in together
WIDE = CORPUS.reshape(2, 30)
ENTRY_POINTS = {
    "TokenSeq.tokens": ([2, 3, 4], lambda ids: TokenSeq(ids, [True] * 3), False,
                        {"wrong rank": ([[2, 3, 4]], "tokens must have shape (N,), got (1, 3)"),
                         "rows disagree": ([2, 3], "loss_mask must have shape (2,), got (3,)")}),
    "PackedSeqs.tokens": ([2, 3, 4], lambda ids: PackedSeqs(ids, [True] * 3, [0, 3]), False,
                          {"wrong rank": ([[2, 3, 4]], "tokens must have shape (N,), got (1, 3)"),
                           "rows disagree": ([2, 3, 4, 5], "loss_mask must have shape (4,), got (3,)")}),
    "PackedSeqs.offsets": ([0, 1, 3], lambda ids: PackedSeqs([2, 3, 4], [True] * 3, ids), False,
                           {"wrong rank": ([[0, 1, 3]], "offsets must have shape (N,), got (1, 3)")}),
    "forward": ([2, 3], lambda ids: forward(PARAMS, ids), True,
                {"wrong rank": ([[2, 3]], "context must have shape (2,), got (1, 2)")}),
    "loss_and_grads.contexts": (CONTEXTS, lambda ids: loss_and_grads(PARAMS, ids, TARGETS, LOG, NO_SMOOTHING), True,
                                {"wrong rank": (CONTEXTS[0], "contexts must have shape (N, 2), got (2,)"),
                                 "rows disagree": (CONTEXTS[:2], "targets must have shape (2,), got (3,)")}),
    "loss_and_grads.targets": (TARGETS, lambda ids: loss_and_grads(PARAMS, CONTEXTS, ids, LOG, NO_SMOOTHING), True,
                               {"wrong rank": (TARGETS[:, None], "targets must have shape (3,), got (3, 1)"),
                                "rows disagree": (TARGETS[:2], "targets must have shape (3,), got (2,)")}),
    "evaluate_scores.contexts": (CONTEXTS, lambda ids: evaluate_scores(PARAMS, ids, TARGETS), True,
                                 {"wrong rank": (CONTEXTS[0], "contexts must have shape (N, 2), got (2,)"),
                                  "rows disagree": (CONTEXTS[:2], "targets must have shape (2,), got (3,)")}),
    "evaluate_scores.targets": (TARGETS, lambda ids: evaluate_scores(PARAMS, CONTEXTS, ids), True,
                                {"wrong rank": (TARGETS[:, None], "targets must have shape (3,), got (3, 1)"),
                                 "rows disagree": (TARGETS[:2], "targets must have shape (3,), got (2,)")}),
    "split_data": (CORPUS, lambda ids: split_data(ids, 2, V), True,
                   {"wrong rank": (WIDE, "corpus tokens must have shape (N,), got (2, 30)")}),
    "train": (CORPUS, lambda ids: train(STEP, MODEL_CFG, ids), True,
              {"wrong rank": (WIDE, "corpus tokens must have shape (N,), got (2, 30)")}),
    "finetune": (CORPUS, lambda ids: finetune(Checkpoint(MODEL_CFG, LOG, NO_SMOOTHING, 0, PARAMS), STEP, ids), True,
                 {"wrong rank": (WIDE, "corpus tokens must have shape (N,), got (2, 30)")}),
    "make_batches": (CORPUS, lambda ids: next(make_batches(ids, 2, 8, 0)), False,
                     {"wrong rank": (WIDE, "tokens must have shape (N,), got (2, 30)")}),
    "beam_search": ([2, 3], lambda ids: beam_search(PARAMS, ids, BeamConfig(beam_size=2, max_len=3)), True,
                    {"wrong rank": ([[2, 3]], "prompt must have shape (N,), got (1, 2)")}),
    "greedy": ([2, 3], lambda ids: greedy(PARAMS, ids, 3), True,
               {"wrong rank": ([[2, 3]], "prompt must have shape (N,), got (1, 2)")}),
    "exhaustive_search": ([2, 3], lambda ids: exhaustive_search(PARAMS, ids, BeamConfig(max_len=2)), True,
                          {"wrong rank": ([[2, 3]], "prompt must have shape (N,), got (1, 2)")}),
    "token_losses_and_grads": ([2, 3, 4], lambda ids: token_losses_and_grads(LOG, NO_SMOOTHING, np.zeros((3, V)), ids),
                               True,
                               {"wrong rank": ([[2, 3, 4]], "observed outcomes must have shape (3,), got (1, 3)"),
                                "rows disagree": ([2], "observed outcomes must have shape (3,), got (1,)")}),
    "data.decode": ([2, 3], lambda ids: decode(VOCAB, ids), True,
                    {"wrong rank": ([[2, 3]], "tokens must have shape (N,), got (1, 2)")}),
}
CASES = [(name, case) for name, (_, _, knows_vocab, shapes) in ENTRY_POINTS.items()
         for case in [*("float", "bool", "out of range")[: 3 if knows_vocab else 2], *shapes]]


@pytest.mark.parametrize("name, case", CASES)
def test_every_entry_point_refuses_float_bool_and_out_of_range_ids(name, case):
    # and wrong-shaped ids, each refused by the argument's name with both shapes
    ids, call, _, shapes = ENTRY_POINTS[name]
    ids = np.array(ids)
    if case == "float":  # 2.25 would be read as 2
        bad, error, message = ids + 0.25, InvalidInputError, "must be integers, got dtype float64"
    elif case == "bool":  # True would be read as id 1
        bad, error, message = ids > 0, InvalidInputError, "must be integers, got dtype bool"
    elif case in shapes:
        bad, error, message = np.array(shapes[case][0]), InvalidInputError, re.escape(shapes[case][1])
    else:
        bad, error, message = ids.copy(), InvalidInputError, f"token id {V} out of range for vocab size {V}"
        bad.flat[0] = V
        if name == "token_losses_and_grads":  # its outcomes index the rows of Z, not a vocabulary
            error, message = IndexError, "out of range for m=6"
    call(ids)  # the integer ids are taken
    with pytest.raises(error, match=message):
        call(bad)


@pytest.mark.parametrize("make", [lambda mask: TokenSeq([2, 3], loss_mask=mask),
                                  lambda mask: PackedSeqs([2, 3], mask, [0, 2])], ids=["TokenSeq", "PackedSeqs"])
@pytest.mark.parametrize("mask, dtype", [([0.5, 0.0], "float64"), ([1, 0], "int64")])
def test_loss_masks_are_boolean_only(make, mask, dtype):
    assert make([True, False]).loss_mask.tolist() == [True, False]
    with pytest.raises(InvalidInputError, match=f"loss_mask must be booleans, got dtype {dtype}"):
        make(mask)


@pytest.mark.parametrize("name", ["TokenSeq.tokens", "forward", "make_batches"])
def test_a_uint64_id_past_int64_is_refused_not_wrapped(name):
    ids, call, _, _ = ENTRY_POINTS[name]
    call(np.array(ids, dtype=np.uint64))
    bad = np.array(ids, dtype=np.uint64)
    bad[0] = 2**63 + 2  # as int64, -2**63 + 2
    with pytest.raises(InvalidInputError, match=f"must fit int64, got {2**63 + 2}"):
        call(bad)


def test_empty_ids_of_any_dtype_are_no_ids():
    for empty in ([], np.zeros(0), np.zeros(0, dtype=bool)):
        assert TokenSeq(empty).tokens.dtype == np.int64
        assert beam_search(PARAMS, empty, BeamConfig(beam_size=2, max_len=3)) == \
            beam_search(PARAMS, np.zeros(0, dtype=np.int64), BeamConfig(beam_size=2, max_len=3))
    assert decode(VOCAB, np.zeros(0)) == ""
    # an empty array still has its rank: no contexts are (0, K)
    with pytest.warns(UserWarning, match="all-masked batch"):
        assert loss_and_grads(PARAMS, np.zeros((0, 2)), np.zeros(0), LOG, NO_SMOOTHING)[0] == 0.0
    with pytest.raises(InvalidInputError, match=re.escape("contexts must have shape (N, 2), got (0,)")):
        loss_and_grads(PARAMS, np.zeros(0), np.zeros(0), LOG, NO_SMOOTHING)


def test_evaluate_scores_refuses_an_empty_held_out_part():
    with pytest.raises(InvalidInputError, match="the held-out part has no position to score"):
        evaluate_scores(PARAMS, np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64))


def test_the_package_exports_the_documented_api():
    from scorelm import evaluate_scores as exported, param_shapes

    assert exported is evaluate_scores
    assert param_shapes(MODEL_CFG)[0] == ("embed", (V, 3))
    assert {"evaluate_scores", "param_shapes"} <= set(dir(scorelm))


def root_imports():
    """(module, name, bound name) of every `from .module import name` in the package root."""
    tree = ast.parse(Path(scorelm.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name, alias.asname or alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def test_every_root_name_is_the_object_its_import_names():
    # a submodule loaded after a name is bound would rebind it: scorelm.decode is data.decode, not the module
    imports = root_imports()
    assert ("data", "decode", "decode") in imports
    for module, name, bound in imports:
        assert getattr(scorelm, bound) is getattr(importlib.import_module(f"scorelm.{module}"), name), bound
    assert scorelm.decode(VOCAB, [2, 3]) == "ab"
    assert importlib.import_module("scorelm.decode").beam_search is beam_search


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dtype=st.sampled_from(["int8", "int16", "int32", "uint8", "uint16", "uint32"]),
       corpus=st.lists(st.integers(2, V - 1), min_size=30, max_size=60),
       prompt=st.lists(st.integers(0, V - 1), max_size=4))
def test_every_integer_dtype_reads_as_int64(dtype, corpus, prompt):
    wide, narrow = np.array(corpus, dtype=np.int64), np.array(corpus, dtype=dtype)
    (batches_w, (ctx_w, tgt_w)), (batches_n, (ctx_n, tgt_n)) = split_data(wide, 2, V), split_data(narrow, 2, V)
    assert _same_bytes(ctx_w, ctx_n) and _same_bytes(tgt_w, tgt_n)
    for (cw, tw), (cn, tn) in zip(batches_w(8, 1), batches_n(8, 1), strict=True):
        assert _same_bytes(cw, cn) and _same_bytes(tw, tn)
    assert _same_bytes(forward(PARAMS, wide[:2]), forward(PARAMS, narrow[:2]))
    loss_w, grads_w = loss_and_grads(PARAMS, ctx_w, tgt_w, LOG, NO_SMOOTHING)
    loss_n, grads_n = loss_and_grads(PARAMS, ctx_w.astype(dtype), tgt_w.astype(dtype), LOG, NO_SMOOTHING)
    assert loss_w == loss_n and _same_bytes(grads_w.flat, grads_n.flat)
    assert evaluate_scores(PARAMS, ctx_w, tgt_w) == evaluate_scores(PARAMS, ctx_w.astype(dtype), tgt_w.astype(dtype))
    cfg = BeamConfig(beam_size=2, max_len=3)
    assert beam_search(PARAMS, np.array(prompt, dtype=np.int64), cfg) == \
        beam_search(PARAMS, np.array(prompt, dtype=dtype), cfg)
    assert decode(VOCAB, np.array(prompt, dtype=dtype)) == decode(VOCAB, np.array(prompt, dtype=np.int64))
