import hashlib
import json
import re
import tracemalloc

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scorelm.data import (
    EOS_SYMBOL,
    PAD_SYMBOL,
    MarkovSpec,
    Vocab,
    build_vocab,
    decode,
    encode,
    encode_pair,
    encode_pairs,
    load_pairs,
    make_batches,
    synth_markov,
)
from scorelm.errors import ConfigurationError, InvalidInputError
from scorelm.model import EOS_ID, PackedSeqs, TokenSeq


class TestVocab:
    def test_distinct_symbols_plus_reserved(self):
        v = build_vocab("aba")
        assert v.size == 4  # pad, eos, 'a', 'b'
        assert v.symbol_to_id["a"] == 2 and v.symbol_to_id["b"] == 3

    def test_deterministic_and_order_independent(self):
        assert build_vocab("ba") == build_vocab("ab") == build_vocab("ab")

    def test_sorted_by_code_point(self):
        v = build_vocab("zya")
        assert v.symbol_to_id["a"] < v.symbol_to_id["y"] < v.symbol_to_id["z"]

    def test_empty_text_rejected(self):
        with pytest.raises(InvalidInputError):
            build_vocab("")


class TestEncodeDecode:
    def test_round_trip(self):
        v = build_vocab("hello world")
        for text in ("hello", "world", "dlrow olleh", ""):
            assert decode(v, encode(v, text).tokens) == text

    def test_encode_unknown_symbol(self):
        v = build_vocab("ab")
        with pytest.raises(InvalidInputError, match="'x'"):
            encode(v, "ax")

    def test_lone_surrogate_from_a_json_escape(self):
        text = json.loads('"a\\ud800b"')
        assert len(text) == 3 and text[1] == "\ud800"
        v = build_vocab(text)
        assert v.symbols == [PAD_SYMBOL, EOS_SYMBOL, "a", "b", "\ud800"]
        assert encode(v, text).tokens.tolist() == [2, 4, 3]
        assert decode(v, encode(v, text).tokens) == text
        with pytest.raises(InvalidInputError, match=re.escape(f"character {chr(0xDFFF)!r} not in vocabulary")):
            encode(v, "ab" + json.loads('"\\udfff"'))

    def test_astral_plane_character(self):
        v = build_vocab("b\U0001F600a")
        assert v.symbols == [PAD_SYMBOL, EOS_SYMBOL, "a", "b", "\U0001F600"]
        assert encode(v, "\U0001F600ab\U0001F600").tokens.tolist() == [4, 2, 3, 4]
        with pytest.raises(InvalidInputError, match=re.escape(f"character {chr(0x1F601)!r} not in vocabulary")):
            encode(v, "a\U0001F601")

    def test_empty_text(self):
        for v in (build_vocab("ab"), Vocab.from_symbols([PAD_SYMBOL, EOS_SYMBOL])):
            tokens = encode(v, "").tokens
            assert tokens.dtype == np.int64 and tokens.shape == (0,)
        with pytest.raises(InvalidInputError, match="'a'"):
            encode(Vocab.from_symbols([PAD_SYMBOL, EOS_SYMBOL]), "a")

    def test_decode_skips_reserved(self):
        v = build_vocab("ab")
        assert decode(v, [0, 2, 1, 3, 0]) == "ab"

    def test_encode_pair_mask(self):
        # source + EOS masked out, target + EOS trained
        v = build_vocab("abc")
        seq = encode_pair(v, "ab", "c")
        assert len(seq) == 5
        assert seq.loss_mask.tolist() == [False, False, False, True, True]
        assert seq.tokens[2] == 1 and seq.tokens[4] == 1  # both EOS


def reference_ids(vocab, text):
    """Per-character dict lookup, written out independently of encode."""
    try:
        ids = [vocab.symbol_to_id[ch] for ch in text]
    except KeyError as exc:
        raise InvalidInputError(f"character {exc.args[0]!r} not in vocabulary") from None
    return np.asarray(ids, dtype=np.int64)


def reference_pair(vocab, source, target):
    """(tokens, mask) of source + EOS + target + EOS, built by concatenation."""
    src, tgt = reference_ids(vocab, source), reference_ids(vocab, target)
    tokens = np.concatenate([src, [EOS_ID], tgt, [EOS_ID]])
    mask = np.zeros(tokens.size, dtype=bool)
    mask[src.size + 1 :] = True
    return tokens, mask


def outcome(fn, *args):
    """fn's result, or the message of the InvalidInputError it raised."""
    try:
        return fn(*args)
    except InvalidInputError as exc:
        return str(exc)


def unpack(packed):
    """The records of a PackedSeqs as TokenSeqs cut from its buffers."""
    bounds = zip(packed.offsets[:-1], packed.offsets[1:])
    return [TokenSeq(packed.tokens[a:b], packed.loss_mask[a:b]) for a, b in bounds]


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_outcome(seq, ref):
    """A TokenSeq equal bit for bit to a reference (tokens, mask), or the same error."""
    if isinstance(ref, str):
        assert seq == ref
    else:
        assert_same_array(seq.tokens, ref[0])
        assert_same_array(seq.loss_mask, ref[1])


# astral code points, lone surrogates (json.loads can produce them), the
# brackets and letters of the reserved symbols' spellings, any character
SPECIAL = ["\U0001F600", "\U00010000", "\U0010FFFF", "\ud800", "\udfff", "<", ">", "e", "o", "s"]
chars = st.one_of(st.sampled_from(SPECIAL), st.characters(), st.sampled_from("abc"))
texts = st.lists(chars, max_size=60).map("".join)
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


class TestEncodeAgainstReference:
    @PROPERTY_SETTINGS
    @given(text=texts.filter(bool))
    def test_build_vocab(self, text):
        assert build_vocab(text).symbols == [PAD_SYMBOL, EOS_SYMBOL, *sorted(set(text))]

    @PROPERTY_SETTINGS
    @given(vocab_text=texts.filter(bool), text=texts)
    def test_encode(self, vocab_text, text):
        v = build_vocab(vocab_text)
        got, want = outcome(lambda: encode(v, text).tokens), outcome(reference_ids, v, text)
        if isinstance(want, str):
            assert got == want  # names the first unknown character in text order
        else:
            assert_same_array(got, want)

    @PROPERTY_SETTINGS
    @given(vocab_text=texts.filter(bool), pairs=st.lists(st.tuples(texts, texts), max_size=6))
    def test_encode_pairs_and_encode_pair(self, vocab_text, pairs):
        v = build_vocab(vocab_text)
        refs = [outcome(reference_pair, v, s, t) for s, t in pairs]
        for (s, t), ref in zip(pairs, refs):
            assert_same_outcome(outcome(encode_pair, v, s, t), ref)
        errors = [ref for ref in refs if isinstance(ref, str)]
        packed = outcome(encode_pairs, v, pairs)
        if errors:
            assert packed == errors[0]  # the first unknown character of the first bad record
        else:
            assert len(packed) == len(refs)
            for seq, ref in zip(unpack(packed), refs):
                assert_same_outcome(seq, ref)

    def test_unknown_character_named_in_text_order(self):
        v = build_vocab("ab")
        length = 20
        text = "a" * length + "yx" + "b" * length
        with pytest.raises(InvalidInputError, match="'y'"):
            encode(v, text)
        with pytest.raises(InvalidInputError, match="'y'"):
            encode_pairs(v, [("ab", "ba"), (text[:length], text[length:])])

    def test_pairs_with_empty_sides(self):
        v = build_vocab("ab")
        seqs = unpack(encode_pairs(v, [("", ""), ("a", ""), ("", "b")]))
        assert [s.tokens.tolist() for s in seqs] == [[1, 1], [2, 1, 1], [1, 3, 1]]
        assert [s.loss_mask.tolist() for s in seqs] == [[False, True], [False, False, True], [False, True, True]]
        assert unpack(encode_pairs(v, [])) == []

    @pytest.mark.parametrize("pairs, i, parts", [
        ([("ab", "c", "d"), ("a",)], 0, 3),  # as many parts as two pairs hold
        ([("a", "b"), ("a",)], 1, 1),
        ([("a", "b"), ()], 1, 0),
    ])
    def test_pair_of_other_than_two_parts_refused(self, pairs, i, parts):
        with pytest.raises(InvalidInputError, match=rf"^pair {i} has {parts} parts, not a \(source, target\) pair$"):
            encode_pairs(build_vocab("abcd"), pairs)


class TestLoadPairs:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "pairs.jsonl"
        f.write_text('{"source": "ab", "target": "c"}\n{"source": "x", "target": "yz"}\n')
        assert load_pairs(f) == [("ab", "c"), ("x", "yz")]

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.jsonl"
        f.write_text("")
        assert load_pairs(f) == []

    def test_malformed_line_number(self, tmp_path):
        f = tmp_path / "bad.jsonl"
        f.write_text('{"source": "a", "target": "b"}\nnot json\n')
        with pytest.raises(InvalidInputError, match="line 2"):
            load_pairs(f)

    def test_missing_field_named(self, tmp_path):
        f = tmp_path / "missing.jsonl"
        f.write_text('{"source": "a"}\n')
        with pytest.raises(InvalidInputError, match='"target"'):
            load_pairs(f)


    @pytest.mark.parametrize("value", ["5", "null", "true", '"source target"', '["source", "target"]'])
    def test_record_must_be_an_object(self, tmp_path, value):
        f = tmp_path / "scalar.jsonl"
        f.write_text('{"source": "a", "target": "b"}\n\n' + value + "\n")
        with pytest.raises(InvalidInputError, match="^line 3: record must be a JSON object$"):
            load_pairs(f)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_not_utf8_refused_by_line_and_file_offset(self, tmp_path, newline):
        # 3000 lines put the bad byte far beyond the first buffer the text decoder fills
        head = ('{"source": "ab", "target": "ba"}' + newline).encode() * 3000 + b'{"source": "a'
        f = tmp_path / "latin1.jsonl"
        f.write_bytes(head + b'\xe9", "target": "b"}\n')
        with pytest.raises(InvalidInputError) as info:
            load_pairs(f)
        assert str(info.value) == f"{f}: line 3001 is not UTF-8 (byte 0xe9 at byte offset {len(head)})"

    def test_line_nested_too_deep_refused_by_line(self, tmp_path):
        f = tmp_path / "deep.jsonl"
        f.write_text('{"source": "a", "target": "b"}\n' + "[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(InvalidInputError, match="^line 2: JSON nested too deep to read$"):
            load_pairs(f)


def reference_load_pairs(path):
    """The per-line reader that load_pairs replaced: text-mode iteration and
    one json.loads per line (plus the object check both readers make)."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(f"line {lineno}: malformed JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise InvalidInputError(f"line {lineno}: record must be a JSON object")
            for key in ("source", "target"):
                if key not in obj or not isinstance(obj[key], str):
                    raise InvalidInputError(f'line {lineno}: missing or non-string "{key}" field')
            records.append((obj["source"], obj["target"]))
    return records


# whitespace that JSON allows around a value, and whitespace that only str.strip,
# str.splitlines or a universal-newline reader treats as such
JSON_SPACE, OTHER_SPACE = [" ", "\t"], ["\xa0", "\x0c", "\x0b", "\x1c", "\x85", "\u2028", "\u3000", "\ufeff"]
JUNK = ["1,[2", '{"source": "a", "target": "b"},{"source": "c", "target": "d"}', "},{", "5", "null", "true",
        '"source"', '["source", "target"]', '{"source": 1, "target": "x"}', '{"source": "a"}', "{", "NaN",
        '{"source": "a", "target": "b"} x', '{"source": "a", "target": "b"}}', '{"source": "\x01", "target": ""}',
        '{"target": "t", "source": "s", "source": 3}', '{"source": "a", "target": "b", "extra": [1, {}]}']
record_texts = st.lists(st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from(
    OTHER_SPACE + ["\r", "\n", '"', "\\", "}", "{", ","])), max_size=8).map("".join)


@st.composite
def jsonl_lines(draw):
    """One line of a pairs file: a record with padding, junk, or blank space."""
    kind = draw(st.sampled_from(["record", "record", "record", "junk", "blank"]))
    if kind == "blank":
        return "".join(draw(st.lists(st.sampled_from(JSON_SPACE + OTHER_SPACE), max_size=3)))
    if kind == "junk":
        body = draw(st.sampled_from(JUNK))
    else:
        record = {"source": draw(record_texts), "target": draw(record_texts)}
        if draw(st.booleans()):
            record = dict(reversed(record.items()))
        body = json.dumps(record, ensure_ascii=draw(st.booleans()), separators=draw(st.sampled_from(
            [(", ", ": "), (",", ":")])))
    pad = st.lists(st.sampled_from(JSON_SPACE + OTHER_SPACE if draw(st.integers(0, 4)) == 0 else JSON_SPACE),
                   max_size=2).map("".join)
    return draw(pad) + body + draw(pad)


class TestLoadPairsAgainstReference:
    @PROPERTY_SETTINGS
    @given(lines=st.lists(jsonl_lines(), max_size=8), newline=st.sampled_from(["\n", "\r\n", "\r"]),
           last=st.booleans())
    def test_same_records_or_same_error(self, tmp_path_factory, lines, newline, last):
        f = tmp_path_factory.mktemp("pairs") / "pairs.jsonl"
        f.write_bytes((newline.join(lines) + (newline if last else "")).encode("utf-8"))
        assert outcome(load_pairs, f) == outcome(reference_load_pairs, f)

    @pytest.mark.parametrize("line", JUNK + [OTHER_SPACE[0] + '{"source": "a", "target": "b"}',
                                             '{"source": "a", "target": "b"}' + OTHER_SPACE[1],
                                             '\ufeff{"source": "a", "target": "b"}'])
    def test_each_junk_line(self, tmp_path, line):
        f = tmp_path / "junk.jsonl"
        f.write_bytes(('{"source": "a", "target": "b"}\r\n' + line + "\r\n").encode("utf-8"))
        assert outcome(load_pairs, f) == outcome(reference_load_pairs, f)


class TestEncodePairsPacked:
    def test_layout(self):
        v = build_vocab("abc")
        packed = encode_pairs(v, [("ab", "c"), ("", "ba")])
        assert packed.tokens.tolist() == [2, 3, 1, 4, 1, 1, 3, 2, 1]
        assert packed.loss_mask.tolist() == [False, False, False, True, True, False, True, True, True]
        assert packed.offsets.tolist() == [0, 5, 9]
        assert len(packed) == 2

    def test_pack_is_the_inverse_of_unpack(self):
        v = build_vocab("abc")
        packed = encode_pairs(v, [("ab", "c"), ("", ""), ("c", "ab")])
        again = PackedSeqs.pack(unpack(packed))
        for name in ("tokens", "loss_mask", "offsets"):
            assert_same_array(getattr(again, name), getattr(packed, name))
        assert_same_array(PackedSeqs.pack([]).tokens, np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("tokens, mask, offsets, message", [
        ([2, 3], [True], [0, 2], "loss_mask must have shape (2,), got (1,)"),
        ([2, 3], [True, True], [0, 1], "offsets must rise from 0 to the token count 2"),
        ([2, 3], [True, True], [1, 2], "offsets must rise"),
        ([2, 3], [True, True], [0, 2, 1, 2], "offsets must rise"),
        ([2, 3], [True, True], [], "offsets must rise"),
    ])
    def test_inconsistent_buffers_rejected(self, tokens, mask, offsets, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            PackedSeqs(np.asarray(tokens), np.asarray(mask, dtype=bool), np.asarray(offsets))

class TestMakeBatches:
    def test_window_count_per_epoch(self):
        tokens = np.arange(2, 2 + 30) % 4 + 2
        batches = list(make_batches(tokens, context=3, batch_size=8, seed=0))
        assert sum(targets.size for _, targets in batches) == 30 - 3
        for contexts, targets in batches:
            assert contexts.shape == (targets.size, 3)

    def test_seed_determinism(self):
        tokens = np.arange(20) % 3 + 2

        def epoch(seed):
            return [(c.tolist(), t.tolist()) for c, t in make_batches(tokens, 2, 4, seed=seed)]

        a, b, c = epoch(5), epoch(5), epoch(6)
        assert a == b
        assert a != c

    def test_oversized_batch(self):
        tokens = np.arange(8) % 3 + 2
        batches = list(make_batches(tokens, 2, batch_size=100, seed=0))
        assert len(batches) == 1
        contexts, targets = batches[0]
        assert contexts.shape == (6, 2) and targets.shape == (6,)

    def test_epoch_coverage(self):
        # every target position exactly once, with the K tokens before it
        tokens = np.arange(40) % 5 + 2
        windows = []
        for contexts, targets in make_batches(tokens, 4, 7, seed=1):
            windows += [ctx.tolist() + [tgt] for ctx, tgt in zip(contexts, targets.tolist())]
        # multiset equality: every position exactly once, none duplicated
        expected = [tokens[t - 4 : t + 1].tolist() for t in range(4, 40)]
        assert sorted(windows) == sorted(expected)

    def test_too_short_corpus(self):
        with pytest.raises(InvalidInputError):
            list(make_batches(np.array([2, 3]), context=2, batch_size=1, seed=0))

    @pytest.mark.parametrize("L, K, B", [(2, 1, 1), (30, 1, 512), (200, 1, 64), (200, 4, 7), (57, 9, 10)])
    def test_contiguous_arrays_equal_the_window_rows(self, L, K, B):
        # the rows of the (K + 1)-window view at the shuffled target positions, split into context and target
        tokens = np.random.default_rng(L).integers(0, 9, L)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(np.arange(K, L))
            rows = sliding_window_view(tokens, K + 1)[order - K]
            batches = list(make_batches(tokens, K, B, seed))
            assert len(batches) == -(-(L - K) // B)
            for start, (contexts, targets) in zip(range(0, L - K, B), batches):
                assert contexts.flags.c_contiguous and targets.flags.c_contiguous
                assert contexts.dtype == targets.dtype == np.int64
                assert contexts.shape == (min(B, L - K - start), K)
                assert np.array_equal(contexts, rows[start : start + B, :-1])
                assert np.array_equal(targets, rows[start : start + B, -1])


@st.composite
def markov_chains(draw):
    """A chain of 2-20 states whose rows have zero entries, some rows absorbing."""
    k = draw(st.integers(2, 20))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    T = np.array(draw(st.lists(st.lists(weight, min_size=k, max_size=k), min_size=k, max_size=k)))
    absorbing = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k))) | (T.sum(axis=1) == 0)
    T[absorbing] = np.eye(k)[absorbing]
    initial = np.array(draw(st.lists(weight, min_size=k, max_size=k))) + np.eye(k)[0]
    return MarkovSpec(states=k, transition=T / T.sum(axis=1, keepdims=True), initial=initial / initial.sum(),
                      seed=draw(st.integers(0, 2**32 - 1)))


def choice_walk(spec, length):
    """Reference sampler: one gen.choice call per step, as token ids."""
    gen = np.random.default_rng(spec.seed)
    states = [gen.choice(spec.states, p=spec.initial)]
    for _ in range(1, length):
        states.append(gen.choice(spec.states, p=spec.transition[states[-1]]))
    return np.asarray(states, dtype=np.int64) + 2


def searched_walk(spec, draws):
    """The walk gen.choice takes on the given uniforms, as token ids: each step
    is the right-sided search of its row's normalized cumulative sums."""
    def cdf(p):
        c = p.cumsum()
        c /= c[-1]
        return c

    states = [int(cdf(spec.initial).searchsorted(draws[0], side="right"))]
    for u in draws[1:]:
        states.append(int(cdf(spec.transition[states[-1]]).searchsorted(u, side="right")))
    return np.asarray(states, dtype=np.int64) + 2


class FixedDraws:
    """Stands in for np.random.default_rng(seed), handing out the given uniforms in order."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self, size=None, out=None):
        if size is None and out is None:
            return next(self.draws)
        if out is None:
            out = np.empty(size)
        out[:] = [next(self.draws) for _ in range(out.size)]
        return out


# the markov-corpus benchmark's chain: its last row's breakpoints 0.25, 0.5 and 0.75 lie on every power-of-two grid
BENCH_CHAIN = np.array([[0.70, 0.10, 0.10, 0.10],
                        [0.10, 0.60, 0.15, 0.15],
                        [0.20, 0.20, 0.50, 0.10],
                        [0.25, 0.25, 0.25, 0.25]])


class TestSynthMarkov:
    def test_absorbing_chain_constant(self):
        spec = MarkovSpec(states=3, transition=np.eye(3), initial=[0.0, 1.0, 0.0], seed=0)
        seq, truth = synth_markov(spec, 50)
        assert (seq.tokens == 3).all()  # state 1 -> token id 3
        assert np.array_equal(truth, np.eye(3))

    def test_law_of_large_numbers(self):
        spec = MarkovSpec(states=2, transition=np.full((2, 2), 0.5), initial=[0.5, 0.5], seed=7)
        seq, _ = synth_markov(spec, 100_000)
        s = seq.tokens - 2
        freq = np.zeros((2, 2))
        np.add.at(freq, (s[:-1], s[1:]), 1)
        freq /= freq.sum(axis=1, keepdims=True)
        assert np.abs(freq - 0.5).max() < 0.01

    def test_deterministic(self):
        spec = MarkovSpec(states=2, transition=[[0.9, 0.1], [0.4, 0.6]], initial=[1.0, 0.0], seed=3)
        a, _ = synth_markov(spec, 500)
        b, _ = synth_markov(spec, 500)
        assert np.array_equal(a.tokens, b.tokens)

    def test_invalid_rows_rejected(self):
        with pytest.raises(InvalidInputError, match="row 1"):
            MarkovSpec(states=2, transition=[[0.5, 0.5], [0.7, 0.7]], initial=[0.5, 0.5], seed=0)

    @pytest.mark.parametrize("transition", [np.full((2, 3), 1 / 3), np.full(2, 0.5), np.full((1, 2, 2), 0.5)])
    def test_transition_of_another_shape_rejected(self, transition):
        with pytest.raises(InvalidInputError, match=re.escape(f"transition matrix must have shape (2, 2), "
                                                              f"got {transition.shape}")):
            MarkovSpec(states=2, transition=transition, initial=[0.5, 0.5], seed=0)

    @pytest.mark.parametrize("states, initial", [(2, [0.1, 0.1, 0.8]), (3, [0.5, 0.5]), (2, [[0.5, 0.5]])])
    def test_initial_of_another_size_rejected(self, states, initial):
        # a longer vector would walk off the transition table, a shorter one never start in the last states
        with pytest.raises(InvalidInputError, match=re.escape(f"initial distribution must have shape ({states},), "
                                                              f"got {np.shape(initial)}")):
            MarkovSpec(states=states, transition=np.full((states, states), 1.0 / states), initial=initial, seed=0)

    @pytest.mark.parametrize("field, value, message", [
        ("states", 2.0, "MarkovSpec field 'states' must be an integer, got 2.0"),
        ("states", True, "MarkovSpec field 'states' must be an integer, got True"),
        ("seed", 1.0, "MarkovSpec field 'seed' must be an integer, got 1.0"),
        ("seed", -1, "MarkovSpec field 'seed' must be >= 0, got -1"),
    ])
    def test_fields_typed_by_name(self, field, value, message):
        # a float state count gave float token ids; a negative seed failed only inside synth_markov
        fields = {"states": 2, "transition": [[0.5, 0.5], [0.5, 0.5]], "initial": [0.5, 0.5], "seed": 0}
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            MarkovSpec(**{**fields, field: value})

    def test_numpy_fields_taken(self):
        spec = MarkovSpec(states=np.int64(2), transition=np.eye(2), initial=np.array([0.5, 0.5]),
                          seed=np.uint32(4))
        assert type(spec.states) is int and type(spec.seed) is int
        assert spec.state_ids().tolist() == [2, 3] and spec.state_ids().dtype.kind == "i"
        assert isinstance(spec.transition, np.ndarray) and isinstance(spec.initial, np.ndarray)

    def test_conditional_rows_are_distributions(self):
        spec = MarkovSpec(
            states=3,
            transition=[[0.2, 0.3, 0.5], [0.1, 0.8, 0.1], [0.4, 0.4, 0.2]],
            initial=[1 / 3, 1 / 3, 1 / 3],
            seed=0,
        )
        _, truth = synth_markov(spec, 10)
        from scorelm.simplex import check_prob_vector

        for row in truth:
            check_prob_vector(row)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_matches_choice_loop(self, seed):
        gen = np.random.default_rng(100 + seed)
        T = gen.dirichlet(np.ones(5), size=5)
        T[1] = [0.0, 0.5, 0.0, 0.5, 0.0]  # zero-probability successors
        T[3] = [0.0, 0.0, 0.0, 0.0, 1.0]
        spec = MarkovSpec(states=5, transition=T, initial=[0.0, 0.3, 0.0, 0.3, 0.4], seed=seed)
        seq, _ = synth_markov(spec, 3000)
        assert np.array_equal(seq.tokens, choice_walk(spec, 3000))

    SPARSE = MarkovSpec(states=3, transition=[[0.2, 0.3, 0.5], [0.0, 0.8, 0.2], [0.4, 0.6, 0.0]],
                        initial=[1 / 3, 1 / 3, 1 / 3], seed=11)
    ABSORBING = MarkovSpec(states=4, transition=[[0.1, 0.6, 0.0, 0.3], [0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 1.0, 0.0],
                                                 [0.25, 0.25, 0.25, 0.25]], initial=[0.5, 0.0, 0.0, 0.5], seed=5)

    @pytest.mark.parametrize("chain, draws", [
        *[("SPARSE", d) for d in (0, 1, 2, 171, 172, 384, 385, 684, 685, 2736, 2737, 6144, 6145)],
        *[("ABSORBING", d) for d in (0, 1, 2, 128, 129, 288, 289, 512, 513, 2048, 2049, 4608, 4609)],
    ])
    def test_matches_choice_loop_at_block_boundaries(self, chain, draws):
        # the walk's blocks are isqrt(draws * states / 128) long, at least 1: each count leaves its last block full
        # or holding one draw, at block lengths 1, 2, 3, 4, 5, 8 and 12
        spec = getattr(self, chain)
        seq, _ = synth_markov(spec, draws + 1)
        assert np.array_equal(seq.tokens, choice_walk(spec, draws + 1))

    WIDE = MarkovSpec(states=20, transition=np.random.default_rng(0).dirichlet(np.ones(20), size=20),
                      initial=np.full(20, 0.05), seed=3)  # its 3000 draws hit more than 255 cells

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=markov_chains(), length=st.integers(1, 3000))
    @example(spec=WIDE, length=3000)
    def test_matches_choice_loop_on_random_chains(self, spec, length):
        seq, _ = synth_markov(spec, length)
        assert np.array_equal(seq.tokens, choice_walk(spec, length))

    def test_draw_on_a_breakpoint_moves_above_it(self):
        # choice's search is right-sided: a uniform equal to a breakpoint picks the outcome after it
        u = np.random.default_rng(6).random(2)[1]  # the first transition draw of seed 6
        row = [u, 1 - u]
        assert row[0] / (row[0] + row[1]) == u  # choice's normalized breakpoint is the draw itself
        spec = MarkovSpec(states=2, transition=[row, row], initial=[0.5, 0.5], seed=6)
        seq, _ = synth_markov(spec, 5)
        assert seq.tokens[1] == 3 and np.array_equal(seq.tokens, choice_walk(spec, 5))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_choice_loop_on_the_bench_chain(self, seed):
        # 20,000 draws put about 29 in the grid parts that start at 0.25, 0.5 and 0.75, each on a breakpoint
        spec = MarkovSpec(states=4, transition=BENCH_CHAIN, initial=np.full(4, 0.25), seed=seed)
        seq, _ = synth_markov(spec, 20_000)
        assert np.array_equal(seq.tokens, choice_walk(spec, 20_000))

    def test_bench_chain_corpus_is_pinned(self):
        # the digest of the corpus the Generator.choice walk gives (taken when synthesis still searched every draw)
        spec = MarkovSpec(states=4, transition=BENCH_CHAIN, initial=np.full(4, 0.25), seed=0)
        seq, _ = synth_markov(spec, 200_000)
        assert seq.tokens.dtype == np.int64
        assert hashlib.sha256(seq.tokens.astype("<i8").tobytes()).hexdigest() == (
            "3977eae56cb5d35a83b7a486f3f08e2ce2eeac116f1b45129ab98e52c94c1619")

    def test_draws_on_grid_points_and_breakpoints(self, monkeypatch):
        # 0.0, 0.25, 0.5 and 0.75 are grid points of every grid and breakpoints of the last row; k / 2048 is a grid
        # point of a grid of 2048 parts or more, where 204 / 2048 < 0.1 < 205 / 2048 puts a breakpoint inside a part
        values = [0.0, 0.25, 0.5, 0.75, 1 / 2048, 204 / 2048, 205 / 2048, 0.1, 0.7, 0.9, 1 - 2**-53]
        draws = np.random.default_rng(0).choice(values, size=3001).tolist()
        spec = MarkovSpec(states=4, transition=BENCH_CHAIN, initial=np.full(4, 0.25), seed=0)
        expected = searched_walk(spec, draws)
        assert len(set(zip(expected[:-1].tolist(), draws[1:]))) == 4 * len(values)  # every state meets every value
        monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedDraws(draws))
        seq, _ = synth_markov(spec, len(draws))
        assert np.array_equal(seq.tokens, expected)

    @pytest.mark.parametrize("length", [2, 3, 3000])
    def test_matches_choice_loop_with_a_breakpoint_inside_every_grid_part(self, length):
        # 600 x 600 breakpoints: a grid has at most 2^16 parts, so every part holds some and every draw is searched;
        # the steps need 32 bits (600 states x ~3000 rows), and at 2 and 3 draws a block is longer than the path
        spec = MarkovSpec(states=600, transition=np.random.default_rng(4).dirichlet(np.ones(600), size=600),
                          initial=np.full(600, 1 / 600), seed=9)
        seq, _ = synth_markov(spec, length)
        assert np.array_equal(seq.tokens, choice_walk(spec, length))

    @pytest.mark.parametrize("states, length", [(64, 50_000), (200, 2_000), (4, 200_000)])
    def test_memory_is_linear_in_length_and_table(self, states, length):
        # O(length + k * min(k^2, length)): neither a successor per state and draw, nor one per state and breakpoint
        spec = MarkovSpec(states=states, transition=np.random.default_rng(1).dirichlet(np.ones(states), size=states),
                          initial=np.full(states, 1 / states), seed=2)
        tracemalloc.start()
        try:
            synth_markov(spec, length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("length", [True, 2.0, "10"])
    def test_length_must_be_an_integer(self, length):
        with pytest.raises(InvalidInputError, match=f"^length must be an integer, got {re.escape(repr(length))}$"):
            synth_markov(self.SPARSE, length)

    @pytest.mark.parametrize("length", [np.int64(40), np.uint16(40)])
    def test_numpy_integer_length_taken(self, length):
        assert np.array_equal(synth_markov(self.SPARSE, length)[0].tokens, synth_markov(self.SPARSE, 40)[0].tokens)
