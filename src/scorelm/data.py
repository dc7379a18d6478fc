"""Corpus ingestion, character tokenization, batching, and synthetic
Markov corpora with known ground-truth conditionals."""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .documents import check_field_types, check_shape, read_ids, read_text
from .errors import ConfigurationError, InvalidInputError
from .model import EOS_ID, N_RESERVED, PAD_ID, PackedSeqs, TokenSeq
from .simplex import check_prob_vector

PAD_SYMBOL = "<pad>"
EOS_SYMBOL = "<eos>"


@dataclass(frozen=True)
class Vocab:
    symbol_to_id: dict
    id_to_symbol: dict

    @classmethod
    def from_symbols(cls, symbols) -> "Vocab":
        """The vocabulary whose id i is symbols[i]."""
        s2i = {s: i for i, s in enumerate(symbols)}
        return cls(symbol_to_id=s2i, id_to_symbol={i: s for s, i in s2i.items()})

    @property
    def size(self) -> int:
        return len(self.symbol_to_id)

    @property
    def symbols(self) -> list:
        """Every symbol in id order, pad/EOS included."""
        return [self.id_to_symbol[i] for i in range(self.size)]

    @cached_property
    def _code_ids(self) -> np.ndarray:
        """The id of each one-character symbol at its code point, -1 at every
        other code point up to one past the largest: a code point beyond the
        table reads that last -1 when clipped to it."""
        chars = {ord(s): i for s, i in self.symbol_to_id.items() if len(s) == 1}
        table = np.full(max(chars, default=-1) + 2, -1, dtype=np.int64)
        table[list(chars)] = list(chars.values())
        return table


def _code_points(text: str) -> np.ndarray:
    """The code points of text, one per character (a lone surrogate is one too)."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def build_vocab(text: str) -> Vocab:
    """One id per distinct character, sorted by code point, after pad/EOS."""
    if not text:
        raise InvalidInputError("cannot build a vocabulary from empty text")
    present = np.flatnonzero(np.bincount(_code_points(text)))
    return Vocab.from_symbols([PAD_SYMBOL, EOS_SYMBOL] + [chr(c) for c in present.tolist()])


def encode(vocab: Vocab, text: str) -> TokenSeq:
    """Character ids for text; every position unmasked.  The first character
    of text not in the vocabulary is refused by name."""
    ids = vocab._code_ids.take(_code_points(text), mode="clip")
    if ids.size and ids.min() < 0:
        ch = text[int(np.argmax(ids < 0))]
        raise InvalidInputError(f"character {ch!r} not in vocabulary")
    return TokenSeq(ids)


def decode(vocab: Vocab, tokens) -> str:
    """Inverse of encode; reserved pad/EOS ids contribute nothing."""
    ids = read_ids(tokens, "tokens", vocab.size, (None,))
    return "".join(vocab.id_to_symbol[t] for t in ids.tolist() if t not in (PAD_ID, EOS_ID))


def encode_pair(vocab: Vocab, source: str, target: str) -> TokenSeq:
    """The one record of encode_pairs(vocab, [(source, target)])."""
    record = encode_pairs(vocab, [(source, target)])
    return TokenSeq(record.tokens, record.loss_mask)


def encode_pairs(vocab: Vocab, pairs) -> PackedSeqs:
    """The records source + EOS + target + EOS of pairs, packed, each
    loss-masked over its source and that EOS: the text of every record is
    encoded in one call and an EOS inserted after each source and target."""
    parts = np.fromiter(map(len, pairs), dtype=np.int64, count=len(pairs))
    if np.any(parts != 2):
        i = int(np.argmax(parts != 2))
        raise InvalidInputError(f"pair {i} has {parts[i]} parts, not a (source, target) pair")
    lengths = np.fromiter(map(len, chain.from_iterable(pairs)), dtype=np.int64, count=2 * len(pairs))
    ids = encode(vocab, "".join(chain.from_iterable(pairs))).tokens
    tokens = np.insert(ids, np.cumsum(lengths), EOS_ID)
    mask = np.repeat(np.arange(lengths.size) % 2 == 1, lengths + 1)  # segments alternate source, target
    offsets = np.zeros(len(pairs) + 1, dtype=np.int64)
    np.cumsum(lengths.reshape(-1, 2).sum(axis=1) + 2, out=offsets[1:])
    return PackedSeqs(tokens, mask, offsets)


_scan_json = json.JSONDecoder().scan_once  # json.loads' C scanner, without the whitespace skipping
_JSON_SPACE = " \t\n\r"


def load_pairs(path):
    """Read JSON-lines records with "source" and "target" string fields.

    The file is read in one piece and split at "\n", as iterating over it
    in text mode splits it.  Each line is read as json.loads reads it:
    stripped of JSON whitespace and scanned by the C scanner, which must
    consume all of it.  A line the scanner refuses is skipped if it is
    blank (line.strip() is empty), and otherwise parsed again by json.loads
    for its error message.
    """
    lines = read_text(path).split("\n")
    records = []
    for lineno, line in enumerate(lines, start=1):
        body = line.strip(_JSON_SPACE)
        try:
            obj, end = _scan_json(body, 0)
            if end != len(body):
                raise ValueError("extra data")
        except RecursionError:
            raise InvalidInputError(f"line {lineno}: JSON nested too deep to read") from None
        except (StopIteration, ValueError):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(f"line {lineno}: malformed JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise InvalidInputError(f"line {lineno}: record must be a JSON object")
        source, target = obj.get("source"), obj.get("target")
        if not (isinstance(source, str) and isinstance(target, str)):
            key = "target" if isinstance(source, str) else "source"
            raise InvalidInputError(f'line {lineno}: missing or non-string "{key}" field')
        records.append((source, target))
    return records


def make_batches(tokens, context: int, batch_size: int, seed: int):
    """One epoch of sliding-window next-token examples, shuffled by seed.

    Yields C-contiguous (contexts, targets) index arrays of shapes (B, K) and
    (B,): row j holds the K tokens before a target position t and the token
    at t.  Every target position K..L-1 appears exactly once, in an order
    that depends only on seed and L - K.  At K = 0 a batch is only targets,
    its contexts a view of no ids.  Token ids are read by dtype only;
    training checks their range once, at ingest.
    """
    tokens = read_ids(tokens, "tokens", shape=(None,))
    L = tokens.size
    if L <= context:
        raise InvalidInputError(f"corpus length {L} must exceed the context window {context}")
    order = np.random.default_rng(seed).permutation(np.arange(context, L))
    # row t - K holds the K tokens before position t.  Indexing the view copies
    # only the rows asked for; np.take would first copy a view of K > 1 whole.
    windows = sliding_window_view(tokens[:-1], context)
    for start in range(0, order.size, batch_size):
        positions = order[start : start + batch_size]
        yield windows[positions - context] if context else windows[: positions.size], tokens[positions]


def make_seq_batches(seqs, batch_size: int, seed: int):
    """One epoch over whole sequences (paired data), shuffled by seed."""
    if not seqs:
        raise InvalidInputError("no sequences to batch")
    order = np.random.default_rng(seed).permutation(len(seqs))
    for start in range(0, order.size, batch_size):
        yield [seqs[i] for i in order[start : start + batch_size]]


@dataclass(frozen=True)
class MarkovSpec:
    """First-order chain over k states; the transition matrix doubles as the
    exact conditional table for calibration checks."""

    states: int
    transition: np.ndarray  # (k, k), row-stochastic
    initial: np.ndarray     # (k,)
    seed: int = 0

    def __post_init__(self):
        T = np.asarray(self.transition, dtype=np.float64)
        init = np.asarray(self.initial, dtype=np.float64)
        object.__setattr__(self, "transition", T)
        object.__setattr__(self, "initial", init)
        check_field_types(self)
        if self.seed < 0:
            raise ConfigurationError(f"MarkovSpec field 'seed' must be >= 0, got {self.seed}")
        check_shape(T, "transition matrix", (self.states, self.states))
        for r, row in enumerate(T):
            try:
                check_prob_vector(row)
            except InvalidInputError as exc:
                raise InvalidInputError(f"transition row {r} is not a distribution: {exc}") from None
        check_shape(init, "initial distribution", (self.states,))
        check_prob_vector(init)

    def state_ids(self) -> np.ndarray:
        """Token ids of the states: reserved ids first, states from 2."""
        return np.arange(N_RESERVED, N_RESERVED + self.states)


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The table Generator.choice(k, p=row) searches for each row of p:
    normalized cumulative sums along the last axis."""
    cdf = p.cumsum(axis=-1)
    return cdf / cdf[..., -1:]


def _markov_steps(gen, cdfs: np.ndarray, n: int, L: int):
    """The next n draws of gen as steps of the move table, laid out for a walk
    in blocks of L draws, with the runs that build that table and its row count.

    steps[j, b] is the j-th draw of block b: its cell's row premultiplied by
    k.  runs[s, i] is the number of rows, in cell order, on which state s moves
    to i.  The steps past the n-th are those of draws of 0.0.
    """
    k = cdfs.shape[0]
    order = np.argsort(cdfs, axis=None)
    edges = cdfs.ravel()[order]  # a repeated breakpoint bounds an empty cell, which no draw hits
    G = 2 ** min(16, (edges.size << 6).bit_length(), n.bit_length() - 1)
    below = edges.searchsorted(np.arange(G) / G, side="right")  # the cell of each grid point
    inside = edges.searchsorted(np.arange(1, G + 1) / G, side="left") > below
    blocks = -(-n // L)
    u = np.zeros(blocks * L)
    gen.random(out=u[:n])
    part = np.multiply(u, G, out=np.empty(u.size, dtype=np.min_scalar_type(G - 1)), casting="unsafe")
    block, j = np.nonzero(inside[part.reshape(blocks, L)])
    cells = edges.searchsorted(u.reshape(blocks, L)[block, j], side="right")  # edges[c - 1] <= u < edges[c]
    del u
    used = np.zeros(edges.size + 1, dtype=bool)
    used[below[~inside]] = True
    used[cells] = True
    width = int(used.sum())
    rows = np.cumsum(used, dtype=np.min_scalar_type(width)) - used  # the used cells below each cell: a used cell's row
    step = np.min_scalar_type(k * width)
    steps = np.multiply(rows[below], k, dtype=step).take(part.reshape(blocks, L).T)
    del part
    steps[j, block] = np.multiply(rows[cells], k, dtype=step)
    # state s moves to i on rows p[s, i - 1] to p[s, i], p counting the used cells at or below each breakpoint
    p = np.empty_like(rows, shape=edges.size)
    p[order] = rows[1:]
    return steps, np.diff(p.reshape(k, k), axis=1, prepend=p.dtype.type(0)), width


def synth_markov(spec: MarkovSpec, length: int):
    """Seed-deterministic sample path plus the exact conditional table.

    States are mapped to token ids N_RESERVED..N_RESERVED+k-1, so the
    resulting TokenSeq trains a model with vocab_size k + 2.

    The path is the one a gen.choice(k, p=row) call per step would draw, each
    call taking one uniform.  Every row's breakpoints (the normalized
    cumulative sums choice searches) are merged into one sorted list of E,
    and a draw's cell is the number of them at or below it.

    Cells come from a grid of G equal parts of [0, 1): G is the least power
    of two above 64 E, but at most 2^16 and at most the draw count.  Scaling
    by a power of two is exact, so floor(u * G) is exactly the part j a draw
    u lies in, and j / G exactly its lower grid point.  A draw in a part with
    no breakpoint strictly inside it has the cell of that grid point, read
    from a G-entry table; the draws in the other parts, about E / G of them,
    are searched.

    A move table holds, for every cell the table or a search gives, each
    state's successor on it: the number of the state's own breakpoints at or
    below the cell's lower edge, which is what choice's right-sided search
    returns.  It has one row per cell, at most min(E + 1, G + length) of
    them, and one column per state.  Each draw's step is its cell's row
    times k, the row's offset in the flat table, in the narrowest dtype that
    holds k times the row count; so a step of the walk is one add and one
    lookup.

    The n = length - 1 draws are walked in blocks of L = isqrt(n k / 128)
    (at least 1), in two passes of L vectorized steps each.  Pass 1 follows all k states through
    every block at once, giving each block's exit state for each entry state;
    the entry states are then chained from block to block, one Python step per
    block.  Pass 2 walks every block from its entry state.  A pass costs one
    numpy call per step, the chain one Python step per block, and pass 1 holds
    k states per block, so L balances them and grows with k.  Each step's
    column of the blocks is contiguous.  The last block is padded with draws
    of 0.0, whose moves are never read: they come after the path's end, and no
    block follows to enter from its exit.
    """
    if not isinstance(length, (int, np.integer)) or isinstance(length, bool):
        raise InvalidInputError(f"length must be an integer, got {length!r}")
    if length < 1:
        raise InvalidInputError(f"length must be >= 1, got {length}")
    k, n = spec.states, int(length) - 1
    gen = np.random.default_rng(spec.seed)
    first = int(_choice_cdf(spec.initial).searchsorted(gen.random(), side="right"))
    if n == 0:
        return TokenSeq(np.array([first + N_RESERVED])), spec.transition.copy()
    L = max(1, math.isqrt(n * k // 128))
    steps, runs, width = _markov_steps(gen, _choice_cdf(spec.transition), n, L)
    blocks = steps.shape[1]
    states = np.arange(k, dtype=np.min_scalar_type(k - 1))
    table = np.empty((width, k), dtype=states.dtype)
    chunk = max(1, 2**20 // width)  # states filled at a time: the transpose's copy stays near 2^20 entries
    for s in range(0, k, chunk):
        group = runs[s : s + chunk]
        table[:, s : s + chunk] = np.repeat(np.tile(states, len(group)), group.ravel()).reshape(-1, width).T
    table = table.ravel()
    at = np.empty((k, blocks), dtype=np.intp)
    exits = states[:, None]
    for j in range(L):
        exits = table.take(np.add(exits, steps[j], out=at, dtype=np.intp))
    entries = [first]
    for b in range(blocks - 1):
        entries.append(exits.item(entries[-1], b))
    walk, state, at = np.empty_like(steps, dtype=states.dtype), np.array(entries), at[0]
    for j in range(L):
        state = walk[j] = table.take(np.add(state, steps[j], out=at, dtype=np.intp))
    path = np.empty(n + 1, dtype=np.int64)
    path[0] = first
    path[1:] = walk.T.ravel()[:n]
    path += N_RESERVED
    return TokenSeq(path), spec.transition.copy()
