"""Greedy, beam, and exhaustive decoding under scoring-rule objectives.

The per-step objective of a proper rule is S(p, .) - sup S, which is
non-positive (sup S is 0 for the logarithmic score and 1 for the bounded
rules), so the length penalty divides a negative cumulative score exactly
as in log-probability beam search.

Conventions shared by all three decoders: PAD is never generated; EOS may
not be the first generated token (minimum generation length 1); a hypothesis
finishes on EOS (which is kept in its tokens and counted by the length
penalty) or on reaching max_len.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .documents import check_field_types, read_ids
from .errors import ConfigurationError, InvalidInputError, ParameterDomainError
from .model import EOS_ID, N_RESERVED, Parameters, context_window, forward
from .scores import RULES, ScoreRule, score_matrix

EXHAUSTIVE_LIMIT = 10**6


def _check_objective(rule: ScoreRule):
    if not RULES[rule.kind].proper:
        raise ConfigurationError(f"decoding objective must be a proper scoring rule; {rule.kind!r} is improper")


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 5
    max_len: int = 32
    length_penalty: float = 0.0
    objective: ScoreRule = ScoreRule("logarithmic")

    def __post_init__(self):
        check_field_types(self)
        for name in ("beam_size", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.length_penalty < np.inf:
            raise ConfigurationError(f"BeamConfig field 'length_penalty' must be finite and non-negative, "
                                     f"got {self.length_penalty}")
        _check_objective(self.objective)


@dataclass
class Hypothesis:
    tokens: tuple          # generated ids, EOS included when finished by EOS
    raw_score: float       # sum of per-step normalized objectives, <= 0

    def normalized_score(self, length_penalty: float) -> float:
        return self.raw_score / len(self.tokens) ** length_penalty


def normalized_objective_vector(rule: ScoreRule, p: np.ndarray) -> np.ndarray:
    """Sign-normalized per-token objective S(p, j) - sup S for every candidate token j."""
    _check_objective(rule)
    return score_matrix(rule, p) - RULES[rule.kind].sup


def _candidate_ids(V: int) -> np.ndarray:
    ids = np.arange(N_RESERVED, V)
    if ids.size == 0:
        raise InvalidInputError("vocabulary has no generatable symbols beyond pad/EOS")
    return ids


def _next_distribution(params: Parameters, prompt, generated) -> np.ndarray:
    seq = np.concatenate([prompt, np.asarray(generated, dtype=np.int64)])
    return forward(params, context_window(seq, seq.size, params.context))


def greedy(params: Parameters, prompt, max_len: int) -> Hypothesis:
    """Beam search of width 1 under the logarithmic objective: the most
    probable token at each step, ties toward the lower token id."""
    return beam_search(params, prompt, BeamConfig(beam_size=1, max_len=max_len))[0]


def beam_search(params: Parameters, prompt, cfg: BeamConfig):
    """Beam search maximizing the summed normalized objective.

    Each step expands every live hypothesis over all candidate tokens and
    keeps the top beam_size candidates by raw score (same-length comparison,
    so no normalization is needed); of those, EOS picks retire to the
    finished pool and free their slot for the next step.  Finished
    hypotheses are ranked by raw_score / |y|^length_penalty.
    """
    prompt = read_ids(prompt, "prompt", params.embed.shape[0], (None,))  # every id: forward reads only the last K
    real = _candidate_ids(params.embed.shape[0])
    live = [Hypothesis((), 0.0)]
    finished = []
    for step in range(1, cfg.max_len + 1):
        candidates = []
        for parent_idx, hyp in enumerate(live):
            p = _next_distribution(params, prompt, hyp.tokens)
            obj = normalized_objective_vector(cfg.objective, p)
            allowed = real if step == 1 else np.concatenate([[EOS_ID], real])
            for tok in allowed:
                candidates.append((-(hyp.raw_score + obj[tok]), int(tok), parent_idx))
        selected = heapq.nsmallest(cfg.beam_size, candidates)
        parents, live = live, []
        for neg, tok, parent_idx in selected:
            child = Hypothesis(parents[parent_idx].tokens + (tok,), -neg)
            (finished if tok == EOS_ID or step == cfg.max_len else live).append(child)
        if not live:
            break
    finished.sort(key=lambda h: (-h.normalized_score(cfg.length_penalty), len(h.tokens), h.tokens))
    return finished


def exhaustive_search(params: Parameters, prompt, cfg: BeamConfig) -> Hypothesis:
    """Enumerate every candidate generation up to cfg.max_len and return the
    best under the same normalized objective and length penalty as beam_search.

    Bodies run over the non-reserved symbols; bodies shorter than max_len are
    closed by EOS (whose objective is accrued), and max_len bodies finish
    open.  Refuses when V^max_len exceeds the enumeration bound.
    """
    prompt = read_ids(prompt, "prompt", params.embed.shape[0], (None,))
    V, max_len = params.embed.shape[0], cfg.max_len
    if V**max_len > EXHAUSTIVE_LIMIT:
        raise ParameterDomainError(
            f"search space V^max_len = {V}^{max_len} exceeds the enumeration bound {EXHAUSTIVE_LIMIT}"
        )
    real = _candidate_ids(V)
    best = None

    def consider(hyp: Hypothesis):
        nonlocal best
        # ties break toward shorter, then first-seen (= lexicographic in DFS order)
        key = (hyp.normalized_score(cfg.length_penalty), -len(hyp.tokens))
        if best is None or key > (best.normalized_score(cfg.length_penalty), -len(best.tokens)):
            best = hyp

    def walk(body: tuple, raw: float):
        depth = len(body)
        p = _next_distribution(params, prompt, body)
        obj = normalized_objective_vector(cfg.objective, p)
        if depth >= 1:
            consider(Hypothesis(body + (EOS_ID,), raw + float(obj[EOS_ID])))
        for tok in real:
            child_raw = raw + float(obj[tok])
            if depth + 1 == max_len:
                consider(Hypothesis(body + (int(tok),), child_raw))
            else:
                walk(body + (int(tok),), child_raw)

    walk((), 0.0)
    return best
