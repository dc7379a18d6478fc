"""Scoring rules as beam-search objectives.

Beam search usually maximizes summed log-probabilities with a length
penalty.  Any proper rule can play that role once its per-token score is
sign-normalized to be non-positive: the objective is S(p, .) - sup S, so
longer hypotheses always pay something, as log-probability does.  sup S is
0 for the logarithmic score and 1 for the bounded rules, the alpha-power and
pseudo-spherical families included.
"""

import numpy as np

from scorelm import (
    BeamConfig,
    MarkovSpec,
    ModelConfig,
    ScoreRule,
    TrainConfig,
    beam_search,
    exhaustive_search,
    greedy,
    synth_markov,
    train,
)

# a chain with one sticky state gives decodes with recognizable structure
TRANSITION = np.array([[0.85, 0.10, 0.05], [0.30, 0.40, 0.30], [0.10, 0.30, 0.60]])
spec = MarkovSpec(states=3, transition=TRANSITION, initial=np.full(3, 1 / 3), seed=2)
seq, _ = synth_markov(spec, 30_000)
model_cfg = ModelConfig(vocab_size=5, context=2, embed_dim=8, hidden_dim=16, seed=1)
cfg = TrainConfig(rule=ScoreRule("logarithmic"), steps=800, batch_size=128,
                  eval_every=400, seed=3, lr_decay=True)
ckpt, _ = train(cfg, model_cfg, seq.tokens)
params = ckpt.params
prompt = np.array([3, 4])  # states 1, 2

print("greedy decode:", greedy(params, prompt, 8).tokens)

OBJECTIVES = [ScoreRule("logarithmic"), ScoreRule("brier"), ScoreRule("spherical"),
              ScoreRule("alpha_power", 1.5), ScoreRule("pseudo_spherical", 1.5)]

print("\nbeam search (width 4, max_len 8) under each normalized objective:")
for rule in OBJECTIVES:
    name = f"{rule.kind}({rule.alpha})"
    for lp in (0.0, 1.0):
        bc = BeamConfig(beam_size=4, max_len=8, length_penalty=lp, objective=rule)
        best = beam_search(params, prompt, bc)[0]
        print(f"  {name:21s} lp={lp}: tokens={best.tokens}  raw={best.raw_score:+.4f}  "
              f"normalized={best.normalized_score(lp):+.4f}")

print("\nwidth-1 beams agree across objectives (per-step ranking is by token")
print("probability for every rule), while wide beams with a length penalty may")
print("prefer different hypotheses because raw score magnitudes differ by rule.")

print("\nfull-width beam (length penalty 1) against exhaustive enumeration:")
for rule in OBJECTIVES:
    bc = BeamConfig(beam_size=3**4, max_len=4, length_penalty=1.0, objective=rule)
    full = beam_search(params, prompt, bc)[0]
    ex = exhaustive_search(params, prompt, bc)
    print(f"  {rule.kind}({rule.alpha}): equal={full.tokens == ex.tokens}  "
          f"({full.tokens}, raw {full.raw_score:+.4f})")
