"""Score smoothing and why bounded rules need the masked enhancement.

Label smoothing asks the model to produce q^eps = (1-eps) q + eps/m instead
of q.  Score smoothing generalizes that to any rule by blending the observed
score with the average score over all labels.  For bounded rules the penalty
for ignoring the smoothing term is mild; the masked logarithmic add-on
restores a sharp incentive.
"""

import numpy as np

from scorelm import (
    ScoreRule,
    SmoothingConfig,
    expected_score,
    smooth_distribution,
    smoothed_score,
)

m, eps = 100, 0.1
q = np.zeros(m)
q[0] = 1.0
q_eps = smooth_distribution(q, eps)

print(f"m = {m} labels, one-hot target, eps = {eps}: q^eps = ({q_eps[0]:.3f}, {q_eps[1]:.3f} x {m - 1})")
print("\nExpected score when the model smooths (p = q^eps) vs ignores smoothing (p = q):")
print(f"  {'rule':12s}  {'p=q':>10s}  {'p=q^eps':>10s}  {'penalty for ignoring':>20s}")
for kind in ("logarithmic", "brier", "spherical"):
    rule = ScoreRule(kind)
    ignore = expected_score(rule, q, q_eps)
    smooth = expected_score(rule, q_eps, q_eps)
    print(f"  {kind:12s}  {ignore:>10.4f}  {smooth:>10.4f}  {smooth - ignore:>20.4f}")

print(
    "\nThe spherical gap is ~1e-4: the loss is nearly flat around the optimum,"
    "\nso the smoothing term is almost ignorable.  The masked variant adds a"
    "\nlog penalty on labels whose probability falls below eps/m:"
)

rule = ScoreRule("spherical")
plain_cfg = SmoothingConfig(eps)
masked_cfg = SmoothingConfig(eps, mask_enhanced=True)
for label, p in [("p = q (under-smooth)", q), ("p = q^eps (smoothed)", q_eps)]:
    s_plain = smoothed_score(rule, plain_cfg, p, 0)
    s_masked = smoothed_score(rule, masked_cfg, p, 0)
    print(f"  {label:22s}  smoothed={s_plain:+.4f}  mask-enhanced={s_masked:+.4f}")

print(
    "\nWith the mask, skipping the smoothing term costs -inf (99 labels sit at"
    "\nzero probability, below the eps/m threshold), while the smoothed forecast"
    "\nis untouched: the dominance S^eps_log <= S^eps is strict exactly where it"
    "\nshould be."
)
