"""Brute-force certificates for the propriety, smoothing, gradient, and
entmax-equivalence claims, at desk scale.

Scans enumerate a regular grid on the simplex and check that expected
scores are maximized in the grid cell(s) nearest the target distribution.
Ties matter: an off-grid target (e.g. the uniform distribution at step
0.02) has several equidistant nearest cells whose scores can tie exactly
by symmetry, so the certificate checks that the set of maximizers lies
inside the set of nearest cells and that everything outside loses by a
strictly positive margin.

CERTIFICATES is the suite `scorelm verify` runs: each name maps to a
zero-argument function whose report carries an overall "pass".
"""

import numpy as np

from .errors import ParameterDomainError
from .scores import (
    NO_SMOOTHING,
    RULES,
    ScoreRule,
    SmoothingConfig,
    entmax_power_equivalence_gap,
    expectation,
    expected_score,
    smoothed_score_matrix,
    token_losses_and_grads,
)
from .simplex import row_sum, smooth_distribution, softmax

GRID_POINT_LIMIT = 10**6
_TIE_TOL = 1e-12


def simplex_grid(m: int, step: float) -> np.ndarray:
    """All points with coordinates i/n on the m-simplex, n = round(1/step)."""
    if m not in (2, 3):
        raise ParameterDomainError(f"grid scans support m in {{2, 3}}, got {m}")
    if step > 0.05:
        raise ParameterDomainError(f"grid step must be <= 0.05, got {step}")
    n = round(1.0 / step)
    count = n + 1 if m == 2 else (n + 1) * (n + 2) // 2
    if count > GRID_POINT_LIMIT:
        raise ParameterDomainError(f"grid would have {count} points, beyond the {GRID_POINT_LIMIT} bound")
    if m == 2:
        i = np.arange(n + 1)
        pts = np.stack([i, n - i], axis=1)
    else:
        pts = [(i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i)]
    return np.asfortranarray(np.asarray(pts, dtype=np.float64) / n)  # outcome-major, as softmax_rows keeps narrow rows


def _cell_certificate(grid: np.ndarray, E: np.ndarray, target: np.ndarray) -> dict:
    """Is the expected score maximized exactly in the cell(s) nearest target?"""
    finite_max = E.max()
    arg_set = np.flatnonzero(E >= finite_max - _TIE_TOL)
    d2 = row_sum((grid - target) ** 2)[:, 0]
    near_set = np.flatnonzero(d2 <= d2.min() + _TIE_TOL)
    outside = np.setdiff1d(np.arange(grid.shape[0]), near_set, assume_unique=False)
    margin = float(finite_max - E[outside].max()) if outside.size else float("inf")
    ok = bool(set(arg_set).issubset(set(near_set)) and margin > 0.0)
    return {
        "argmax_cell": grid[arg_set[0]].tolist(),
        "n_maximizers": int(arg_set.size),
        "nearest_cells": grid[near_set].tolist(),
        "max_value": float(finite_max),
        "margin": margin,
        "pass": ok,
    }


def _scan(rule: ScoreRule, cfgs, m: int, grid_step: float, q_set, certify) -> dict:
    """The scan core: S^eps on the grid for each config in cfgs, the expected
    scores under each q in q_set, certify(q, grid, *expected) for the cells,
    and the report; the report names eps when the scores are smoothed."""
    grid = simplex_grid(m, grid_step)
    grids = [smoothed_score_matrix(rule, cfg, grid) for cfg in cfgs]
    results = []
    for q in q_set:
        q = np.asarray(q, dtype=np.float64)
        results.append({"q": q.tolist(), **certify(q, grid, *(expectation(S, q) for S in grids))})
    return {
        "rule": rule.kind,
        "alpha": rule.alpha,
        **({"eps": cfgs[0].eps} if cfgs[0].eps else {}),
        "m": m,
        "grid_step": grid_step,
        "grid_points": int(grid.shape[0]),
        "results": results,
        "pass": bool(all(r["pass"] for r in results)),
    }


def propriety_scan(rule: ScoreRule, m: int, grid_step: float, q_set) -> dict:
    """Grid certificate that the expected score is maximized at (the cell
    containing) q, for each q in q_set.  An improper rule fails for some q."""
    return _scan(rule, [NO_SMOOTHING], m, grid_step, q_set, lambda q, grid, E: _cell_certificate(grid, E, q))


def smoothing_propriety_scan(rule: ScoreRule, eps: float, m: int, grid_step: float, q_set) -> dict:
    """Grid certificate for score smoothing: the expected smoothed score is
    maximized at (the cell nearest) q^eps, the masked variant never exceeds
    the smoothed one, and the two coincide at q^eps itself."""
    if not 0.0 < eps < 1.0:
        raise ParameterDomainError(f"smoothing scan requires eps in (0, 1), got {eps}")
    cfgs = [SmoothingConfig(eps), SmoothingConfig(eps, mask_enhanced=True)]

    def certify(q, grid, E, E_masked):
        q_eps = smooth_distribution(q, eps)
        cert = _cell_certificate(grid, E, q_eps)
        dominance = bool(np.all(E_masked <= E + _TIE_TOL))
        at_q_eps, at_q_eps_masked = (expectation(smoothed_score_matrix(rule, cfg, q_eps[None, :]), q)[0]
                                     for cfg in cfgs)
        equality = bool(abs(at_q_eps_masked - at_q_eps) <= _TIE_TOL)
        return {
            "q_eps": q_eps.tolist(),
            **cert,
            "dominance": dominance,
            "equality_at_q_eps": equality,
            "pass": bool(cert["pass"] and dominance and equality),
        }

    return _scan(rule, cfgs, m, grid_step, q_set, certify)


TABLE1_EXPECTED = {
    "logarithmic": (float("-inf"), -0.7778),
    "brier": (0.8020, 0.8119),
    "spherical": (0.9010, 0.9011),
}


def table1_check() -> dict:
    """Expected scores with and without smoothing at m = 100, one-hot q,
    eps = 0.1: the six reference values, matched to 4 decimal places."""
    m, eps = 100, 0.1
    q = np.zeros(m)
    q[0] = 1.0
    q_eps = smooth_distribution(q, eps)
    report = {"m": m, "eps": eps, "values": {}, "pass": True}
    for kind, (want_pq, want_pqe) in TABLE1_EXPECTED.items():
        rule = ScoreRule(kind)
        got_pq = expected_score(rule, q, q_eps)
        got_pqe = expected_score(rule, q_eps, q_eps)
        ok_pq = got_pq == float("-inf") if want_pq == float("-inf") else round(got_pq, 4) == want_pq
        ok_pqe = round(got_pqe, 4) == want_pqe
        report["values"][kind] = {
            "p=q": got_pq,
            "p=q_eps": got_pqe,
            "expected": [want_pq, want_pqe],
            "pass": bool(ok_pq and ok_pqe),
        }
        report["pass"] = bool(report["pass"] and ok_pq and ok_pqe)
    return report


def grad_check(rule: ScoreRule, cfg: SmoothingConfig, m: int, trials: int, h: float, seed: int = 0) -> dict:
    """Fourth-order central finite differences vs the analytic logit gradient.

    Coordinates with |analytic| <= 1e-8 are skipped (their relative error is
    ill-defined); the report counts them.  For mask-enhanced configs the
    under-smooth mask is frozen at the unperturbed point, matching the
    stop-gradient treatment of the indicator.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ParameterDomainError(f"finite-difference step must lie in [1e-7, 1e-3], got {h}")
    gen = np.random.default_rng(seed)
    max_rel = 0.0
    checked = skipped = 0
    steps = h * np.eye(m)
    for _ in range(trials):
        z = gen.normal(size=m)
        i = int(gen.integers(m))
        mask = None
        if cfg.mask_enhanced:
            mask = (softmax(z) < cfg.eps / m)[None, :]
        _, dZ = token_losses_and_grads(rule, cfg, z[None, :], np.array([i]), mask_override=mask, losses=False)
        analytic = dZ[0]
        # row k of block j is z + c_j h e_k for c = (1, -1, 2, -2), all 4m scored in one call
        shifted = np.concatenate([z + steps, z - steps, z + 2.0 * steps, z - 2.0 * steps])
        masks = None if mask is None else np.broadcast_to(mask, shifted.shape)
        losses, _ = token_losses_and_grads(rule, cfg, shifted, np.full(4 * m, i), mask_override=masks)
        fp, fm, fp2, fm2 = losses.reshape(4, m)
        fd = (8.0 * (fp - fm) - (fp2 - fm2)) / (12.0 * h)
        keep = np.abs(analytic) > 1e-8
        skipped += m - int(keep.sum())
        checked += int(keep.sum())
        if keep.any():
            max_rel = max(max_rel, float((np.abs(fd - analytic) / np.abs(analytic))[keep].max()))
    return {
        "rule": rule.kind,
        "alpha": rule.alpha,
        "eps": cfg.eps,
        "mask_enhanced": cfg.mask_enhanced,
        "m": m,
        "trials": trials,
        "h": h,
        "max_rel_error": float(max_rel),
        "checked": checked,
        "skipped": skipped,
    }


def entmax_sweep(alphas, trials: int, m: int = 16, seed: int = 0, scale: float = 2.0) -> dict:
    """Entmax-loss vs alpha-power-loss equivalence over random logits.

    Gaps are asserted (< 1e-8) only when the gold label keeps positive
    probability; out-of-support cases are counted and their gaps recorded
    without any claim."""
    gen = np.random.default_rng(seed)
    per_alpha = []
    for alpha in alphas:
        if alpha <= 1:
            raise ParameterDomainError(f"alphas must exceed 1, got {alpha}")
        in_gaps, out_gaps = [], []
        for _ in range(trials):
            z = scale * gen.normal(size=m)
            x = int(gen.integers(m))
            gap, in_support = entmax_power_equivalence_gap(z, x, alpha)
            (in_gaps if in_support else out_gaps).append(gap)
        per_alpha.append(
            {
                "alpha": alpha,
                "in_support": len(in_gaps),
                "out_of_support": len(out_gaps),
                "max_in_support_gap": float(max(in_gaps)) if in_gaps else 0.0,
                "max_out_of_support_gap": float(max(out_gaps)) if out_gaps else 0.0,
                "pass": bool(all(g < 1e-8 for g in in_gaps)),
            }
        )
    return {
        "m": m,
        "trials": trials,
        "alphas": list(alphas),
        "results": per_alpha,
        "pass": bool(all(r["pass"] for r in per_alpha)),
    }


# every proper rule of the table, the two parametric families at alpha 1.5 and 2.5
PROPER_RULES = [ScoreRule(kind, alpha) for kind, record in RULES.items() if record.proper
                for alpha in ((1.5, 2.5) if record.alpha is None else (record.alpha,))]
Q_SET_3 = [np.array([1.0, 0.0, 0.0]), np.full(3, 1.0 / 3.0), np.array([0.5, 0.3, 0.2])]


def _propriety_certificate() -> dict:
    """Every proper rule passes its scan; the improper linear control fails."""
    reports = [propriety_scan(rule, 3, 0.02, Q_SET_3) for rule in PROPER_RULES]
    control = propriety_scan(ScoreRule("linear"), 3, 0.02, [np.array([0.5, 0.3, 0.2])])
    return {
        "proper_rules": reports,
        "linear_control": control,
        "pass": bool(all(r["pass"] for r in reports) and not control["pass"]),
    }


def _smoothing_certificate() -> dict:
    reports = [smoothing_propriety_scan(ScoreRule(kind), 0.1, 3, 0.02, Q_SET_3) for kind in ("brier", "spherical")]
    return {"rules": reports, "pass": bool(all(r["pass"] for r in reports))}


def _gradcheck_certificate() -> dict:
    """Every proper rule and the linear one, unsmoothed and at eps 0.1, at
    m = 2, 8, 32: 100 trials each, one seed per config."""
    combos = [(rule, eps, m) for rule in PROPER_RULES + [ScoreRule("linear")]
              for eps in (0.0, 0.1) for m in (2, 8, 32)]
    reports = [grad_check(rule, SmoothingConfig(eps), m, 100, 1e-4, seed=1000 + idx)
               for idx, (rule, eps, m) in enumerate(combos)]
    worst = max(r["max_rel_error"] for r in reports)
    return {"checks": reports, "max_rel_error": worst, "pass": bool(worst < 1e-4)}


# The entries reach the checks through this module's globals when called, so
# a check rebound on the module (a tracer, a test) is the one that runs.
CERTIFICATES = {
    "table1": lambda: table1_check(),
    "propriety": _propriety_certificate,
    "smoothing": _smoothing_certificate,
    "gradcheck": _gradcheck_certificate,
    "entmax": lambda: entmax_sweep([1.5, 2.0, 2.5], 200, m=16),
}
