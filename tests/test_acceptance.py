"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criteria 6 and 7 share one pretraining run via a module fixture.
"""

import json
import time

import numpy as np
import pytest

from scorelm.cli import run_command
from scorelm.data import MarkovSpec, synth_markov
from scorelm.decode import BeamConfig, beam_search, exhaustive_search
from scorelm.model import ModelConfig, forward, init_params
from scorelm.scores import ScoreRule
from scorelm.train import TrainConfig, finetune, train
from scorelm.verify import CERTIFICATES, PROPER_RULES, Q_SET_3, table1_check

RULE_SET = [
    ScoreRule("logarithmic"),
    ScoreRule("brier"),
    ScoreRule("spherical"),
    ScoreRule("alpha_power", 1.5),
    ScoreRule("alpha_power", 2.5),
    ScoreRule("pseudo_spherical", 1.5),
    ScoreRule("pseudo_spherical", 2.5),
]
Q_SET = [np.array([1.0, 0.0, 0.0]), np.full(3, 1 / 3), np.array([0.5, 0.3, 0.2])]

TRANSITION = np.array(
    [[0.70, 0.10, 0.10, 0.10],
     [0.10, 0.60, 0.15, 0.15],
     [0.20, 0.20, 0.50, 0.10],
     [0.25, 0.25, 0.25, 0.25]]
)
MODEL_CFG = ModelConfig(vocab_size=6, context=1, embed_dim=8, hidden_dim=16, seed=1)
STATE_IDS = np.arange(2, 6)


def report_line(num, name, ok, details):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} — {details}")


def train_config(kind, steps=2000, seed=7):
    return TrainConfig(rule=ScoreRule(kind), steps=steps, batch_size=512,
                       learning_rate=1e-3, eval_every=200, seed=seed, lr_decay=True)


def calibration_error(params):
    err = 0.0
    for s in range(4):
        p = forward(params, [STATE_IDS[s]])
        err = max(err, float(np.abs(p[STATE_IDS] - TRANSITION[s]).max()))
    return err


@pytest.fixture(scope="module")
def markov_corpus():
    spec = MarkovSpec(states=4, transition=TRANSITION, initial=np.full(4, 0.25), seed=5)
    seq, _ = synth_markov(spec, 200_000)
    return seq.tokens


@pytest.fixture(scope="module")
def calibration_runs(markov_corpus):
    runs = {}
    for kind in ("logarithmic", "brier", "spherical", "linear"):
        t0 = time.perf_counter()
        ckpt, _ = train(train_config(kind), MODEL_CFG, markov_corpus)
        runs[kind] = (ckpt, calibration_error(ckpt.params), time.perf_counter() - t0)
    return runs


def test_criterion_1_table1():
    t0 = time.perf_counter()
    report = table1_check()
    elapsed = time.perf_counter() - t0
    v = report["values"]
    finite = [
        (round(v["brier"]["p=q"], 4), 0.8020),
        (round(v["brier"]["p=q_eps"], 4), 0.8119),
        (round(v["spherical"]["p=q"], 4), 0.9010),
        (round(v["spherical"]["p=q_eps"], 4), 0.9011),
        (round(v["logarithmic"]["p=q_eps"], 4), -0.7778),
    ]
    ok = all(a == b for a, b in finite) and v["logarithmic"]["p=q"] == float("-inf") and elapsed < 1.0
    report_line(1, "Table 1 reproduction", ok,
                f"{[a for a, _ in finite]} + -inf in {elapsed:.3f}s")
    assert ok


def test_certificate_suite_pinned():
    # the rule list and q set below are the criteria's own, independent of verify
    assert PROPER_RULES == RULE_SET
    assert len(Q_SET_3) == len(Q_SET) and all(np.array_equal(a, b) for a, b in zip(Q_SET_3, Q_SET))


def test_criterion_2_propriety_certificates():
    t0 = time.perf_counter()
    report = CERTIFICATES["propriety"]()
    elapsed = time.perf_counter() - t0
    proper = {f"{r['rule']}({r['alpha']})": r["pass"] for r in report["proper_rules"]}
    control = report["linear_control"]
    ok = all(proper.values()) and not control["pass"] and report["pass"] and elapsed < 30.0
    report_line(2, "propriety certificates", ok,
                f"proper rules pass={all(proper.values())}, linear control fails={not control['pass']}, "
                f"{elapsed:.1f}s")
    assert all(proper.values()), proper
    assert not control["pass"]
    assert report["pass"]
    assert elapsed < 30.0


def test_criterion_3_smoothing_certificates():
    t0 = time.perf_counter()
    report = CERTIFICATES["smoothing"]()
    elapsed = time.perf_counter() - t0
    reports = {r["rule"]: r for r in report["rules"]}
    ok = sorted(reports) == ["brier", "spherical"] and all(r["pass"] for r in reports.values()) and elapsed < 30.0
    details = {k: [f"dom={res['dominance']} eq={res['equality_at_q_eps']}" for res in r["results"]]
               for k, r in reports.items()}
    report_line(3, "smoothing certificates", ok, f"{details} in {elapsed:.1f}s")
    assert ok and report["pass"]


def test_criterion_4_gradient_suite():
    t0 = time.perf_counter()
    report = CERTIFICATES["gradcheck"]()
    elapsed = time.perf_counter() - t0
    worst = max(r["max_rel_error"] for r in report["checks"])
    rules = {(r["rule"], r["alpha"]) for r in report["checks"]}
    covered = rules == {(r.kind, r.alpha) for r in RULE_SET + [ScoreRule("linear")]}
    ok = covered and len(report["checks"]) == len(rules) * 2 * 3 and worst < 1e-4 and elapsed < 60.0
    report_line(4, "gradient suite", ok, f"max rel error {worst:.2e} over "
                f"{len(RULE_SET) + 1} rules x eps x m x 100 seeds in {elapsed:.1f}s")
    assert ok and report["pass"]


def test_criterion_5_entmax_equivalence():
    report = CERTIFICATES["entmax"]()
    counts = {r["alpha"]: (r["in_support"], r["out_of_support"]) for r in report["results"]}
    gaps = {r["alpha"]: r["max_in_support_gap"] for r in report["results"]}
    ok = report["pass"] and all(c[0] > 0 for c in counts.values())
    report_line(5, "entmax/alpha-power equivalence", ok,
                f"max in-support gaps {gaps}, (in, out) counts {counts}")
    assert ok


def test_criterion_6_calibration(calibration_runs):
    errs = {k: v[1] for k, v in calibration_runs.items()}
    times = {k: round(v[2], 1) for k, v in calibration_runs.items()}
    proper_ok = all(errs[k] < 0.02 for k in ("logarithmic", "brier", "spherical"))
    linear_fails = errs["linear"] >= 0.02
    time_ok = all(t < 120.0 for t in times.values())
    ok = proper_ok and linear_fails and time_ok
    report_line(6, "system-level calibration", ok,
                f"max-norm errors {dict((k, round(e, 4)) for k, e in errs.items())}, "
                f"bound 0.02, runtimes {times}s")
    assert ok


def test_criterion_7_finetune_dynamics(calibration_runs, markov_corpus):
    base = calibration_runs["logarithmic"][0]
    t0 = time.perf_counter()
    _, brier_recs = finetune(base, train_config("brier", steps=500, seed=11), markov_corpus)
    _, log_recs = finetune(base, train_config("logarithmic", steps=500, seed=11), markov_corpus)
    elapsed = time.perf_counter() - t0
    brier_final = brier_recs[-1].rel_brier
    log_rels = [abs(r) for rec in log_recs for r in (rec.rel_log, rec.rel_brier, rec.rel_spherical)]
    ok = brier_final >= -0.01 and max(log_rels) <= 0.02 and elapsed < 120.0
    report_line(7, "fine-tune dynamics", ok,
                f"brier fine-tune rel_brier={brier_final:+.5f} (>= -0.01), "
                f"log fine-tune max |rel|={max(log_rels):.5f} (<= 0.02), {elapsed:.1f}s")
    assert ok


def test_criterion_8_decoding_oracles():
    t0 = time.perf_counter()
    objectives = [ScoreRule("logarithmic"), ScoreRule("brier"), ScoreRule("spherical")]

    oracle_ok = True
    cfg4 = ModelConfig(vocab_size=4, context=2, embed_dim=4, hidden_dim=6, seed=2)
    params4 = init_params(cfg4)
    for _, t in params4.named():
        t *= 5.0
    for rule in objectives:
        for lp in (0.0, 1.0):
            bc = BeamConfig(beam_size=4**4, max_len=4, length_penalty=lp, objective=rule)
            beam_best = beam_search(params4, np.array([2, 3]), bc)[0]
            ex_best = exhaustive_search(params4, np.array([2, 3]), bc)
            oracle_ok &= beam_best.tokens == ex_best.tokens
            oracle_ok &= abs(beam_best.raw_score - ex_best.raw_score) < 1e-12

    beam1_ok = True
    for seed in range(20):
        cfg6 = ModelConfig(vocab_size=6, context=2, embed_dim=4, hidden_dim=8, seed=seed)
        params6 = init_params(cfg6)
        for _, t in params6.named():
            t *= 6.0
        outs = {
            rule.kind: beam_search(params6, np.array([2]),
                                   BeamConfig(beam_size=1, max_len=8, objective=rule))[0].tokens
            for rule in objectives
        }
        beam1_ok &= len(set(outs.values())) == 1
    elapsed = time.perf_counter() - t0
    ok = oracle_ok and beam1_ok and elapsed < 60.0
    report_line(8, "decoding oracles", ok,
                f"full-width==exhaustive: {oracle_ok}, beam1 objective-invariant on 20 "
                f"checkpoints: {beam1_ok}, {elapsed:.1f}s")
    assert ok


def test_criterion_9_determinism(tmp_path):
    corpus = tmp_path / "corpus.txt"
    assert run_command(["synth", "--states", "4", "--length", "8000", "--seed", "5",
                        "--out", str(corpus)]) == 0
    config = {
        "model": {"context": 1, "embed_dim": 8, "hidden_dim": 16, "seed": 1},
        "train": {"rule": "brier", "steps": 200, "batch_size": 64, "eval_every": 100, "seed": 3},
        "data": str(corpus),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    blobs = []
    for tag in ("one", "two"):
        ck, mt = tmp_path / f"{tag}.json", tmp_path / f"{tag}.jsonl"
        assert run_command(["train", "--config", str(cfg_path),
                            "--out", str(ck), "--metrics", str(mt)]) == 0
        blobs.append((ck.read_bytes(), mt.read_bytes()))
    ok = blobs[0] == blobs[1]
    report_line(9, "train determinism", ok,
                f"checkpoints identical: {blobs[0][0] == blobs[1][0]}, "
                f"metrics identical: {blobs[0][1] == blobs[1][1]}")
    assert ok
