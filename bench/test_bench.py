"""Tests of the benchmark itself: metric schema, a tiny smoke run of each
workload (traced, so the traced replica is compared with the untraced pass),
and refusal outside a source checkout.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.prepare()
import workloads  # noqa: E402

# Every metric the benchmark defines, with its unit.
EXPECTED_UNITS = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "train_tok_per_s": "tok/s", "calib_err": "prob",
    "eval_tok_per_s": "tok/s", "generate_ms_p50": "ms", "generate_ms_p90": "ms",
    "fail_ratio": "ratio",
    "data.synth_markov.self_s": "s", "data.synth_markov.tok_per_s": "tok/s",
    "data.make_batches.self_s": "s", "data.make_batches.p50_ms": "ms",
    "model.backward.calls": "count", "model.backward.self_s": "s", "model.backward.p50_ms": "ms",
    "model.backward.pos_per_s": "pos/s", "data.make_seq_batches.self_s": "s",
    "model.backward.gflop": "GFLOP", "model.backward.gflop_per_s": "GFLOP/s",
    "train.step.self_s": "s", "train.adam_step.self_s": "s", "train.adam_step.p50_ms": "ms",
    "train.evaluate_scores.self_s": "s", "train.evaluate_scores.pos_per_s": "pos/s",
    "data.ingest.self_s": "s",
    "checkpoint.load_checkpoint.calls": "count", "checkpoint.load_checkpoint.self_s": "s",
    "checkpoint.load_checkpoint.bytes": "B", "checkpoint.load_checkpoint.mb_per_s": "MB/s",
    "checkpoint.save_checkpoint.calls": "count", "checkpoint.save_checkpoint.self_s": "s",
    "checkpoint.save_checkpoint.bytes": "B", "checkpoint.save_checkpoint.mb_per_s": "MB/s",
    "decode.beam_search.calls": "count", "decode.beam_search.self_s": "s", "decode.beam_search.p50_ms": "ms",
    "decode.beam_search.p90_ms": "ms", "decode.beam_search.tok_per_s": "tok/s",
    "verify.table1_check.self_s": "s", "verify.propriety_scan.self_s": "s",
    "verify.smoothing_propriety_scan.self_s": "s", "verify.entmax_sweep.self_s": "s",
    "verify.entmax_sweep.in_support_ratio": "ratio",
    "cli.train.self_s": "s", "cli.finetune.self_s": "s", "cli.eval.self_s": "s", "cli.generate.self_s": "s",
    "trace.coverage": "ratio", "trace.overhead_pct": "%",
}

TINY = {
    "markov-corpus": workloads.MarkovShape(tokens=5000, steps=30, setups=2),
    "paired-cli": workloads.PairedShape(records=200, train_steps=10, finetune_steps=5, prompts=12, setups=2),
}


def _bench_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_metric_has_its_unit():
    defined = {name: unit for name, unit, *_ in run.END_TO_END + run.WORKLOAD_METRICS + run.PER_LAYER}
    assert defined == EXPECTED_UNITS


def test_benchmark_json_matches_the_metric_tables():
    bench = _bench_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in run.END_TO_END]
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _ in run.PER_LAYER]
    assert any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in bench["end_to_end"])
               for m in bench["end_to_end"])


def test_estimate_counts_the_fastest_repetition_of_each_kind():
    outs = [{"ops": [("a", 2.0), ("b", 1.0), ("b", 3.0)]}, {"ops": [("a", 1.5), ("b", 2.0), ("b", 0.5)]}]
    assert workloads.estimate(outs) == 1.5 + 2 * 0.5
    assert workloads.estimate(outs, "b") == 2 * 0.5


def test_loop_ops_split_a_training_call():
    ops = workloads.loop_ops("t", 10.0, [1.0, 2.0, 4.0, 5.0], eval_every=2)
    assert ops == [("t:step", 1.0), ("t:eval-step", 2.0), ("t:step", 1.0), ("t:rest", 6.0)]
    numbered = workloads.loop_ops("t", 10.0, [1.0, 2.0, 4.0], eval_every=2, numbered=True)
    assert [kind for kind, _ in numbered] == ["t:step#1", "t:eval-step#2", "t:rest"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run(name):
    record = run.run(name, 7, 0.0, 1, TINY[name])
    # byte identity across passes and against the traced replica
    assert not [f for f in record["failed"] if f.startswith(("determinism", "trace-replica"))]
    if name != "markov-corpus":  # a tiny corpus cannot meet the calibration bound
        assert record["failed"] == []
    assert record["digests"] and all(len(d) == 64 for d in record["digests"].values())
    applicable = [m for m, _, _, where in run.WORKLOAD_METRICS if name in where]
    assert set(record["metrics"]) >= {m for m, *_ in run.END_TO_END} | set(applicable)
    assert set(record["per_layer"]) == {m for m, *_ in run.PER_LAYER}
    assert record["per_layer"]["trace.coverage"] > 0.9

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(record, 1)
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] == record["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {n: u for n, u, *_ in run.PER_LAYER}


def test_tiny_runs_repeat_their_bytes():
    first = run.run("paired-cli", 3, 0.0, 0, TINY["paired-cli"])["digests"]
    again = run.run("paired-cli", 3, 0.0, 0, TINY["paired-cli"])["digests"]
    other = run.run("paired-cli", 4, 0.0, 0, TINY["paired-cli"])["digests"]
    assert first == again
    assert first != other


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "paired-cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
