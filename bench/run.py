"""scorelm benchmark: seeded workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload markov-corpus|paired-cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` beside this directory.  BLAS is pinned to one thread through
environment variables of this process before numpy loads.

A run starts passes of the workload, each after a fresh set-up, while fewer
than the workload's minimum were made or the next pass would still end
within ``--seconds`` seconds of passes, then sets up again until it has set
up the workload's number of times (``setup_s`` is the median).
``run_s`` is one pass rebuilt from the fastest time of each kind of
operation over all passes, training calls counted step by step (see
workloads.estimate).  The outputs of every pass are checked and hashed;
all passes must produce identical bytes.  With ``--trace 1`` it then sets
up and runs once more with spans recorded around the calls into each
scorelm module (see spans.py), checks that the traced pass produced the
same bytes, and reports per-layer metrics in place of end-to-end ones.

The report lines name every metric with its unit; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full record
(environment, shapes, digests, checks, all metrics) is written to
``.bench_work/<workload>/result.json``, and with ``--trace 1`` the spans to
``.bench_work/<workload>/trace.jsonl``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics every workload reports: (name, unit, better, bound).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
# End-to-end metrics of some workloads, printed in the report and kept in
# result.json: (name, unit, better, workloads).
WORKLOAD_METRICS = [
    ("train_tok_per_s", "tok/s", "higher", ("markov-corpus", "paired-cli")),
    ("calib_err", "prob", "lower", ("markov-corpus",)),
    ("eval_tok_per_s", "tok/s", "higher", ("paired-cli",)),
    ("generate_ms_p50", "ms", "lower", ("paired-cli",)),
    ("generate_ms_p90", "ms", "lower", ("paired-cli",)),
    ("fail_ratio", "ratio", "lower", ("markov-corpus", "paired-cli")),
]
# Per-layer metrics from the traced run: (name, unit, better, what it should move).
PER_LAYER = [
    ("data.synth_markov.self_s", "s", "lower", "setup_s on markov-corpus"),
    ("data.synth_markov.tok_per_s", "tok/s", "higher", "setup_s on markov-corpus"),
    ("data.make_batches.self_s", "s", "lower", "train_tok_per_s on markov-corpus"),
    ("data.make_batches.p50_ms", "ms", "lower", "train_tok_per_s on markov-corpus"),
    ("model.backward.calls", "count", "lower", "train_tok_per_s on markov-corpus"),
    ("model.backward.self_s", "s", "lower", "train_tok_per_s on markov-corpus (less on paired-cli)"),
    ("model.backward.p50_ms", "ms", "lower", "train_tok_per_s on markov-corpus (less on paired-cli)"),
    ("model.backward.pos_per_s", "pos/s", "higher", "train_tok_per_s on markov-corpus (less on paired-cli)"),
    ("data.make_seq_batches.self_s", "s", "lower", "train_tok_per_s on paired-cli"),
    ("model.backward.gflop", "GFLOP", "lower", "train_tok_per_s on paired-cli (computed from shapes)"),
    ("model.backward.gflop_per_s", "GFLOP/s", "higher", "train_tok_per_s on paired-cli (computed GFLOP)"),
    ("train.step.self_s", "s", "lower", "train_tok_per_s on markov-corpus and paired-cli"),
    ("train.adam_step.self_s", "s", "lower", "train_tok_per_s on markov-corpus and paired-cli"),
    ("train.adam_step.p50_ms", "ms", "lower", "train_tok_per_s on markov-corpus and paired-cli"),
    ("train.evaluate_scores.self_s", "s", "lower", "train_tok_per_s on markov-corpus and paired-cli"),
    ("train.evaluate_scores.pos_per_s", "pos/s", "higher", "train_tok_per_s on markov-corpus and paired-cli"),
    ("data.ingest.self_s", "s", "lower", "generate_ms_p50 and eval_tok_per_s on paired-cli"),
    ("checkpoint.load_checkpoint.calls", "count", "lower", "generate_ms_p50 and eval_tok_per_s on paired-cli"),
    ("checkpoint.load_checkpoint.self_s", "s", "lower", "generate_ms_p50 and eval_tok_per_s on paired-cli"),
    ("checkpoint.load_checkpoint.bytes", "B", "lower", "generate_ms_p50 and eval_tok_per_s on paired-cli"),
    ("checkpoint.load_checkpoint.mb_per_s", "MB/s", "higher", "generate_ms_p50 and eval_tok_per_s on paired-cli"),
    ("checkpoint.save_checkpoint.calls", "count", "lower", "train_tok_per_s on paired-cli"),
    ("checkpoint.save_checkpoint.self_s", "s", "lower", "train_tok_per_s on paired-cli"),
    ("checkpoint.save_checkpoint.bytes", "B", "lower", "train_tok_per_s on paired-cli"),
    ("checkpoint.save_checkpoint.mb_per_s", "MB/s", "higher", "train_tok_per_s on paired-cli"),
    ("decode.beam_search.calls", "count", "lower", "generate_ms_p90 on paired-cli"),
    ("decode.beam_search.self_s", "s", "lower", "generate_ms_p90 on paired-cli"),
    ("decode.beam_search.p50_ms", "ms", "lower", "generate_ms_p90 on paired-cli"),
    ("decode.beam_search.p90_ms", "ms", "lower", "generate_ms_p90 on paired-cli"),
    ("decode.beam_search.tok_per_s", "tok/s", "higher", "generate_ms_p90 on paired-cli"),
    ("verify.table1_check.self_s", "s", "lower", "run_s on paired-cli (verify commands)"),
    ("verify.propriety_scan.self_s", "s", "lower", "run_s on paired-cli (verify commands)"),
    ("verify.smoothing_propriety_scan.self_s", "s", "lower", "run_s on paired-cli (verify commands)"),
    ("verify.entmax_sweep.self_s", "s", "lower", "run_s on paired-cli (verify commands)"),
    ("verify.entmax_sweep.in_support_ratio", "ratio", "higher", "run_s on paired-cli (verify commands)"),
    ("cli.train.self_s", "s", "lower", "train_tok_per_s on paired-cli"),
    ("cli.finetune.self_s", "s", "lower", "train_tok_per_s on paired-cli"),
    ("cli.eval.self_s", "s", "lower", "eval_tok_per_s on paired-cli"),
    ("cli.generate.self_s", "s", "lower", "generate_ms_p50 on paired-cli"),
    ("trace.coverage", "ratio", "higher", "share of the traced pass inside layer spans"),
    ("trace.overhead_pct", "%", "lower", "traced against untraced run_s"),
]
# Per-layer names that aggregate several spans.
SPAN_GROUPS = {
    "data.ingest": ("data.load_pairs", "data.build_vocab", "data.encode_pair"),
    "train.step": ("train.train", "train.finetune"),  # the training loop outside traced calls
}
# Per-layer stats computed from span counts: count / span time, count
# totals, and count / (count + other count).
RATES = {"tok_per_s": ("tokens", 1.0), "pos_per_s": ("positions", 1.0), "gflop_per_s": ("flop", 1e-9),
         "mb_per_s": ("bytes", 1e-6)}
TOTALS = {"gflop": ("flop", 1e-9), "bytes": ("bytes", 1.0)}
RATIOS = {"in_support_ratio": ("in_support", "out_of_support")}


def prepare():
    """Pin BLAS to one thread and put the checkout's src/ first on the path;
    exit when this is not a source checkout."""
    for var in BLAS_ENV:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "scorelm", "__init__.py")):
        sys.exit(f"error: no scorelm sources at {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import scorelm

    if os.path.dirname(os.path.abspath(scorelm.__file__)) != os.path.join(SRC, "scorelm"):
        sys.exit(f"error: scorelm imported from {scorelm.__file__}, not from {SRC}")


def environment(seed, workload):
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "workload": workload.name,
        "shapes": workload.describe(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinned env value."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def digests(out):
    """SHA-256 of every checkpoint, metrics file and output stream of a pass."""
    result = {}
    for name, path in out.get("files", {}).items():
        with open(path, "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    for name, blob in out.get("streams", {}).items():
        result[name] = hashlib.sha256(blob).hexdigest()
    return result


def fresh_dir(*parts):
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measure(workload, seed, seconds, workdir, setups):
    """Untraced: passes, each after a fresh set-up, while fewer than the
    workload's minimum were made or the next one, as long as the last, would
    end within `seconds` of passes; then more set-ups until there are
    `setups`.  Set-ups spread over the run give a median that does not rest
    on one moment of a shared machine.  Also
    returns the peak RSS after the first pass, before the record of later
    passes grows with their number."""
    setup_times, outs, pass_times = [], [], []

    def set_up():
        t0 = time.perf_counter()
        state = workload.setup(seed, fresh_dir(workdir, "setup"))
        setup_times.append(time.perf_counter() - t0)
        return state

    while len(outs) < workload.shape.min_passes or sum(pass_times) + pass_times[-1] <= seconds:
        state = set_up()
        outdir = fresh_dir(workdir, f"pass-{len(outs)}")
        t0 = time.perf_counter()
        out = workload.run(state, outdir)
        pass_times.append(time.perf_counter() - t0)
        # later passes keep only their timings and digests: memory must not grow with the pass count
        outs.append({"ops": out["ops"], "digests": digests(out)} if outs else out)
        if len(outs) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_times) < setups:
        state = set_up()
    return state, outs, setup_times, pass_times, peak_rss_mb


def traced(workload, seed, workdir):
    """One traced set-up and pass; returns (out, tracer, pass span offset, pass seconds)."""
    import spans
    import workloads

    tracer = spans.Tracer()
    with spans.instrument(tracer, workloads.traced_targets()):
        state = workload.setup(seed, fresh_dir(workdir, "traced-setup"))
        offset = len(tracer.spans)
        outdir = fresh_dir(workdir, "traced-pass")
        t0 = time.perf_counter()
        out = workload.run(state, outdir)
        pass_s = time.perf_counter() - t0
    return out, tracer, offset, pass_s


def layer_metrics(tracer, offset, pass_s, untraced_pass_s):
    """Per-layer metrics: set-up spans count towards the set-up layers only
    (synth_markov), everything else comes from the traced pass."""
    import numpy as np
    import spans

    setup_stats, _ = spans.span_stats(tracer.spans[:offset])
    stats, root_s = spans.span_stats(tracer.spans, offset)
    for name, st in setup_stats.items():
        stats.setdefault(name, st)
    values = {}
    for name, _, _, _ in PER_LAYER:
        key, stat = name.rsplit(".", 1)
        if key == "trace":
            values[name] = root_s / pass_s if stat == "coverage" else 100.0 * (pass_s / untraced_pass_s - 1.0)
            continue
        group = [stats[k] for k in SPAN_GROUPS.get(key, (key,)) if k in stats]
        durations = [d for st in group for d in st["durations"]]
        total = sum(durations)
        counts = {}
        for st in group:
            for k, v in st["counts"].items():
                counts[k] = counts.get(k, 0) + v
        if stat == "calls":
            values[name] = len(durations)
        elif stat == "self_s":
            values[name] = float(sum(st["self_s"] for st in group))
        elif stat in ("p50_ms", "p90_ms"):
            values[name] = float(np.percentile(durations, int(stat[1:3]))) * 1e3 if durations else 0.0
        elif stat in RATES:
            count, scale = RATES[stat]
            values[name] = scale * counts.get(count, 0) / total if total else 0.0
        elif stat in TOTALS:
            count, scale = TOTALS[stat]
            values[name] = scale * counts.get(count, 0)
        else:
            count, other = RATIOS[stat]
            seen = counts.get(count, 0) + counts.get(other, 0)
            values[name] = counts.get(count, 0) / seen if seen else 0.0
    return values


def run(name, seed, seconds, trace, shape=None):
    """One benchmark run; returns the full result record."""
    import workloads

    cls = workloads.WORKLOADS[name]
    workload = cls(shape) if shape is not None else cls()
    workdir = fresh_dir(name)
    # set-up time is reported by untraced runs only
    setups = 1 if trace else workload.shape.setups
    state, outs, setup_times, pass_times, peak_rss_mb = measure(workload, seed, seconds, name, setups)

    checks = workload.checks(state, outs[0])
    reference = digests(outs[0])
    checks += [(f"determinism:pass-{i}", o["digests"] == reference) for i, o in enumerate(outs[1:], 1)]
    metrics = {"setup_s": statistics.median(setup_times), "run_s": workloads.estimate(outs),
               "peak_rss_mb": peak_rss_mb}
    metrics.update(workload.metrics(state, outs))

    layer = None
    if trace:
        traced_out, tracer, offset, traced_s = traced(workload, seed, name)
        checks.append(("trace-replica", digests(traced_out) == reference))
        layer = layer_metrics(tracer, offset, traced_s, statistics.median(pass_times))
        tracer.write_jsonl(os.path.join(workdir, "trace.jsonl"))

    failed = [check for check, ok in checks if not ok]
    metrics["fail_ratio"] = len(failed) / len(checks)
    record = {
        "env": environment(seed, workload),
        "setup_times": setup_times,
        "pass_times": pass_times,
        "op_quantiles": workloads.op_quantiles(outs),
        "digests": reference,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
        "per_layer": layer,
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def report(record, trace):
    """Human-readable lines, then the one-line JSON result."""
    env = record["env"]
    print(f"workload {env['workload']}  seed {env['seed']}  (closed loop, 1 caller)")
    print("env " + json.dumps({k: v for k, v in env.items() if k not in ("shapes", "workload", "seed")}))
    print("shapes " + json.dumps(env["shapes"]))
    m = record["metrics"]
    print(f"setup x{len(record['setup_times'])} (median reported), passes x{len(record['pass_times'])}")
    for name, unit, _, _ in END_TO_END:
        print(f"  {name} = {m[name]:.6g} {unit}")
    for name, unit, _, applies in WORKLOAD_METRICS:
        if env["workload"] in applies:
            extra = f"  ({m['generate_samples']} samples)" if name.startswith("generate_ms") else ""
            print(f"  {name} = {m[name]:.6g} {unit}{extra}")
    for name, digest in sorted(record["digests"].items()):
        print(f"  sha256 {digest}  {name}")
    print(f"checks: {record['attempted']} attempted, {len(record['failed'])} failed "
          f"{record['failed'] if record['failed'] else ''}")
    if trace:
        print("per-layer (traced run)  -> the end-to-end metric it should move")
        for name, unit, _, moves in PER_LAYER:
            print(f"  {name} = {record['per_layer'][name]:.6g} {unit}  -> {moves}")
    table = PER_LAYER if trace else END_TO_END
    values = record["per_layer"] if trace else m
    print(json.dumps({
        "correct": not record["failed"],
        "attempted": record["attempted"],
        "failed": len(record["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in table},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["markov-corpus", "paired-cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    prepare()
    record = run(args.workload, args.seed, args.seconds, args.trace)
    report(record, args.trace)


if __name__ == "__main__":
    main()
