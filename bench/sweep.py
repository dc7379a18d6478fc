"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/sweep.py [--workloads a,b] [--seeds 1-10] [--out BENCH_x.json]
        [--baseline bench/BENCH_seed.json]

Each run is `bench/run.py --workload W --seed S --seconds <run_seconds from
BENCHMARK.json> --trace 0` in its own process, one at a time; then one
`--trace 1` run per workload on the first seed.  For every metric it prints
the median, the quartiles and the spread (q3 - q1) / median, as
`statistics.quantiles(values, n=4)` gives them.  `--out` writes the runs,
digests and summaries as JSON; `--baseline` compares medians and digests
with such a file (digests only where the seed is in both).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_work", workload, "result.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    return summary, record


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = None
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)["workloads"]

    result = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            summary, record = one_run(workload, seed, bench["run_seconds"], 0)
            runs.append({"seed": seed, "correct": summary["correct"], "attempted": summary["attempted"],
                         "failed": record["failed"], "metrics": record["metrics"], "digests": record["digests"]})
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in record["metrics"].items())
                  + f"  failed={record['failed']}", flush=True)
        names = [k for k, v in runs[0]["metrics"].items() if isinstance(v, (int, float))]
        stats = {k: summarise([r["metrics"][k] for r in runs]) for k in names}
        _, traced = one_run(workload, seed_list(args.seeds)[0], bench["run_seconds"], 1)
        result["workloads"][workload] = {"env": traced["env"], "runs": runs, "summary": stats,
                                         "per_layer": traced["per_layer"]}
        print(f"== {workload}: metric median [q1, q3] spread (bound)")
        for k, st in stats.items():
            bound = f" (bound {bounds[k]}, third {bounds[k] / 3:.3f})" if k in bounds else ""
            print(f"  {k}: {st['median']:.6g} [{st['q1']:.6g}, {st['q3']:.6g}] spread {st['spread']:.4f}{bound}")
        if baseline and workload in baseline:
            _compare(workload, result["workloads"][workload], baseline[workload])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _compare(workload, new, old):
    print(f"== {workload} against baseline: metric baseline-median -> median (ratio)")
    for k, st in new["summary"].items():
        if k in old["summary"] and old["summary"][k]["median"]:
            base = old["summary"][k]["median"]
            print(f"  {k}: {base:.6g} -> {st['median']:.6g} ({st['median'] / base:.4f})")
    old_digests = {r["seed"]: r["digests"] for r in old["runs"]}
    same = [r["seed"] for r in new["runs"] if old_digests.get(r["seed"]) == r["digests"]]
    differ = [r["seed"] for r in new["runs"] if r["seed"] in old_digests and old_digests[r["seed"]] != r["digests"]]
    print(f"  output bytes identical on seeds {same}; different on seeds {differ}")


if __name__ == "__main__":
    main()
