"""The two benchmark workloads.

Each workload is a closed loop with one caller: the next call into scorelm
starts only when the previous one has returned.  A workload makes all of its
inputs from the workload seed in `setup`; `run` performs one pass of the
user-visible work, timing each operation, and returns what it produced;
`checks` and `metrics` look at the passes afterwards, outside the timed
region.

- markov-corpus: library `train()` in corpus mode on the 4-state acceptance
  chain.  The math is tiny, so per-window batch assembly and id validation
  dominate; the exact conditionals give a real accuracy check.
- paired-cli: `scorelm.cli.run_command` in-process on seeded source/target
  pairs (the target is the reversed source).  This is the paired/masked data
  path with a larger matmul share; every `generate` reloads the checkpoint
  and re-ingests the data.  The session ends with the `verify` certificates
  (table1, propriety, smoothing, entmax), which touch no data or training
  path.  `verify gradcheck` is left out: it takes longer than the rest of
  the session, and the library check behind it fails on some seeds at the
  CLI's step and bound (h = 1e-4, relative error < 1e-4).

Operations are timed one by one; a training call is split into its steps
by `step_clock`, and `estimate` rebuilds a pass from the fastest time of each
kind of operation.
"""

import contextlib
import importlib
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from scorelm.scores import NO_SMOOTHING, ScoreRule, SmoothingConfig

# by module path: the package re-exports functions named like some modules
# (scorelm.train, scorelm.decode), so attribute access would find those
checkpoint_mod, cli_mod, data_mod, decode_mod, model_mod, train_mod, verify_mod = (
    importlib.import_module(f"scorelm.{name}")
    for name in ("checkpoint", "cli", "data", "decode", "model", "train", "verify")
)

TRANSITION = np.array(
    [[0.70, 0.10, 0.10, 0.10],
     [0.10, 0.60, 0.15, 0.15],
     [0.20, 0.20, 0.50, 0.10],
     [0.25, 0.25, 0.25, 0.25]]
)
CALIB_BOUND = 0.02  # acceptance criterion 6
VERIFY_CHECKS = ("table1", "propriety", "smoothing", "entmax")  # exit code 0 only if the certificate passes

def derived_seeds(seed, n):
    """n independent seeds made from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def estimate(outs, prefix=""):
    """Time of one pass with interference filtered out: for each kind of
    operation (optionally only kinds starting with `prefix`), its fastest
    time over every repetition in the run, times how often one pass
    performs it.  Operations of one kind do about the same work: a corpus
    training step, one paired training step, a `generate` call, one
    certificate call.

    Other tenants of the machine slow stretches of a run down by up to 2x,
    for seconds to minutes at a time, and only ever slow an operation down;
    the fastest of many repetitions of a short operation is the steady
    estimate of what it costs."""
    return sum(n * q[0.0] for kind, (n, q) in op_quantiles(outs).items() if kind.startswith(prefix))


def op_quantiles(outs, levels=(0.0, 0.1, 0.25, 0.5)):
    """{kind: (count per pass, {level: quantile of its times})} over all passes."""
    times = {}
    for out in outs:
        for kind, dt in out["ops"]:
            times.setdefault(kind, []).append(dt)
    return {kind: (len(ts) / len(outs), dict(zip(levels, np.quantile(ts, levels).tolist())))
            for kind, ts in times.items()}


@contextlib.contextmanager
def step_clock():
    """Collect a time stamp each time train() draws a training batch, by
    rebinding the batch generators in scorelm.train (one perf_counter() per
    step; the originals are restored on exit)."""
    stamps = []

    def clocked(fn):
        def gen(*args, **kwargs):
            for item in fn(*args, **kwargs):
                stamps.append(time.perf_counter())
                yield item
        return gen

    originals = {name: getattr(train_mod, name) for name in ("make_batches", "make_seq_batches")}
    try:
        for name, fn in originals.items():
            setattr(train_mod, name, clocked(fn))
        yield stamps
    finally:
        for name, fn in originals.items():
            setattr(train_mod, name, fn)


def loop_ops(label, call_s, stamps, eval_every, numbered=False):
    """Split one training call of `call_s` seconds into operations: each step
    (from drawing its batch to drawing the next), the steps that also
    evaluate, and the rest of the call (set-up, the last step, saving).
    Steps are numbered when their batches differ in shape."""
    ops = [(f"{label}:{'eval-step' if step % eval_every == 0 else 'step'}{f'#{step}' if numbered else ''}", b - a)
           for step, (a, b) in enumerate(zip(stamps, stamps[1:]), 1)]
    ops.append((f"{label}:rest", call_s - (stamps[-1] - stamps[0])))
    return ops


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@dataclass(frozen=True)
class MarkovShape:
    tokens: int = 200_000
    steps: int = 1400
    batch: int = 512
    learning_rate: float = 0.005
    context: int = 1
    embed: int = 8
    hidden: int = 16
    eval_every: int = 100
    setups: int = 5
    min_passes: int = 1


class MarkovCorpus:
    name = "markov-corpus"
    RULES = [
        ("logarithmic", ScoreRule("logarithmic"), NO_SMOOTHING),
        ("spherical", ScoreRule("spherical"), NO_SMOOTHING),
        ("alpha_power-1.5", ScoreRule("alpha_power", 1.5), NO_SMOOTHING),
        ("brier-eps0.1-mask", ScoreRule("brier"), SmoothingConfig(0.1, mask_enhanced=True)),
    ]

    def __init__(self, shape=MarkovShape()):
        self.shape = shape

    def describe(self):
        s = self.shape
        return {**asdict(self.shape), "vocab": 6, "rules": [tag for tag, _, _ in self.RULES], "lr_decay": True}

    def setup(self, seed, workdir):
        corpus_seed, model_seed, batch_seed = derived_seeds(seed, 3)
        spec = data_mod.MarkovSpec(states=4, transition=TRANSITION, initial=np.full(4, 0.25), seed=corpus_seed)
        seq, truth = data_mod.synth_markov(spec, self.shape.tokens)
        return {"tokens": seq.tokens, "truth": truth, "model_seed": model_seed, "batch_seed": batch_seed}

    def run(self, state, outdir):
        s = self.shape
        model_cfg = model_mod.ModelConfig(vocab_size=6, context=s.context, embed_dim=s.embed,
                                          hidden_dim=s.hidden, seed=state["model_seed"])
        files, params, ops = {}, {}, []
        for tag, rule, smoothing in self.RULES:
            cfg = train_mod.TrainConfig(rule=rule, smoothing=smoothing, steps=s.steps, batch_size=s.batch,
                                        learning_rate=s.learning_rate, eval_every=s.eval_every,
                                        seed=state["batch_seed"], lr_decay=True)
            ckpt_path = os.path.join(outdir, f"{tag}.ckpt.json")
            metrics_path = os.path.join(outdir, f"{tag}.metrics.jsonl")
            with step_clock() as stamps:
                t0 = time.perf_counter()
                ckpt, _ = train_mod.train(cfg, model_cfg, state["tokens"],
                                          metrics_path=metrics_path, checkpoint_path=ckpt_path)
                call_s = time.perf_counter() - t0
            ops += loop_ops(f"train:{tag}", call_s, stamps, s.eval_every)
            files[f"{tag}.ckpt.json"] = ckpt_path
            files[f"{tag}.metrics.jsonl"] = metrics_path
            params[tag] = ckpt.params
        return {"files": files, "params": params, "ops": ops}

    def _positions(self, n_tokens):
        """Positions optimised per train() call: make_batches' epochs of
        ceil(n/B) windows over the training split, cycled."""
        s = self.shape
        split = int(round(n_tokens * (1.0 - train_mod.HELD_OUT_FRACTION)))
        n = split - s.context
        per_epoch = math.ceil(n / s.batch)
        return (s.steps // per_epoch) * n + (s.steps % per_epoch) * s.batch

    def calib_errors(self, state, out):
        errs = {}
        for tag, _, smoothing in self.RULES:
            target = state["truth"]
            if smoothing.eps:
                target = (1.0 - smoothing.eps) * target + smoothing.eps / 6
            errs[tag] = max(
                float(np.abs(model_mod.forward(out["params"][tag], [2 + s])[2:6] - target[s]).max())
                for s in range(4)
            )
        return errs

    def checks(self, state, out):
        return [(f"calib:{tag}", err < CALIB_BOUND) for tag, err in self.calib_errors(state, out).items()]

    def metrics(self, state, outs):
        positions = len(self.RULES) * self._positions(state["tokens"].size)
        return {
            "train_tok_per_s": positions / estimate(outs),
            "calib_err": max(self.calib_errors(state, outs[0]).values()),
        }


@dataclass(frozen=True)
class PairedShape:
    records: int = 4000
    symbols: int = 33
    min_len: int = 4
    max_len: int = 12
    context: int = 8
    embed: int = 32
    hidden: int = 128
    batch: int = 32
    learning_rate: float = 0.003
    train_steps: int = 300
    finetune_steps: int = 150
    eval_every: int = 100
    prompts: int = 35
    beam: int = 8
    gen_max_len: int = 32
    setups: int = 9
    min_passes: int = 3  # >= 100 generate calls, so >= 10 beyond p90


class PairedCli:
    name = "paired-cli"
    ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

    def __init__(self, shape=PairedShape()):
        self.shape = shape

    def describe(self):
        s = self.shape
        return {**asdict(self.shape), "vocab": self.shape.symbols + 2,
                "rules": ["logarithmic (train)", "brier eps=0.1 mask-enhanced (finetune)"], "verify": VERIFY_CHECKS}

    def setup(self, seed, workdir):
        s = self.shape
        gen = np.random.default_rng(derived_seeds(seed, 1)[0])
        alphabet = np.array(list(self.ALPHABET[: s.symbols]))
        records = []
        for _ in range(s.records):
            src = "".join(gen.choice(alphabet, int(gen.integers(s.min_len, s.max_len + 1))))
            records.append((src, src[::-1]))
        pairs_path = os.path.join(workdir, "pairs.jsonl")
        with open(pairs_path, "w", encoding="utf-8") as fh:
            for src, tgt in records:
                fh.write(json.dumps({"source": src, "target": tgt}) + "\n")
        model_seed, batch_seed = int(gen.integers(2**31)), int(gen.integers(2**31))
        model = {"context": s.context, "embed_dim": s.embed, "hidden_dim": s.hidden, "seed": model_seed}
        common = {"batch_size": s.batch, "learning_rate": s.learning_rate, "eval_every": s.eval_every,
                  "seed": batch_seed}
        configs = {
            "train": {"rule": "logarithmic", "steps": s.train_steps, **common},
            "finetune": {"rule": "brier", "eps": 0.1, "mask_enhanced": True, "steps": s.finetune_steps, **common},
        }
        paths = {}
        for name, section in configs.items():
            paths[name] = os.path.join(workdir, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump({"model": model, "train": section, "data": pairs_path}, fh)
        n_held = s.records // 10
        prompts = [src for src, _ in records[len(records) - n_held:]][: s.prompts]
        return {"records": records, "pairs": pairs_path, "configs": paths, "prompts": prompts,
                "batch_seed": batch_seed}

    def _cli(self, name, argv):
        """One CLI call: (exit code, its operations, stdout)."""
        buf = io.StringIO()
        with step_clock() as stamps, contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = cli_mod.run_command(argv)
            call_s = time.perf_counter() - t0
        # sequence batches differ in length, so each step is its own kind of operation
        ops = loop_ops(name, call_s, stamps, self.shape.eval_every, numbered=True) if stamps else [(name, call_s)]
        return rc, ops, buf.getvalue()

    def run(self, state, outdir):
        s = self.shape
        ck = os.path.join(outdir, "train.ckpt.json")
        ft = os.path.join(outdir, "finetune.ckpt.json")
        files = {"train.ckpt.json": ck, "train.metrics.jsonl": os.path.join(outdir, "train.metrics.jsonl"),
                 "finetune.ckpt.json": ft, "finetune.metrics.jsonl": os.path.join(outdir, "finetune.metrics.jsonl")}
        calls = [
            ("train", ["train", "--config", state["configs"]["train"], "--out", ck,
                       "--metrics", files["train.metrics.jsonl"]]),
            ("finetune", ["finetune", "--config", state["configs"]["finetune"], "--base", ck, "--out", ft,
                          "--metrics", files["finetune.metrics.jsonl"]]),
            ("eval", ["eval", "--ckpt", ft, "--data", state["pairs"]]),
        ]
        calls += [("generate", ["generate", "--ckpt", ft, "--data", state["pairs"], "--prompt", p,
                                "--beam", str(s.beam), "--max-len", str(s.gen_max_len)]) for p in state["prompts"]]
        calls += [(f"verify-{check}", ["verify", check]) for check in VERIFY_CHECKS]
        results = [(name, *self._cli(name, argv)) for name, argv in calls]
        decoded = [stdout for name, _, _, stdout in results if name == "generate"]
        eval_out = results[2][3]
        return {
            "files": files,
            "streams": {"eval.json": eval_out.encode(), "decoded.txt": "".join(decoded).encode(),
                        "verify.json": "".join(out for name, _, _, out in results if name.startswith("verify")).encode()},
            "exit_codes": [(name, rc) for name, rc, _, _ in results],
            "ops": [op for _, _, ops, _ in results for op in ops],
            "decoded": decoded,
        }

    def checks(self, state, out):
        checks = [(f"exit:{name}#{i}", rc == 0) for i, (name, rc) in enumerate(out["exit_codes"])]
        checks += [(f"decoded-nonempty#{i}", bool(text.strip())) for i, text in enumerate(out["decoded"])]
        for name in ("train.ckpt.json", "finetune.ckpt.json"):
            checks.append((f"roundtrip:{name}", _roundtrip_bitwise(out["files"][name])))
        return checks

    def _positions(self, state):
        """Positions optimised by train + finetune: make_seq_batches' epochs
        over the training split, as train() draws them."""
        s = self.shape
        records = state["records"]
        vocab = data_mod.build_vocab("".join(a + b for a, b in records))
        seqs = [data_mod.encode_pair(vocab, a, b) for a, b in records]
        train_part = seqs[: len(seqs) - len(seqs) // 10]
        total = 0
        for steps in (s.train_steps, s.finetune_steps):
            done, epoch = 0, 0
            while done < steps:
                for batch in data_mod.make_seq_batches(train_part, s.batch, state["batch_seed"] + epoch):
                    total += sum(int(seq.loss_mask.sum()) for seq in batch)
                    done += 1
                    if done == steps:
                        break
                epoch += 1
        return total

    def metrics(self, state, outs):
        gen_ms = [1000.0 * dt for o in outs for name, dt in o["ops"] if name == "generate"]
        return {
            "train_tok_per_s": self._positions(state) / (estimate(outs, "train:") + estimate(outs, "finetune:")),
            "eval_tok_per_s": json.loads(outs[0]["streams"]["eval.json"])["positions"] / estimate(outs, "eval"),
            "generate_ms_p50": float(np.percentile(gen_ms, 50)),
            "generate_ms_p90": float(np.percentile(gen_ms, 90)),
            "generate_samples": len(gen_ms),
        }


def _roundtrip_bitwise(path):
    """load(save(load(path))) has bitwise-equal params and identical bytes."""
    first = checkpoint_mod.load_checkpoint(path)
    again_path = path + ".again"
    checkpoint_mod.save_checkpoint(again_path, first)
    second = checkpoint_mod.load_checkpoint(again_path)
    same_params = all(a.tobytes() == b.tobytes() and a.shape == b.shape
                      for (_, a), (_, b) in zip(first.params.named(), second.params.named()))
    same_bytes = _read(path) == _read(again_path)
    os.remove(again_path)
    return same_params and same_bytes


WORKLOADS = {w.name: w for w in (MarkovCorpus, PairedCli)}


# Public functions traced in the traced run: (module, function, count fn).
# Counts are taken after the span closes, inside a `trace.count` span.
def _backward_counts(args, kwargs, result):
    params, batch = args[0], args[1]
    V, d = params.embed.shape
    Kd, h = params.w_hidden.shape
    positions = sum(int(seq.loss_mask.sum()) for seq in batch)
    # forward X@W_h and H@W_out, then dW_out, dH, dW_h, dX: 2 flops per MAC
    return {"positions": positions, "flop": positions * 6 * (Kd * h + h * V)}


TRACED = [
    (data_mod, "synth_markov", lambda a, k, r: {"tokens": int(a[1])}),
    (data_mod, "make_batches", None),
    (data_mod, "make_seq_batches", None),
    (data_mod, "load_pairs", None),
    (data_mod, "build_vocab", None),
    (data_mod, "encode_pair", None),
    (model_mod, "backward", _backward_counts),
    (train_mod, "train", None),
    (train_mod, "finetune", None),
    (train_mod, "adam_step", None),
    (train_mod, "evaluate_scores", lambda a, k, r: {"positions": int(a[2].size)}),
    (checkpoint_mod, "save_checkpoint", lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    (checkpoint_mod, "load_checkpoint", lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    (decode_mod, "beam_search", lambda a, k, r: {"tokens": len(r[0].tokens)}),
    (verify_mod, "table1_check", None),
    (verify_mod, "propriety_scan", None),
    (verify_mod, "smoothing_propriety_scan", None),
    (verify_mod, "entmax_sweep", lambda a, k, r: {
        "in_support": sum(x["in_support"] for x in r["results"]),
        "out_of_support": sum(x["out_of_support"] for x in r["results"])}),
    (cli_mod, "run_command", None),
]


def traced_targets():
    """(module, function, span name, count fn) for spans.instrument; CLI
    spans are named after the command."""
    out = []
    for module, fname, count in TRACED:
        layer = module.__name__.split(".")[-1]
        name = (lambda a, k: f"cli.{a[0][0]}") if fname == "run_command" else f"{layer}.{fname}"
        out.append((module, fname, name, count))
    return out
