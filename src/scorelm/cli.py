"""Command-line surface: train / finetune / generate / eval / verify / synth.

A single JSON config document drives training; command-line flags override
config keys.  Exit codes: 0 success, 1 validation or runtime failure,
2 usage error, 3 verification FAIL.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import verify as verify_mod
from .checkpoint import load_checkpoint
from .data import MarkovSpec, Vocab, build_vocab, decode as decode_text, encode, encode_pairs, load_pairs, synth_markov
from .decode import BeamConfig, beam_search, greedy
from .errors import ConfigurationError, InvalidInputError
from .model import ModelConfig, N_RESERVED
from .scores import RULES, ScoreRule, SmoothingConfig
from .train import TrainConfig, evaluate_scores, finetune, heldout_positions, train


def _jsonable(obj):
    """Make report structures strict-JSON safe (notably +-inf)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


_REQUIRED = object()  # the default of a key that must be given
_JSON_TYPES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string", list: "an array"}


def _fields(section, where: str, **spec) -> dict:
    """section with defaults filled in; spec maps each key to (type, default).
    A key that is not in spec, a missing required key, and a value that is not
    of the key's JSON type are errors: float keys take any number, int keys no
    boolean, object keys anything (a section checked on its own), and null is
    taken only where the default is None.  NaN and +-Infinity, which json.load
    accepts, are refused anywhere in a value."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    unknown = [key for key in section if key not in spec]
    if unknown:
        raise ConfigurationError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
    out = {}
    for key, (kind, default) in spec.items():
        if key not in section:
            if default is _REQUIRED:
                raise ConfigurationError(f"missing {where} key {key!r}")
            out[key] = default
            continue
        value = section[key]
        types = (int, float) if kind is float else (kind,)
        if kind is not object and type(value) not in types and not (value is None and default is None):
            null = " or null" if default is None else ""
            raise ConfigurationError(f"{where} key {key!r} must be {_JSON_TYPES[kind]}{null}, got {value!r}")
        if kind in (float, list) and not np.isfinite(np.asarray(value, dtype=np.float64)).all():
            raise ConfigurationError(f"{where} key {key!r} must be finite, got {value!r}")
        out[key] = value
    return out


def _load_config(args) -> dict:
    """The config document, its data path overridden by --data."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {args.config}: {exc}") from None
    config = _fields(config, "top-level config", data=(str, None), model=(object, None), train=(object, {}))
    if args.data is not None:
        config["data"] = args.data
    if config["data"] is None:
        raise ConfigurationError("no data file: set the config 'data' key or pass --data")
    return config


def _train_config(section, args) -> TrainConfig:
    s = _fields(section, "train config", rule=(str, "logarithmic"), alpha=(float, 2.0), eps=(float, 0.0),
                mask_enhanced=(bool, False), steps=(int, 2000), batch_size=(int, 64),
                learning_rate=(float, 1e-3), warmup_steps=(int, 100), eval_every=(int, 100), seed=(int, 0))
    for key in ("rule", "alpha", "eps", "steps", "batch_size", "learning_rate", "seed"):
        if getattr(args, key) is not None:
            s[key] = getattr(args, key)
    return TrainConfig(
        rule=ScoreRule(s["rule"], float(s["alpha"])),
        smoothing=SmoothingConfig(float(s["eps"]), s["mask_enhanced"]),
        steps=s["steps"],
        batch_size=s["batch_size"],
        learning_rate=float(s["learning_rate"]),
        warmup_steps=s["warmup_steps"],
        eval_every=s["eval_every"],
        seed=s["seed"],
    )


def _encode_corpus(vocab: Vocab, text: str) -> np.ndarray:
    return encode(vocab, text).tokens


def _read_data(path):
    """Text corpus or JSON-lines pairs -> (vocab, the text or the (source,
    target) records, the encoder that turns them into training data)."""
    if str(path).endswith(".jsonl"):
        pairs = load_pairs(path)
        if not pairs:
            raise InvalidInputError(f"no records in {path}")
        return build_vocab("".join(s + t for s, t in pairs)), pairs, encode_pairs
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return build_vocab(text), text, _encode_corpus


def _load_data(path):
    """Text corpus or JSON-lines pairs -> (vocab, training data)."""
    vocab, raw, encoder = _read_data(path)
    return vocab, encoder(vocab, raw)


def _model_config(section, vocab: Vocab) -> ModelConfig:
    s = _fields(section, "model config", vocab_size=(int, None), context=(int, 4), embed_dim=(int, 16),
                hidden_dim=(int, 32), seed=(int, 0))
    if s["vocab_size"] is not None and s["vocab_size"] != vocab.size:
        raise ConfigurationError(f"config vocab_size {s['vocab_size']} != data vocabulary size {vocab.size}")
    return ModelConfig(vocab_size=vocab.size, context=s["context"], embed_dim=s["embed_dim"],
                       hidden_dim=s["hidden_dim"], seed=s["seed"])


def _check_vocab(vocab: Vocab, ckpt) -> None:
    if vocab.size != ckpt.model.vocab_size:
        raise ConfigurationError(f"data vocabulary size {vocab.size} != checkpoint vocab_size {ckpt.model.vocab_size}")


def _cmd_train(args) -> int:
    config = _load_config(args)
    cfg = _train_config(config["train"], args)
    vocab, data = _load_data(config["data"])
    model_cfg = _model_config({} if config["model"] is None else config["model"], vocab)
    ckpt, records = train(cfg, model_cfg, data,
                          metrics_path=args.metrics, checkpoint_path=args.out)
    last = records[-1]
    print(f"trained {cfg.steps} steps with {cfg.rule.kind}: "
          f"loss={last.loss:.6f} ppl={last.ppl:.4f} -> {args.out}")
    return 0


def _cmd_finetune(args) -> int:
    config = _load_config(args)
    cfg = _train_config(config["train"], args)
    base = load_checkpoint(args.base)
    vocab, data = _load_data(config["data"])
    _check_vocab(vocab, base)
    model_cfg = None if config["model"] is None else _model_config(config["model"], vocab)
    ckpt, records = finetune(base, cfg, data, model_cfg, metrics_path=args.metrics, checkpoint_path=args.out)
    tail = f"ppl={records[-1].ppl:.4f}" if records else "no steps"
    print(f"fine-tuned {cfg.steps} steps with {cfg.rule.kind}: {tail} -> {args.out}")
    return 0


def _cmd_generate(args) -> int:
    if args.beam is None:
        for flag, value in (("--objective", args.objective), ("--length-penalty", args.length_penalty)):
            if value is not None:
                print(f"error: {flag} applies only with --beam", file=sys.stderr)
                return 2
    ckpt = load_checkpoint(args.ckpt)
    vocab, _, _ = _read_data(args.data)  # only the vocabulary is needed: nothing is encoded
    _check_vocab(vocab, ckpt)
    prompt = encode(vocab, args.prompt).tokens if args.prompt else np.zeros(0, dtype=np.int64)
    if args.beam is None:
        hyp = greedy(ckpt.params, prompt, args.max_len)
    else:
        objective = ScoreRule(args.objective) if args.objective else ckpt.rule
        cfg = BeamConfig(beam_size=args.beam, max_len=args.max_len,
                         length_penalty=args.length_penalty or 0.0, objective=objective)
        hyp = beam_search(ckpt.params, prompt, cfg)[0]
    print(decode_text(vocab, hyp.tokens))
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    vocab, data = _load_data(args.data)
    _check_vocab(vocab, ckpt)
    contexts, targets = heldout_positions(data, ckpt.model.context)
    scores = evaluate_scores(ckpt.params, contexts, targets)
    out = {
        "positions": int(targets.size),
        "score_log": scores["log"],
        "score_brier": scores["brier"],
        "score_spherical": scores["spherical"],
        "ppl": float(np.exp(-scores["log"])),
    }
    print(json.dumps(_jsonable(out)))
    return 0


# every proper rule of the table, the two parametric families at alpha 1.5 and 2.5
_PROPRIETY_RULES = [ScoreRule(kind, alpha) for kind, record in RULES.items() if record.proper
                    for alpha in ((1.5, 2.5) if record.alpha is None else (record.alpha,))]
_Q_SET_3 = [np.array([1.0, 0.0, 0.0]), np.full(3, 1.0 / 3.0), np.array([0.5, 0.3, 0.2])]


def _cmd_verify(args) -> int:
    check = args.check
    if check == "table1":
        report = verify_mod.table1_check()
    elif check == "propriety":
        reports = [verify_mod.propriety_scan(rule, 3, 0.02, _Q_SET_3) for rule in _PROPRIETY_RULES]
        control = verify_mod.propriety_scan(ScoreRule("linear"), 3, 0.02, [np.array([0.5, 0.3, 0.2])])
        report = {
            "proper_rules": reports,
            "linear_control": control,
            "pass": bool(all(r["pass"] for r in reports) and not control["pass"]),
        }
    elif check == "smoothing":
        reports = [
            verify_mod.smoothing_propriety_scan(ScoreRule(kind), 0.1, 3, 0.02, _Q_SET_3)
            for kind in ("brier", "spherical")
        ]
        report = {"rules": reports, "pass": bool(all(r["pass"] for r in reports))}
    elif check == "gradcheck":
        reports = []
        combos = [(rule, eps, m) for rule in _PROPRIETY_RULES + [ScoreRule("linear")]
                  for eps in (0.0, 0.1) for m in (2, 8, 32)]
        for idx, (rule, eps, m) in enumerate(combos):
            reports.append(verify_mod.grad_check(rule, SmoothingConfig(eps), m, 100, 1e-4, seed=1000 + idx))
        worst = max(r["max_rel_error"] for r in reports)
        report = {"checks": reports, "max_rel_error": worst, "pass": bool(worst < 1e-4)}
    else:  # entmax
        report = verify_mod.entmax_sweep([1.5, 2.0, 2.5], 200, m=16)
    print(json.dumps(_jsonable(report), indent=2))
    return 0 if report["pass"] else 3


def _cmd_synth(args) -> int:
    if args.spec is not None:
        with open(args.spec, encoding="utf-8") as fh:
            doc = _fields(json.load(fh), "spec", states=(int, _REQUIRED), transition=(list, _REQUIRED),
                          initial=(list, _REQUIRED), seed=(int, args.seed))
        spec = MarkovSpec(
            states=doc["states"],
            transition=np.asarray(doc["transition"], dtype=np.float64),
            initial=np.asarray(doc["initial"], dtype=np.float64),
            seed=doc["seed"],
        )
    else:
        if args.states < 2:
            raise ConfigurationError(f"--states must be >= 2, got {args.states}")
        gen = np.random.default_rng(args.seed)
        T = gen.dirichlet(np.ones(args.states), size=args.states)
        spec = MarkovSpec(states=args.states, transition=T,
                          initial=np.full(args.states, 1.0 / args.states), seed=args.seed)
    seq, truth = synth_markov(spec, args.length)
    symbols = [chr(ord("a") + s) for s in range(spec.states)]
    text = "".join(symbols[t - N_RESERVED] for t in seq.tokens)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    if args.truth:
        with open(args.truth, "w", encoding="utf-8") as fh:
            json.dump({"states": spec.states, "symbols": symbols, "transition": truth.tolist(),
                       "initial": spec.initial.tolist()}, fh, indent=2)
            fh.write("\n")
    print(f"wrote {args.length} symbols over {spec.states} states to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scorelm",
                                     description="language modeling with strictly proper scoring rules")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_train_flags(p):
        p.add_argument("--config", required=True)
        p.add_argument("--data", help="corpus .txt or paired .jsonl (overrides config)")
        p.add_argument("--out", default="checkpoint.json")
        p.add_argument("--metrics", default="metrics.jsonl")
        p.add_argument("--rule")
        p.add_argument("--alpha", type=float)
        p.add_argument("--eps", type=float)
        p.add_argument("--steps", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="train from scratch")
    add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("finetune", help="continue from a checkpoint")
    add_train_flags(p)
    p.add_argument("--base", required=True, help="base checkpoint path")
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("generate", aliases=["decode"], help="greedy or beam decoding")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="corpus used to rebuild the vocabulary")
    p.add_argument("--prompt", default="")
    search = p.add_mutually_exclusive_group()
    search.add_argument("--greedy", action="store_true", help="greedy decoding (the default)")
    search.add_argument("--beam", type=int, help="beam width")
    p.add_argument("--max-len", dest="max_len", type=int, default=32)
    p.add_argument("--length-penalty", dest="length_penalty", type=float, help="beam only; default 0")
    p.add_argument("--objective", choices=["logarithmic", "brier", "spherical"], help="beam only; default: ckpt rule")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("eval", help="held-out expected scores and perplexity")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="brute-force certificates")
    p.add_argument("check", choices=["table1", "propriety", "smoothing", "gradcheck", "entmax"])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("synth", help="emit a synthetic Markov corpus")
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--length", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spec", help="JSON file with states/transition/initial")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="also write the exact conditional table here")
    p.set_defaults(func=_cmd_synth)
    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
