"""Command-line surface: train / finetune / generate / eval / verify / synth.

A single JSON config document drives training; command-line flags override
config keys.  Exit codes: 0 success, 1 validation or runtime failure,
2 usage error, 3 verification FAIL.
"""

import argparse
import functools
import json
import math
import re
import sys
from itertools import zip_longest

import numpy as np

from .checkpoint import load_checkpoint
from .data import (MarkovSpec, Vocab, build_vocab, decode as decode_text, encode, encode_pairs, load_pairs,
                   read_text, synth_markov)
from .decode import BeamConfig, beam_search, greedy
from .documents import REQUIRED, read_fields
from .errors import ConfigurationError, InvalidInputError
from .model import ModelConfig, N_RESERVED
from .scores import RULES, ScoreRule, SmoothingConfig
from .train import TrainConfig, evaluate_scores, finetune, split_data, train
from .verify import CERTIFICATES


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


def _load_config(args) -> dict:
    """The config document, its data path overridden by --data."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {args.config}: {exc}") from None
    config = read_fields(config, "top-level config", data=(str, None), model=(object, None), train=(object, {}))
    if args.data is not None:
        config["data"] = args.data
    if config["data"] is None:
        raise ConfigurationError("no data file: set the config 'data' key or pass --data")
    return config


def _train_config(section, args) -> TrainConfig:
    default = TrainConfig(rule=ScoreRule("logarithmic"))
    scalars = {key: (type(getattr(default, key)), getattr(default, key))
            for key in ("steps", "batch_size", "learning_rate", "warmup_steps", "eval_every", "seed")}
    s = read_fields(section, "train config", rule=(str, default.rule.kind), alpha=(float, default.rule.alpha),
                    eps=(float, default.smoothing.eps), mask_enhanced=(bool, default.smoothing.mask_enhanced),
                    **scalars)
    for key in ("rule", "alpha", "eps", "steps", "batch_size", "learning_rate", "seed"):
        if getattr(args, key) is not None:
            s[key] = getattr(args, key)
    return TrainConfig(
        rule=ScoreRule(s["rule"], float(s["alpha"])),
        smoothing=SmoothingConfig(float(s["eps"]), s["mask_enhanced"]),
        **{key: kind(s[key]) for key, (kind, _) in scalars.items()},
    )


def _read_data(path):
    """Text corpus or JSON-lines pairs -> (vocab, the text or the (source,
    target) records, the encoder that turns them into training data)."""
    if str(path).endswith(".jsonl"):
        pairs = load_pairs(path)
        if not pairs:
            raise InvalidInputError(f"no records in {path}")
        return build_vocab("".join(s + t for s, t in pairs)), pairs, encode_pairs
    text = read_text(path)
    return build_vocab(text), text, encode


def _load_data(path):
    """Text corpus or JSON-lines pairs -> (vocab, training data)."""
    vocab, raw, encoder = _read_data(path)
    return vocab, encoder(vocab, raw)


def _model_config(section, vocab: Vocab) -> ModelConfig:
    s = read_fields(section, "model config", vocab_size=(int, None), context=(int, 4), embed_dim=(int, 16),
                    hidden_dim=(int, 32), seed=(int, 0))
    if s["vocab_size"] is not None and s["vocab_size"] != vocab.size:
        raise ConfigurationError(f"config vocab_size {s['vocab_size']} != data vocabulary size {vocab.size}")
    return ModelConfig(vocab_size=vocab.size, context=s["context"], embed_dim=s["embed_dim"],
                       hidden_dim=s["hidden_dim"], seed=s["seed"])


def _check_vocab(vocab: Vocab, ckpt) -> None:
    """vocab, rebuilt from --data, must be the checkpoint's symbol table; a
    checkpoint without one (a library run with symbols=None) can only be size-checked."""
    if ckpt.symbols is None:
        if vocab.size != ckpt.model.vocab_size:
            raise ConfigurationError(f"data vocabulary size {vocab.size} != checkpoint vocab_size {ckpt.model.vocab_size}")
        return
    if vocab.symbols != ckpt.symbols:
        i, pair = next((i, pair) for i, pair in enumerate(zip_longest(vocab.symbols, ckpt.symbols)) if pair[0] != pair[1])
        ours, theirs = ("no symbol" if s is None else repr(s) for s in pair)
        raise ConfigurationError(f"data vocabulary differs from the checkpoint's symbol table at id {i}: "
                                 f"data has {ours}, checkpoint has {theirs}")


def _checkpoint_vocab(args, ckpt) -> Vocab:
    """The checkpoint's vocabulary: its symbol table, checked against --data when given."""
    if args.data is not None:
        vocab, _, _ = _read_data(args.data)  # only the vocabulary is needed: nothing is encoded
        _check_vocab(vocab, ckpt)
        return vocab
    if ckpt.symbols is None:
        raise ConfigurationError(f"checkpoint {args.ckpt} has no symbol table (a library run): "
                                 "pass --data to rebuild its vocabulary")
    return Vocab.from_symbols(ckpt.symbols)


def _cmd_train(args) -> int:
    config = _load_config(args)
    cfg = _train_config(config["train"], args)
    vocab, data = _load_data(config["data"])
    model_cfg = _model_config({} if config["model"] is None else config["model"], vocab)
    ckpt, records = train(cfg, model_cfg, data,
                          metrics_path=args.metrics, checkpoint_path=args.out, symbols=vocab.symbols)
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
    vocab = _checkpoint_vocab(args, ckpt)
    prompt = encode(vocab, args.prompt).tokens
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
    _, (contexts, targets) = split_data(data, ckpt.model.context)
    scores = evaluate_scores(ckpt.params, contexts, targets)
    print(json.dumps(_jsonable({"positions": int(targets.size), **scores})))
    return 0


def _cmd_verify(args) -> int:
    report = CERTIFICATES[args.check]()
    print(json.dumps(_jsonable(report), indent=2))
    return 0 if report["pass"] else 3


def _cmd_synth(args) -> int:
    if args.spec is not None:
        if args.states is not None:
            print("error: --states applies only without --spec (the spec's 'states' key sets it)", file=sys.stderr)
            return 2
        with open(args.spec, encoding="utf-8") as fh:
            doc = read_fields(json.load(fh), "spec", states=(int, REQUIRED), transition=(list, REQUIRED),
                              initial=(list, REQUIRED), seed=(int, 0))
        spec = MarkovSpec(
            states=doc["states"],
            transition=np.asarray(doc["transition"], dtype=np.float64),
            initial=np.asarray(doc["initial"], dtype=np.float64),
            seed=doc["seed"] if args.seed is None else args.seed,  # a flag overrides its key
        )
    else:
        states, seed = 4 if args.states is None else args.states, 0 if args.seed is None else args.seed
        if states < 2:
            raise ConfigurationError(f"--states must be >= 2, got {states}")
        T = np.random.default_rng(seed).dirichlet(np.ones(states), size=states)
        spec = MarkovSpec(states=states, transition=T, initial=np.full(states, 1.0 / states), seed=seed)
    seq, truth = synth_markov(spec, args.length)
    codes = np.arange(ord("a"), ord("a") + spec.states, dtype="<u4")  # state s is written as chr(ord("a") + s)
    symbols = [chr(c) for c in codes.tolist()]
    text = codes[seq.tokens - N_RESERVED].tobytes().decode("utf-32-le", "surrogatepass")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    if args.truth:
        with open(args.truth, "w", encoding="utf-8") as fh:
            json.dump({"states": spec.states, "symbols": symbols, "transition": truth.tolist(),
                       "initial": spec.initial.tolist()}, fh, indent=2)
            fh.write("\n")
    print(f"wrote {args.length} symbols over {spec.states} states to {args.out}")
    return 0


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number spelled with an
    exponent, inf or nan (-1e-3, -inf, -nan) as a value, not as a flag, so
    it reaches its field check: argparse's own pattern takes only the likes
    of -5 and -0.5, and with no flag spelled like a negative number that
    pattern is the one test it makes.  Subparsers are made of the parser's
    class, so they read values the same way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="scorelm",
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
    p.add_argument("--data", help="corpus to rebuild the vocabulary from; needed only for a checkpoint "
                                  "without a symbol table, checked against the table otherwise")
    p.add_argument("--prompt", default="")
    search = p.add_mutually_exclusive_group()
    search.add_argument("--greedy", action="store_true", help="greedy decoding (the default)")
    search.add_argument("--beam", type=int, help="beam width")
    p.add_argument("--max-len", dest="max_len", type=int, default=32)
    p.add_argument("--length-penalty", dest="length_penalty", type=float, help="beam only; default 0")
    p.add_argument("--objective", choices=[kind for kind, r in RULES.items() if r.proper and r.alpha is not None],
                   help="beam only; default: ckpt rule")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("eval", help="held-out expected scores and perplexity")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="brute-force certificates")
    p.add_argument("check", choices=list(CERTIFICATES))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("synth", help="emit a synthetic Markov corpus")
    p.add_argument("--states", type=int, help="default 4; not with --spec")
    p.add_argument("--length", type=int, default=10000)
    p.add_argument("--seed", type=int, help="default 0; overrides the --spec file's seed")
    p.add_argument("--spec", help="JSON file with states/transition/initial and an optional seed")
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
