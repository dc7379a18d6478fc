import ast
import base64
import functools
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scorelm
from scorelm.checkpoint import load_checkpoint, save_checkpoint
from scorelm.cli import _build_parser, _load_data, run_command
from scorelm.data import MarkovSpec, synth_markov
from scorelm.documents import ECHO_CHARS
from scorelm.model import ModelConfig, Parameters, param_shapes
from scorelm.scores import ScoreRule
from scorelm.train import SCORE_FIELDS, split_data
from test_data import choice_walk
from test_rule_table import ref_evaluate_scores, scored_once_logits


BASE_CONFIG = {
    "model": {"context": 1, "embed_dim": 8, "hidden_dim": 16, "seed": 1},
    "train": {"rule": "logarithmic", "steps": 200, "batch_size": 64,
              "learning_rate": 1e-3, "eval_every": 100, "seed": 3},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cliwork")
    assert run_command(["synth", "--states", "4", "--length", "8000", "--seed", "5",
                        "--out", str(d / "corpus.txt"), "--truth", str(d / "truth.json")]) == 0
    cfg = dict(BASE_CONFIG)
    cfg["data"] = str(d / "corpus.txt")
    (d / "config.json").write_text(json.dumps(cfg))
    return d


def sixty_pairs(path):
    """60 records of 2-7 letters from abcdef, each target its source reversed."""
    r = random.Random(1)
    sources = ["".join(r.choice("abcdef") for _ in range(r.randint(2, 7))) for _ in range(60)]
    path.write_text("".join(json.dumps({"source": s, "target": s[::-1]}) + "\n" for s in sources))
    return path


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        assert run_command(["train", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert run_command(["frobnicate"]) == 2
        capsys.readouterr()

    def test_program_exits_with_the_command_code(self, tmp_path):
        # main() hands run_command's code to sys.exit: run as a program
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}

        def program(*argv):
            return subprocess.run([sys.executable, "-m", "scorelm.cli", *argv], env=env, capture_output=True,
                                  text=True)

        assert program("verify", "table1").returncode == 0
        assert program("frobnicate").returncode == 2
        refused = program("synth", "--states", "1", "--out", str(tmp_path / "F.txt"))
        assert refused.returncode == 1 and "--states must be >= 2" in refused.stderr
        assert not (tmp_path / "F.txt").exists()


class TestVerifyCommands:
    def test_table1(self, capsys):
        assert run_command(["verify", "table1"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        vals = report["values"]
        assert vals["logarithmic"]["p=q"] == "-inf"
        assert round(vals["brier"]["p=q"], 4) == 0.8020
        assert round(vals["brier"]["p=q_eps"], 4) == 0.8119
        assert round(vals["spherical"]["p=q"], 4) == 0.9010
        assert round(vals["spherical"]["p=q_eps"], 4) == 0.9011
        assert round(vals["logarithmic"]["p=q_eps"], 4) == -0.7778

    def test_entmax(self, capsys):
        assert run_command(["verify", "entmax"]) == 0
        capsys.readouterr()

    def test_unconverged_entmax_exits_1(self, capsys, monkeypatch):
        import scorelm.simplex as simplex_mod

        monkeypatch.setattr(simplex_mod, "ENTMAX_BISECT_TOL", -1.0)
        assert run_command(["verify", "entmax"]) == 1
        assert "entmax bisection did not converge" in capsys.readouterr().err

    def test_verification_failure_exits_3(self, capsys, monkeypatch):
        import scorelm.verify as verify_mod

        wrong = dict(verify_mod.TABLE1_EXPECTED)
        wrong["brier"] = (0.9999, 0.8119)
        monkeypatch.setattr(verify_mod, "TABLE1_EXPECTED", wrong)
        assert run_command(["verify", "table1"]) == 3
        capsys.readouterr()


class TestSynth:
    def test_corpus_and_truth(self, workdir):
        text = (workdir / "corpus.txt").read_text()
        assert len(text) == 8000 and set(text) <= set("abcd")
        truth = json.loads((workdir / "truth.json").read_text())
        rows = np.asarray(truth["transition"])
        assert rows.shape == (4, 4)
        assert np.allclose(rows.sum(axis=1), 1.0)


    @pytest.mark.parametrize("states", [2, 30, 300])
    def test_corpus_spells_the_library_path(self, tmp_path, capsys, states):
        # state s is written as the character chr(ord("a") + s), the truth file's symbols[s]
        assert run_command(["synth", "--states", str(states), "--length", "3000", "--seed", "8",
                            "--out", str(tmp_path / "c.txt"), "--truth", str(tmp_path / "t.json")]) == 0
        truth = json.loads((tmp_path / "t.json").read_text())
        assert truth["symbols"] == [chr(ord("a") + s) for s in range(states)]
        spec = MarkovSpec(states=states, transition=truth["transition"], initial=truth["initial"], seed=8)
        path = synth_markov(spec, 3000)[0].tokens - 2
        assert (tmp_path / "c.txt").read_text(encoding="utf-8") == "".join(truth["symbols"][s] for s in path)
        capsys.readouterr()

    SPEC = {"states": 2, "transition": [[0.5, 0.5], [0.1, 0.9]], "initial": [0.5, 0.5], "seed": 1}

    def test_spec_file(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps(self.SPEC))
        assert run_command(["synth", "--spec", str(tmp_path / "spec.json"), "--length", "50",
                            "--out", str(tmp_path / "c.txt")]) == 0
        assert set((tmp_path / "c.txt").read_text()) <= set("ab")
        capsys.readouterr()

    def synth_spec(self, tmp_path, spec, *flags):
        """The corpus that synth --spec writes for spec with flags."""
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert run_command(["synth", "--spec", str(tmp_path / "spec.json"), "--length", "200",
                            "--out", str(tmp_path / "c.txt"), *flags]) == 0
        return (tmp_path / "c.txt").read_text()

    def test_seed_flag_overrides_the_spec_seed(self, tmp_path, capsys):
        own = self.synth_spec(tmp_path, self.SPEC)
        assert self.synth_spec(tmp_path, self.SPEC, "--seed", "1") == own
        assert self.synth_spec(tmp_path, {**self.SPEC, "seed": 99}, "--seed", "1") == own
        assert self.synth_spec(tmp_path, self.SPEC, "--seed", "99") == self.synth_spec(tmp_path, {**self.SPEC, "seed": 99})
        assert self.synth_spec(tmp_path, self.SPEC, "--seed", "99") != own
        # a spec without a seed and no --seed takes seed 0
        no_seed = {k: v for k, v in self.SPEC.items() if k != "seed"}
        assert self.synth_spec(tmp_path, no_seed) == self.synth_spec(tmp_path, {**self.SPEC, "seed": 0})
        capsys.readouterr()

    @pytest.mark.parametrize("states", ["2", "3"])
    def test_states_flag_with_spec_refused(self, tmp_path, capsys, states):
        (tmp_path / "spec.json").write_text(json.dumps(self.SPEC))
        assert run_command(["synth", "--spec", str(tmp_path / "spec.json"), "--states", states,
                            "--out", str(tmp_path / "refused.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --states applies only without --spec (the spec's 'states' key sets it)\n"
        assert captured.out == "" and not (tmp_path / "refused.txt").exists()

    def test_spec_corpus_is_the_choice_walk(self, tmp_path, capsys):
        # state 7 is absorbing, and only row 3 enters it: the path walks 17473 steps, then stays in it
        T = np.random.default_rng(20).dirichlet(np.ones(20), size=20)
        T[:, 7] = 0.0
        T[3, 7] = 1e-4
        T /= T.sum(axis=1, keepdims=True)
        T[7] = np.eye(20)[7]
        p = np.full(20, 1 / 19)
        p[7] = 0.0
        spec = {"states": 20, "transition": T.tolist(), "initial": p.tolist()}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert run_command(["synth", "--spec", str(tmp_path / "spec.json"), "--length", "50000", "--seed", "9",
                            "--out", str(tmp_path / "c.txt"), "--truth", str(tmp_path / "t.json")]) == 0
        capsys.readouterr()
        path = choice_walk(MarkovSpec(20, spec["transition"], spec["initial"], seed=9), 50000) - 2
        assert np.flatnonzero(path == 7)[0] == 17473
        assert (tmp_path / "c.txt").read_text(encoding="utf-8") == "".join(chr(97 + s) for s in path)
        truth = json.loads((tmp_path / "t.json").read_text())
        assert (truth["transition"], truth["initial"]) == (spec["transition"], spec["initial"])

    def test_states_and_seed_defaults(self, tmp_path, capsys):
        argv = ["synth", "--length", "200", "--out"]
        assert run_command(argv + [str(tmp_path / "default.txt")]) == 0
        assert run_command(argv + [str(tmp_path / "explicit.txt"), "--states", "4", "--seed", "0"]) == 0
        assert (tmp_path / "default.txt").read_bytes() == (tmp_path / "explicit.txt").read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("key, value", [
        ("transition", [[0.5, float("nan")], [0.1, 0.9]]),
        ("initial", [float("inf"), 0.5]),
        ("initial", [0.5, float("-inf")]),
    ])
    def test_non_finite_spec_numbers_exit_1_by_name(self, tmp_path, capsys, key, value):
        (tmp_path / "spec.json").write_text(json.dumps({**self.SPEC, key: value}))
        assert run_command(["synth", "--spec", str(tmp_path / "spec.json"), "--length", "50",
                            "--out", str(tmp_path / "c.txt")]) == 1
        assert f"spec key {key!r} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("transition", functools.reduce(lambda v, _: [v], range(500), 0.5),
         "must be an array of numbers in rows of equal length, got [[[["),
        ("transition", [[0.5] * 300] * 299 + [[float("nan")] * 300], "must be finite, got [[0.5, 0.5"),
        ("seed", "7" * 1000, "must be an integer, got '7777"),
    ], ids=["nested-500", "300x300-nan", "long-string"])
    def test_refused_value_echoed_by_its_head(self, tmp_path, capsys, key, value, message):
        # the echo stops after ECHO_CHARS characters of the value's repr, marked "..."
        (tmp_path / "spec.json").write_text(json.dumps({**self.SPEC, key: value}))
        assert run_command(["synth", "--spec", str(tmp_path / "spec.json"), "--length", "50",
                            "--out", str(tmp_path / "c.txt")]) == 1
        err = capsys.readouterr().err
        head = f"error: spec key {key!r} {message}"
        assert err.startswith(head) and err.endswith("...\n")
        assert len(err) == len(f"error: spec key {key!r} {message.split(', got ')[0]}, got ") + ECHO_CHARS + 4
        assert not (tmp_path / "c.txt").exists()

    @pytest.mark.parametrize("states", [0, 1, -3])
    def test_fewer_than_two_states_exit_1_by_name(self, tmp_path, capsys, states):
        assert run_command(["synth", "--states", str(states), "--length", "50",
                            "--out", str(tmp_path / "c.txt")]) == 1
        assert f"--states must be >= 2, got {states}" in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()

    @pytest.mark.parametrize("drop, extra, message", [
        ("transition", {}, "missing spec key 'transition'"),
        ("initial", {}, "missing spec key 'initial'"),
        (None, {"seeed": 2}, "unknown spec key(s): 'seeed'"),
        (None, {"states": 2.0}, "spec key 'states' must be an integer"),
        (None, {"seed": "1"}, "spec key 'seed' must be an integer"),
    ])
    def test_bad_spec_keys_exit_1_by_name(self, tmp_path, capsys, drop, extra, message):
        spec = {k: v for k, v in self.SPEC.items() if k != drop}
        (tmp_path / "spec.json").write_text(json.dumps({**spec, **extra}))
        assert run_command(["synth", "--spec", str(tmp_path / "spec.json"), "--length", "50",
                            "--out", str(tmp_path / "c.txt")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()

    @pytest.mark.parametrize("length", ["1", "50"])
    def test_initial_of_another_size_exits_1_by_name(self, tmp_path, capsys, length):
        spec = {"states": 2, "transition": [[0.5, 0.5], [0.5, 0.5]], "initial": [0.1, 0.1, 0.8], "seed": 0}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert run_command(["synth", "--spec", str(tmp_path / "spec.json"), "--length", length,
                            "--out", str(tmp_path / "c.txt")]) == 1
        assert "initial distribution must have shape (2,), got (3,)" in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()

    @pytest.mark.parametrize("key, value", [
        ("transition", [[True, False], [False, True]]),
        ("transition", [[1, 0], [0, False]]),
        ("initial", ["0.5", "0.5"]),
        ("initial", [0.5, "half"]),
        ("transition", [[0.5, 0.5], [0.1]]),
        ("transition", [[0.5, 0.5], 0.5]),
        ("initial", [0.5, None]),
        ("initial", [0.5, {"p": 0.5}]),
        *[("transition", functools.reduce(lambda v, _: [v], range(depth), 0.5)) for depth in (3, 65, 500)],
    ])
    def test_non_numeric_or_ragged_arrays_exit_1_by_name(self, tmp_path, capsys, key, value):
        (tmp_path / "spec.json").write_text(json.dumps({**self.SPEC, key: value}))
        assert run_command(["synth", "--spec", str(tmp_path / "spec.json"), "--length", "50",
                            "--out", str(tmp_path / "c.txt")]) == 1
        assert f"spec key {key!r} must be an array of numbers in rows of equal length" in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()

    def test_integer_entries_are_numbers(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps({**self.SPEC, "transition": [[0, 1], [1, 0]],
                                                        "initial": [1, 0]}))
        assert run_command(["synth", "--spec", str(tmp_path / "spec.json"), "--length", "6",
                            "--out", str(tmp_path / "c.txt")]) == 0
        assert (tmp_path / "c.txt").read_text() == "ababab"
        capsys.readouterr()


class TestTrainEvalGenerate:
    def test_train_zero_steps_fails(self, workdir, capsys):
        bad = dict(BASE_CONFIG)
        bad["train"] = dict(BASE_CONFIG["train"], steps=0)
        bad["data"] = str(workdir / "corpus.txt")
        cfg_path = workdir / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        assert run_command(["train", "--config", str(cfg_path),
                            "--out", str(workdir / "x.json"),
                            "--metrics", str(workdir / "x.jsonl")]) == 1
        capsys.readouterr()

    def test_train_then_eval_and_generate(self, workdir, capsys):
        ckpt = workdir / "ckpt.json"
        assert run_command(["train", "--config", str(workdir / "config.json"),
                            "--out", str(ckpt), "--metrics", str(workdir / "m.jsonl")]) == 0
        capsys.readouterr()

        assert run_command(["eval", "--ckpt", str(ckpt),
                            "--data", str(workdir / "corpus.txt")]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["ppl"] == pytest.approx(np.exp(-metrics["score_log"]))

        # greedy output == beam-1 output, for every objective
        assert run_command(["generate", "--ckpt", str(ckpt), "--data", str(workdir / "corpus.txt"),
                            "--prompt", "a", "--greedy", "--max-len", "12"]) == 0
        greedy_text = capsys.readouterr().out
        for objective in ("logarithmic", "brier", "spherical"):
            assert run_command(["decode", "--ckpt", str(ckpt), "--data", str(workdir / "corpus.txt"),
                                "--prompt", "a", "--beam", "1", "--max-len", "12",
                                "--objective", objective]) == 0
            assert capsys.readouterr().out == greedy_text

    def test_deterministic_runs(self, workdir, capsys):
        outs = []
        for tag in ("r1", "r2"):
            ck = workdir / f"{tag}.json"
            mt = workdir / f"{tag}.jsonl"
            assert run_command(["train", "--config", str(workdir / "config.json"),
                                "--out", str(ck), "--metrics", str(mt)]) == 0
            outs.append((ck.read_bytes(), mt.read_bytes()))
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_finetune_flow(self, workdir, capsys):
        ckpt = workdir / "ckpt.json"
        out = workdir / "ft.json"
        assert run_command(["finetune", "--config", str(workdir / "config.json"),
                            "--base", str(ckpt), "--rule", "brier", "--steps", "50",
                            "--out", str(out), "--metrics", str(workdir / "ft.jsonl")]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["rule"]["kind"] == "brier"
        assert doc["step"] == 250  # 200 pretrain + 50 fine-tune

    def test_finetune_zero_steps_writes_files(self, workdir, capsys):
        out, metrics = workdir / "ft0.json", workdir / "ft0.jsonl"
        assert run_command(["finetune", "--config", str(workdir / "config.json"),
                            "--base", str(workdir / "ckpt.json"), "--rule", "brier", "--steps", "0",
                            "--out", str(out), "--metrics", str(metrics)]) == 0
        assert "no steps" in capsys.readouterr().out
        assert metrics.read_text() == ""
        base, ft = load_checkpoint(workdir / "ckpt.json"), load_checkpoint(out)
        assert ft.rule == ScoreRule("brier") and ft.step == base.step
        assert ft.params.flat.tobytes() == base.params.flat.tobytes()

    def test_missing_data_fails(self, workdir, capsys):
        cfg_path = workdir / "nodata.json"
        cfg_path.write_text(json.dumps(BASE_CONFIG))
        assert run_command(["train", "--config", str(cfg_path)]) == 1
        capsys.readouterr()

    def test_pairs_jsonl_mode(self, workdir, capsys):
        pairs = workdir / "pairs.jsonl"
        lines = [json.dumps({"source": "ab", "target": "ba"}) for _ in range(30)]
        pairs.write_text("\n".join(lines) + "\n")
        cfg = dict(BASE_CONFIG)
        cfg["train"] = dict(BASE_CONFIG["train"], steps=20, batch_size=8)
        cfg["data"] = str(pairs)
        cfg_path = workdir / "pairs_cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_command(["train", "--config", str(cfg_path),
                            "--out", str(workdir / "p.json"),
                            "--metrics", str(workdir / "p.jsonl")]) == 0
        capsys.readouterr()


def write_config(workdir, name, section=None, **entries):
    """BASE_CONFIG on the workdir corpus, with entries set at the top level
    (section None) or inside one section."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["data"] = str(workdir / "corpus.txt")
    (cfg if section is None else cfg[section]).update(entries)
    path = workdir / name
    path.write_text(json.dumps(cfg))
    return str(path)


def train_checkpoint(workdir, name, *flags):
    out = workdir / f"{name}.json"
    assert run_command(["train", "--config", str(workdir / "config.json"), "--steps", "20",
                        "--out", str(out), "--metrics", str(workdir / f"{name}.jsonl"), *flags]) == 0
    return str(out)


class TestConfigKeys:
    @pytest.mark.parametrize("section, key", [
        (None, "dta"), ("model", "hiden_dim"), ("train", "lr_decay"), ("train", "beta1"),
        ("train", "beta2"), ("train", "adam_eps"),
    ])
    def test_unknown_key_rejected_by_name(self, workdir, capsys, section, key):
        path = write_config(workdir, "unknown.json", section, **{key: 1})
        assert run_command(["train", "--config", path, "--out", str(workdir / "u.json"),
                            "--metrics", str(workdir / "u.jsonl")]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not (workdir / "u.json").exists()

    def test_section_must_be_an_object(self, workdir, capsys):
        path = write_config(workdir, "listed.json", train=[1])
        assert run_command(["train", "--config", path, "--steps", "5", "--out", str(workdir / "l.json"),
                            "--metrics", str(workdir / "l.jsonl")]) == 1
        assert "train config must be a JSON object" in capsys.readouterr().err

    def test_pinned_alpha_rejected(self, workdir, capsys):
        path = write_config(workdir, "brier3.json", "train", rule="brier", alpha=3.0)
        assert run_command(["train", "--config", path, "--out", str(workdir / "b3.json"),
                            "--metrics", str(workdir / "b3.jsonl")]) == 1
        assert "brier" in capsys.readouterr().err

    def test_mask_without_eps_rejected_before_data(self, workdir, capsys):
        path = write_config(workdir, "mask0.json", "train", mask_enhanced=True)
        assert run_command(["train", "--config", path, "--data", str(workdir / "absent.txt"),
                            "--out", str(workdir / "m0.json"), "--metrics", str(workdir / "m0.jsonl")]) == 1
        assert "mask enhancement needs eps > 0" in capsys.readouterr().err

    def test_empty_train_section_is_the_library_default(self, monkeypatch):
        import dataclasses

        import scorelm.cli as cli_mod
        from scorelm.scores import SmoothingConfig
        from scorelm.train import TrainConfig

        args = cli_mod._build_parser().parse_args(["train", "--config", "c.json"])
        assert cli_mod._train_config({}, args) == TrainConfig(rule=ScoreRule("logarithmic"))

        # the defaults are read from TrainConfig, not written out a second time
        @dataclasses.dataclass(frozen=True)
        class Other(TrainConfig):
            smoothing: SmoothingConfig = SmoothingConfig(0.05, mask_enhanced=True)
            steps: int = 7
            batch_size: int = 5
            learning_rate: float = 0.25
            warmup_steps: int = 3
            eval_every: int = 2
            seed: int = 11

        monkeypatch.setattr(cli_mod, "TrainConfig", Other)
        assert cli_mod._train_config({}, args) == Other(rule=ScoreRule("logarithmic"))

    def test_finetune_checks_model_section_against_base(self, workdir, capsys):
        base = train_checkpoint(workdir, "ft_base")
        path = write_config(workdir, "ft_other.json", "model", hidden_dim=32)
        assert run_command(["finetune", "--config", path, "--base", base, "--steps", "5",
                            "--out", str(workdir / "ft_o.json"), "--metrics", str(workdir / "ft_o.jsonl")]) == 1
        assert "hidden_dim" in capsys.readouterr().err


class TestConfigTypes:
    @pytest.mark.parametrize("section, key, value, message", [
        ("train", "mask_enhanced", "false", "must be a boolean"),
        ("train", "steps", 3.7, "must be an integer"),
        ("train", "batch_size", True, "must be an integer"),
        ("train", "eps", False, "must be a number"),
        ("train", "learning_rate", "0.001", "must be a number"),
        ("train", "rule", 1, "must be a string"),
        ("model", "hidden_dim", 16.0, "must be an integer"),
        ("model", "vocab_size", "6", "must be an integer or null"),
        (None, "data", ["corpus.txt"], "must be a string or null"),
    ])
    def test_wrong_json_type_rejected_by_name(self, workdir, capsys, section, key, value, message):
        path = write_config(workdir, "typed.json", section, **{key: value})
        assert run_command(["train", "--config", path, "--out", str(workdir / "t.json"),
                            "--metrics", str(workdir / "t.jsonl")]) == 1
        assert f"{key!r} {message}" in capsys.readouterr().err
        assert not (workdir / "t.json").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("train", "learning_rate", float("nan")),
        ("train", "learning_rate", float("inf")),
        ("train", "alpha", float("inf")),
        ("train", "eps", float("-inf")),
    ])
    def test_non_finite_number_rejected_by_name(self, workdir, capsys, section, key, value):
        path = write_config(workdir, "nonfinite.json", section, **{key: value})
        assert run_command(["train", "--config", path, "--out", str(workdir / "nf.json"),
                            "--metrics", str(workdir / "nf.jsonl")]) == 1
        assert f"train config key {key!r} must be finite, got {value}" in capsys.readouterr().err
        assert not (workdir / "nf.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--learning-rate", "nan"], "learning_rate must be finite and > 0, got nan"),
        (["--learning-rate", "inf"], "learning_rate must be finite and > 0, got inf"),
        (["--rule", "alpha_power", "--alpha", "inf"], "alpha_power requires a finite alpha > 1, got inf"),
    ])
    def test_non_finite_flag_rejected_by_name(self, workdir, capsys, flags, message):
        assert run_command(["train", "--config", str(workdir / "config.json"), "--steps", "5",
                            "--out", str(workdir / "nff.json"), "--metrics", str(workdir / "nff.jsonl"), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not (workdir / "nff.json").exists()

    def test_integers_taken_for_number_keys(self, workdir, capsys):
        ckpts = []
        for name, entries in (("ints", {"alpha": 2, "eps": 0}), ("floats", {"alpha": 2.0, "eps": 0.0})):
            path = write_config(workdir, f"{name}.json", "train", **entries)
            out = workdir / f"{name}.ckpt.json"
            assert run_command(["train", "--config", path, "--steps", "5", "--out", str(out),
                                "--metrics", str(workdir / f"{name}.jsonl")]) == 0
            ckpts.append(out.read_bytes())
        assert ckpts[0] == ckpts[1]
        capsys.readouterr()

    def test_null_vocab_size_taken(self, workdir, capsys):
        path = write_config(workdir, "null_vocab.json", "model", vocab_size=None)
        assert run_command(["train", "--config", path, "--steps", "5", "--out", str(workdir / "nv.json"),
                            "--metrics", str(workdir / "nv.jsonl")]) == 0
        capsys.readouterr()


class TestGenerateObjective:
    def test_greedy_and_beam_are_exclusive(self, workdir, capsys):
        assert run_command(["generate", "--ckpt", "c.json", "--data", str(workdir / "corpus.txt"),
                            "--greedy", "--beam", "2"]) == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_default_objective_is_checkpoint_rule_with_alpha(self, workdir, capsys, monkeypatch):
        import scorelm.cli as cli_mod

        ckpt = train_checkpoint(workdir, "ps15", "--rule", "pseudo_spherical", "--alpha", "1.5")
        seen = []
        real = cli_mod.beam_search

        def spy(params, prompt, cfg):
            seen.append(cfg.objective)
            return real(params, prompt, cfg)

        monkeypatch.setattr(cli_mod, "beam_search", spy)
        assert run_command(["generate", "--ckpt", ckpt, "--data", str(workdir / "corpus.txt"),
                            "--prompt", "a", "--beam", "2", "--max-len", "4"]) == 0
        assert seen == [ScoreRule("pseudo_spherical", 1.5)]
        capsys.readouterr()

    def test_choices_are_the_pinned_proper_rules(self, capsys, monkeypatch):
        import scorelm.cli as cli_mod
        from scorelm.scores import RULES

        assert run_command(["generate", "--help"]) == 0
        assert "--objective {logarithmic,brier,spherical}" in capsys.readouterr().out
        monkeypatch.setitem(RULES, "log2", RULES["logarithmic"])  # one more proper rule with a pinned alpha
        # the parser reads the table when it is built, once per process: build a new one
        monkeypatch.setattr(cli_mod, "_build_parser", functools.cache(cli_mod._build_parser.__wrapped__))
        assert run_command(["generate", "--help"]) == 0
        assert "--objective {logarithmic,brier,spherical,log2}" in capsys.readouterr().out

    def test_linear_checkpoint_needs_an_objective(self, workdir, capsys):
        ckpt = train_checkpoint(workdir, "lin", "--rule", "linear")
        argv = ["generate", "--ckpt", ckpt, "--data", str(workdir / "corpus.txt"), "--prompt", "a", "--max-len", "4"]
        assert run_command(argv + ["--beam", "2"]) == 1
        assert "'linear' is improper" in capsys.readouterr().err
        assert run_command(argv + ["--beam", "2", "--objective", "brier"]) == 0
        assert run_command(argv) == 0  # greedy needs no objective
        capsys.readouterr()


class TestGenerateGreedyFlags:
    @pytest.mark.parametrize("flags, flag", [
        (["--objective", "brier"], "--objective"),
        (["--length-penalty", "1"], "--length-penalty"),
        (["--length-penalty", "-5"], "--length-penalty"),
        (["--greedy", "--length-penalty", "0"], "--length-penalty"),
    ])
    def test_beam_only_flags_are_usage_errors(self, workdir, capsys, flags, flag):
        ckpt = train_checkpoint(workdir, "greedy_flags")
        capsys.readouterr()
        assert run_command(["generate", "--ckpt", ckpt, "--data", str(workdir / "corpus.txt"),
                            "--prompt", "a", "--max-len", "4", *flags]) == 2
        captured = capsys.readouterr()
        assert f"{flag} applies only with --beam" in captured.err and captured.out == ""

    @pytest.mark.parametrize("spelled", ["joined", "apart"])
    @pytest.mark.parametrize("penalty", ["nan", "inf", "-inf", "-nan", "-Infinity"])
    def test_non_finite_length_penalty_exits_1(self, workdir, capsys, penalty, spelled):
        ckpt = train_checkpoint(workdir, "greedy_flags")
        capsys.readouterr()
        flag = [f"--length-penalty={penalty}"] if spelled == "joined" else ["--length-penalty", penalty]
        assert run_command(["generate", "--ckpt", ckpt, "--prompt", "a", "--max-len", "4", "--beam", "4",
                            *flag]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: BeamConfig field 'length_penalty' must be finite and non-negative, "
                                f"got {float(penalty)}\n") and captured.out == ""

    def test_max_len_zero_rejected(self, workdir, capsys):
        ckpt = train_checkpoint(workdir, "greedy_flags")
        capsys.readouterr()
        assert run_command(["generate", "--ckpt", ckpt, "--data", str(workdir / "corpus.txt"),
                            "--prompt", "a", "--max-len", "0"]) == 1
        captured = capsys.readouterr()
        assert "max_len must be >= 1, got 0" in captured.err and captured.out == ""


class TestNegativeFloatFlags:
    """A negative float spelled with an exponent, inf or nan is a flag's
    value, as -5 and -0.5 are, so it reaches its field check."""

    REQUIRED = {"train": ["--config", "c.json"], "finetune": ["--config", "c.json", "--base", "b.json"],
                "generate": ["--ckpt", "c.json"]}
    FLAGS = [("train", "--alpha", "alpha"), ("train", "--eps", "eps"),
             ("train", "--learning-rate", "learning_rate"), ("finetune", "--alpha", "alpha"),
             ("finetune", "--eps", "eps"), ("finetune", "--learning-rate", "learning_rate"),
             ("generate", "--length-penalty", "length_penalty")]

    @pytest.mark.parametrize("value", ["-1e-3", "-1E+3", "-2.5e-300", "-.5e1", "-5.", "-5", "-0.5", "-inf",
                                       "-Infinity", "-nan"])
    @pytest.mark.parametrize("command, flag, dest", FLAGS)
    def test_every_float_flag_takes_the_value(self, command, flag, dest, value):
        args = _build_parser().parse_args([command, *self.REQUIRED[command], flag, value])
        assert np.float64(getattr(args, dest)).tobytes() == np.float64(float(value)).tobytes()

    @pytest.mark.parametrize("flags, field", [
        (["--learning-rate", "-1e-3"], "learning_rate"),
        (["--learning-rate", "-inf"], "learning_rate"),
        (["--rule", "alpha_power", "--alpha", "-1e-3"], "alpha"),
        (["--rule", "pseudo_spherical", "--alpha", "-inf"], "alpha"),
        (["--eps", "-1e-3"], "eps"),
        (["--eps", "-nan"], "eps"),
    ])
    def test_train_exits_1_naming_the_field(self, workdir, capsys, flags, field):
        assert run_command(["train", "--config", str(workdir / "config.json"), "--out", str(workdir / "neg.json"),
                            "--metrics", str(workdir / "neg.jsonl"), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and field in captured.err and captured.out == ""
        assert not (workdir / "neg.json").exists()

    @pytest.mark.parametrize("penalty", ["-1e-3", "-inf"])
    def test_generate_exits_1_naming_the_field(self, workdir, capsys, penalty):
        ckpt = train_checkpoint(workdir, "greedy_flags")
        capsys.readouterr()
        assert run_command(["generate", "--ckpt", ckpt, "--prompt", "a", "--beam", "4",
                            "--length-penalty", penalty]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: BeamConfig field 'length_penalty' must be finite and non-negative, "
                                f"got {float(penalty)}\n") and captured.out == ""

    def test_int_flags_still_refuse_a_float(self, capsys):
        assert run_command(["train", "--config", "c.json", "--steps", "-1e3"]) == 2
        assert "invalid int value: '-1e3'" in capsys.readouterr().err


class TestEvalReproducesTraining:
    FIELDS = ("score_log", "score_brier", "score_spherical", "ppl")

    @pytest.mark.parametrize("kind", ["corpus", "pairs"])
    def test_eval_prints_the_last_metrics_record(self, workdir, capsys, kind):
        # eval on the training data scores the same held-out split with the same function
        data = workdir / "corpus.txt"
        if kind == "pairs":
            data = workdir / "eval_pairs.jsonl"
            data.write_text("".join(json.dumps({"source": s, "target": s[::-1] + "a"}) + "\n"
                                    for s in ("abc", "dcab", "bca", "abd", "ba", "cdd") * 5))
        config = write_config(workdir, f"eval_{kind}.json", data=str(data))
        ckpt, metrics = workdir / f"eval_{kind}_ckpt.json", workdir / f"eval_{kind}_metrics.jsonl"
        assert run_command(["train", "--config", config, "--steps", "30", "--batch-size", "16",
                            "--out", str(ckpt), "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert run_command(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 0
        printed = json.loads(capsys.readouterr().out)
        last = json.loads(metrics.read_text().splitlines()[-1])
        assert last["step"] == 30
        assert {k: printed[k] for k in self.FIELDS} == {k: last[k] for k in self.FIELDS}

    @pytest.mark.parametrize("name, model", [
        ("markov.txt", {"context": 1}),
        ("one.txt", {"context": 2, "hidden_dim": 64}),
        ("pairs.jsonl", {"context": 3}),
    ], ids=["markov-K1", "one-symbol", "pairs"])
    def test_eval_scores_each_distinct_context_forward(self, tmp_path, capsys, name, model):
        # a K = 1 chain (4 contexts), one context, and paired records behind K pads
        data = tmp_path / name
        if name == "markov.txt":
            assert run_command(["synth", "--states", "4", "--length", "4000", "--seed", "3", "--out", str(data)]) == 0
        elif name == "one.txt":
            data.write_text("a" * 2000)
        else:
            sixty_pairs(data)
        config, ckpt, metrics = tmp_path / "config.json", tmp_path / "ckpt.json", tmp_path / "metrics.jsonl"
        config.write_text(json.dumps({"data": str(data), "model": model, "train": {"steps": 20, "eval_every": 10}}))
        assert run_command(["train", "--config", str(config), "--out", str(ckpt), "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert run_command(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 0
        got = json.loads(capsys.readouterr().out)
        params = load_checkpoint(ckpt).params
        _, (contexts, targets) = split_data(_load_data(data)[1], model["context"])
        want = ref_evaluate_scores(params, contexts, targets, Z=scored_once_logits(params, contexts, targets))
        full = ref_evaluate_scores(params, contexts, targets)  # a forward of every position may round otherwise
        last = json.loads(metrics.read_text().splitlines()[-1])
        assert {k: got[k] for k in want} == want
        assert {k: got[k] for k in SCORE_FIELDS} == {k: last[k] for k in SCORE_FIELDS}
        assert all(np.isclose(got[k], full[k], rtol=1e-12, atol=1e-12) for k in want)


class TestGenerateIngest:
    @pytest.fixture(scope="class")
    def paired(self, workdir):
        pairs = workdir / "gen_pairs.jsonl"
        pairs.write_text("".join(json.dumps({"source": s, "target": s[::-1]}) + "\n"
                                 for s in ("abc", "cab", "bca", "ab", "ba") * 4))
        path = write_config(workdir, "gen_pairs.json", data=str(pairs))
        out = workdir / "gen_pairs_ckpt.json"
        assert run_command(["train", "--config", path, "--steps", "5", "--batch-size", "4",
                            "--out", str(out), "--metrics", str(workdir / "gen_pairs.jsonl.metrics")]) == 0
        return pairs, out

    def test_generate_never_encodes_pairs(self, paired, capsys, monkeypatch):
        import scorelm.cli as cli_mod

        def refuse(*args):
            raise AssertionError("generate encoded its --data")

        monkeypatch.setattr(cli_mod, "encode_pairs", refuse)
        pairs, ckpt = paired
        capsys.readouterr()
        assert run_command(["generate", "--ckpt", str(ckpt), "--data", str(pairs), "--prompt", "ab",
                            "--beam", "2", "--max-len", "4"]) == 0
        assert capsys.readouterr().err == ""

    def test_generate_encodes_only_the_prompt_of_a_corpus(self, workdir, capsys, monkeypatch):
        import scorelm.cli as cli_mod

        ckpt = train_checkpoint(workdir, "gen_corpus")
        seen = []
        real = cli_mod.encode

        def spy(vocab, text):
            seen.append(text)
            return real(vocab, text)

        monkeypatch.setattr(cli_mod, "encode", spy)
        assert run_command(["generate", "--ckpt", ckpt, "--data", str(workdir / "corpus.txt"),
                            "--prompt", "ab", "--max-len", "4"]) == 0
        assert seen == ["ab"]
        capsys.readouterr()

    @pytest.mark.parametrize("body, message", [
        ("", "no records in"),
        ("\n  \n", "no records in"),
        ('{"source": "a", "target": "b"}\nnot json\n', "line 2: malformed JSON"),
        ('{"source": "a"}\n', 'line 1: missing or non-string "target" field'),
    ])
    def test_generate_rejects_bad_pairs_file(self, paired, tmp_path, capsys, body, message):
        _, ckpt = paired
        bad = tmp_path / "bad.jsonl"
        bad.write_text(body)
        assert run_command(["generate", "--ckpt", str(ckpt), "--data", str(bad), "--prompt", "ab"]) == 1
        assert message in capsys.readouterr().err

    def test_generate_rejects_a_payload_that_is_not_ascii(self, paired, tmp_path, capsys):
        pairs, ckpt = paired
        doc = json.loads(ckpt.read_text())
        doc["params"] = "\u00e9" + doc["params"][1:]
        bad = tmp_path / "not_ascii.json"
        bad.write_text(json.dumps(doc))
        assert run_command(["generate", "--ckpt", str(bad), "--data", str(pairs), "--prompt", "ab"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: parameter payload is not valid base64: "
                                "string argument should contain only ASCII characters\n")
        assert captured.out == ""


class TestSymbolTable:
    @pytest.fixture(scope="class")
    def trained(self, workdir):
        """A checkpoint trained on the abcd corpus, and a corpus of another alphabet of the same size."""
        ckpt = workdir / "sym.json"
        assert run_command(["train", "--config", str(workdir / "config.json"), "--steps", "20",
                            "--out", str(ckpt), "--metrics", str(workdir / "sym.jsonl")]) == 0
        other = workdir / "wxyz.txt"
        other.write_text((workdir / "corpus.txt").read_text().translate(str.maketrans("abcd", "wxyz")))
        return ckpt, other

    @pytest.fixture(scope="class")
    def paired(self, workdir):
        """A checkpoint trained on sixty_pairs, and those pairs."""
        pairs = sixty_pairs(workdir / "sym_pairs.jsonl")
        config, ckpt = workdir / "sym_pairs_config.json", workdir / "sym_pairs_ckpt.json"
        config.write_text(json.dumps({"data": str(pairs), "model": {"context": 3},
                                      "train": {"steps": 40, "batch_size": 8, "eval_every": 20}}))
        assert run_command(["train", "--config", str(config), "--out", str(ckpt),
                            "--metrics", str(workdir / "sym_pairs_metrics.jsonl")]) == 0
        return ckpt, pairs

    def test_train_stores_the_vocabulary(self, trained, capsys):
        ckpt, _ = trained
        assert load_checkpoint(ckpt).symbols == ["<pad>", "<eos>", "a", "b", "c", "d"]
        capsys.readouterr()

    def test_finetune_carries_the_table(self, trained, workdir, capsys):
        ckpt, _ = trained
        out = workdir / "sym_ft.json"
        assert run_command(["finetune", "--config", str(workdir / "config.json"), "--base", str(ckpt),
                            "--rule", "brier", "--steps", "5", "--out", str(out),
                            "--metrics", str(workdir / "sym_ft.jsonl")]) == 0
        assert load_checkpoint(out).symbols == load_checkpoint(ckpt).symbols
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["eval", "generate", "finetune"])
    def test_same_size_other_alphabet_refused(self, trained, workdir, capsys, command):
        # the abcd checkpoint would read w as a, x as b, ...: refused, not remapped
        ckpt, other = trained
        argv = {"eval": ["eval", "--ckpt", str(ckpt), "--data", str(other)],
                "generate": ["generate", "--ckpt", str(ckpt), "--data", str(other), "--prompt", "w"],
                "finetune": ["finetune", "--config", str(workdir / "config.json"), "--data", str(other),
                             "--base", str(ckpt), "--steps", "5", "--out", str(workdir / "sym_wxyz.json"),
                             "--metrics", str(workdir / "sym_wxyz.jsonl")]}[command]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert "differs from the checkpoint's symbol table at id 2: data has 'w', checkpoint has 'a'" in captured.err
        assert captured.out == ""
        assert not (workdir / "sym_wxyz.json").exists()

    def test_other_size_names_the_first_missing_id(self, trained, workdir, capsys):
        ckpt, _ = trained
        small = workdir / "abc.txt"
        small.write_text("abcabcab" * 20)
        assert run_command(["eval", "--ckpt", str(ckpt), "--data", str(small)]) == 1
        assert "at id 5: data has no symbol, checkpoint has 'd'" in capsys.readouterr().err

    @pytest.mark.parametrize("checkpoint, prompt, search", [
        ("trained", "cab", ["--greedy"]),
        ("trained", "cab", ["--beam", "3"]),
        ("trained", "cab", ["--beam", "2", "--length-penalty", "1"]),
        ("paired", "abc", ["--beam", "4"]),
        ("paired", "abc", ["--greedy"]),
    ], ids=["greedy", "beam3", "beam2-penalty1", "pairs-beam4", "pairs-greedy"])
    def test_generate_without_data_is_the_same(self, request, workdir, capsys, checkpoint, prompt, search):
        ckpt, data = request.getfixturevalue(checkpoint)
        if checkpoint == "trained":
            data = workdir / "corpus.txt"  # the other fixture file is the wxyz corpus
        capsys.readouterr()
        argv = ["generate", "--ckpt", str(ckpt), "--prompt", prompt, "--max-len", "12", *search]
        assert run_command(argv + ["--data", str(data)]) == 0
        with_data = capsys.readouterr()
        assert run_command(argv) == 0
        without = capsys.readouterr()
        assert without.out == with_data.out and without.err == with_data.err == ""
        assert without.out.strip()

    @pytest.fixture(scope="class")
    def library(self, trained, workdir):
        """The trained checkpoint saved as a library run without a symbol table (symbols=None)."""
        ckpt = load_checkpoint(trained[0])
        ckpt.symbols = None
        path = workdir / "sym_none.json"
        save_checkpoint(path, ckpt)
        return path

    def test_library_checkpoint_needs_data(self, library, workdir, capsys):
        argv = ["generate", "--ckpt", str(library), "--prompt", "cab", "--max-len", "12"]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert f"checkpoint {library} has no symbol table" in captured.err and "pass --data" in captured.err
        assert captured.out == ""
        assert run_command(argv + ["--data", str(workdir / "corpus.txt")]) == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("command", ["eval", "finetune"])
    def test_library_checkpoint_is_size_checked(self, library, workdir, capsys, command):
        small = workdir / "abc.txt"
        small.write_text("abcabcab" * 20)
        argv = {"eval": ["eval", "--ckpt", str(library), "--data", str(small)],
                "finetune": ["finetune", "--config", str(workdir / "config.json"), "--data", str(small),
                             "--base", str(library), "--steps", "5", "--out", str(workdir / "sym_small.json"),
                             "--metrics", str(workdir / "sym_small.jsonl")]}[command]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert "data vocabulary size 5 != checkpoint vocab_size 6" in captured.err and captured.out == ""
        assert not (workdir / "sym_small.json").exists()


class TestPairsRecords:
    @pytest.mark.parametrize("value", ["5", "null", "true"])
    @pytest.mark.parametrize("command", ["train", "generate"])
    def test_non_object_record_exits_1(self, workdir, tmp_path, capsys, value, command):
        pairs = tmp_path / "scalar.jsonl"
        pairs.write_text('{"source": "ab", "target": "ba"}\n' * 11 + value + "\n")
        if command == "train":
            argv = ["train", "--config", str(workdir / "config.json"), "--data", str(pairs), "--steps", "2",
                    "--out", str(tmp_path / "c.json"), "--metrics", str(tmp_path / "m.jsonl")]
        else:
            argv = ["generate", "--ckpt", train_checkpoint(workdir, "scalar"), "--data", str(pairs)]
            capsys.readouterr()
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: line 12: record must be a JSON object\n" and captured.out == ""


class TestNotUtf8Data:
    @pytest.mark.parametrize("command", ["train", "eval", "generate"])
    @pytest.mark.parametrize("name, body, where", [
        ("pairs.jsonl", b'{"source": "ab", "target": "ba"}\r\n' * 11 + b'{"source": "a\xffb", "target": "ba"}\n',
         "line 12 is not UTF-8 (byte 0xff at byte offset 387)"),
        ("corpus.txt", b"abcd\rabca\ndcb\xe9a", "line 3 is not UTF-8 (byte 0xe9 at byte offset 13)"),
    ], ids=["jsonl", "corpus"])
    def test_refused_by_path_and_position(self, workdir, tmp_path, capsys, command, name, body, where):
        data = tmp_path / name
        data.write_bytes(body)
        if command == "train":
            argv = ["train", "--config", str(workdir / "config.json"), "--data", str(data), "--steps", "2",
                    "--out", str(tmp_path / "c.json"), "--metrics", str(tmp_path / "m.jsonl")]
        else:
            argv = [command, "--ckpt", train_checkpoint(workdir, "utf8"), "--data", str(data)]
            capsys.readouterr()
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {data}: {where}\n" and captured.out == ""


class TestUnreadableJsonDocuments:
    @pytest.mark.parametrize("body, fault", [
        (b'{"data": "corpus.txt",\r\n "model": {"context": "\xff"}}',
         "line 2 is not UTF-8 (byte 0xff at byte offset 47)"),
        (b'{"data": "corpus.txt",\n\n  "model": {,}}',
         "line 3 column 13: malformed JSON (Expecting property name enclosed in double quotes)"),
        (b"\n  not json", "line 2 column 3: malformed JSON (Expecting value)"),
        (b'{"data": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "JSON nested too deep to read"),
    ], ids=["not-utf8", "malformed", "not-json", "too-deep"])
    @pytest.mark.parametrize("document", ["config", "spec", "checkpoint"])
    def test_refused_by_path_and_position(self, tmp_path, capsys, document, body, fault):
        path = tmp_path / f"{document}.json"
        path.write_bytes(body)
        argv = {"config": ["train", "--config", str(path), "--out", str(tmp_path / "c.json")],
                "spec": ["synth", "--spec", str(path), "--length", "50", "--out", str(tmp_path / "c.txt")],
                "checkpoint": ["eval", "--ckpt", str(path), "--data", str(tmp_path / "c.txt")]}[document]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {fault}\n" and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def as_version_1(doc):
    """doc as format v1 wrote it: no symbol table, and each tensor a nested list."""
    params = Parameters.zeros(param_shapes(ModelConfig(**doc["model"])))
    params.flat[:] = np.frombuffer(base64.b64decode(doc["params"]), dtype="<f8")
    del doc["symbols"]
    doc.update(v=1, params={name: t.tolist() for name, t in params.named()})


class TestCheckpointHeaderProbes:
    @pytest.fixture(scope="class")
    def document(self, workdir):
        return json.loads(Path(train_checkpoint(workdir, "probe")).read_text())

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["model"].update(hidden_dim=16.0), "checkpoint model key 'hidden_dim' must be an integer"),
        (lambda doc: doc.update(step=1.7), "checkpoint key 'step' must be an integer, got 1.7"),
        (lambda doc: doc.update(step=-5), "checkpoint key 'step' must be >= 0, got -5"),
        (lambda doc: doc["smoothing"].update(mask_enhanced="no"),
         "checkpoint smoothing key 'mask_enhanced' must be a boolean, got 'no'"),
        (lambda doc: doc.update(v=True), "checkpoint key 'v' must be an integer, got True"),
        (as_version_1, "version 1 is retired"),
    ], ids=["float-hidden-dim", "float-step", "negative-step", "string-flag", "boolean-version", "version-1"])
    def test_generate_exits_1_naming_the_key(self, document, tmp_path, capsys, edit, message):
        doc = json.loads(json.dumps(document))
        edit(doc)
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc))
        assert run_command(["generate", "--ckpt", str(path), "--prompt", "ab"]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        path.write_text(json.dumps(document))
        assert run_command(["generate", "--ckpt", str(path), "--prompt", "ab"]) == 0
        capsys.readouterr()


class TestParserOncePerProcess:
    def test_same_output_codes_and_messages_as_fresh_parsers(self, workdir, tmp_path, capsys, monkeypatch):
        import scorelm.cli as cli_mod

        ckpt, corpus = tmp_path / "ckpt.json", str(workdir / "corpus.txt")
        calls = [
            ["train", "--config", str(workdir / "config.json"), "--steps", "5", "--out", str(ckpt),
             "--metrics", str(tmp_path / "m.jsonl")],
            ["eval", "--ckpt", str(ckpt), "--data", corpus],
            ["generate", "--ckpt", str(ckpt), "--prompt", "ab", "--beam", "2", "--max-len", "5"],
            ["generate", "--ckpt", str(ckpt), "--prompt", "ab", "--objective", "brier"],
            ["generate", "--ckpt", str(ckpt), "--greedy", "--beam", "2"],
            ["decode", "--ckpt", str(ckpt), "--prompt", "zz"],
            ["train", "--bogus"],
            ["eval", "--ckpt", str(ckpt)],
            ["frobnicate"],
            [],
            ["generate", "--help"],
            ["synth", "--states", "1", "--out", str(tmp_path / "s.txt")],
            ["synth", "--states", "3", "--length", "50", "--out", str(tmp_path / "s.txt")],
            ["finetune", "--config", str(workdir / "config.json"), "--base", str(ckpt), "--steps", "0",
             "--out", str(tmp_path / "ft.json"), "--metrics", str(tmp_path / "ft.jsonl")],
            ["eval", "--ckpt", str(tmp_path / "ft.json"), "--data", corpus],
        ]

        def session():
            results = []
            for argv in calls:
                rc = run_command(argv)
                captured = capsys.readouterr()
                results.append((rc, captured.out, captured.err))
            return results

        once = session()
        monkeypatch.setattr(cli_mod, "_build_parser", cli_mod._build_parser.__wrapped__)  # a new parser per call
        fresh = session()
        assert once == fresh
        assert [rc for rc, _, _ in once] == [0, 0, 0, 2, 2, 1, 2, 2, 2, 2, 0, 1, 0, 0, 0]


def test_the_cli_imports_only_what_the_package_root_exports():
    # each name may come from its submodule, but it must be the root's own export
    cli_path = Path(importlib.import_module("scorelm.cli").__file__)
    imports = [(node.module, alias.name) for node in ast.walk(ast.parse(cli_path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names]
    assert ("verify", "CERTIFICATES") in imports and ("scores", "RULES") in imports
    for module, name in imports:
        source = scorelm if module is None else importlib.import_module(f"scorelm.{module}")
        assert name in vars(scorelm), name
        assert getattr(scorelm, name) is getattr(source, name), name
