import json

import numpy as np
import pytest

from scorelm.cli import run_command
from scorelm.scores import ScoreRule

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


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        assert run_command(["train", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert run_command(["frobnicate"]) == 2
        capsys.readouterr()


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


    SPEC = {"states": 2, "transition": [[0.5, 0.5], [0.1, 0.9]], "initial": [0.5, 0.5], "seed": 1}

    def test_spec_file(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps(self.SPEC))
        assert run_command(["synth", "--spec", str(tmp_path / "spec.json"), "--length", "50",
                            "--out", str(tmp_path / "c.txt")]) == 0
        assert set((tmp_path / "c.txt").read_text()) <= set("ab")
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

    def test_max_len_zero_rejected(self, workdir, capsys):
        ckpt = train_checkpoint(workdir, "greedy_flags")
        capsys.readouterr()
        assert run_command(["generate", "--ckpt", ckpt, "--data", str(workdir / "corpus.txt"),
                            "--prompt", "a", "--max-len", "0"]) == 1
        captured = capsys.readouterr()
        assert "max_len must be >= 1, got 0" in captured.err and captured.out == ""


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
