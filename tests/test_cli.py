"""Tests for the command-line interface."""

import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
import types
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import read_kb_snapshot, rewrite_header, write_kb_snapshot

from qakb import cli
from qakb.cli import (
    DataError,
    main,
    read_config_file,
    resolve_seed,
)
from qakb import container
from qakb.kb import load_kb, notable_type
from qakb.nn import layers
from qakb.nn.io import read_model_meta

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def bench(tmp_path):
    """A small synthetic benchmark directory."""
    out = tmp_path / "bench"
    code = main(["synth", "--seed", "1", "--out", str(out),
                 "--entities", "14", "--relations", "3"])
    assert code == 0
    return out


class TestSeedResolution:
    def test_flag_wins(self):
        assert resolve_seed(7, {"seed": "8"}, {"QAKB_SEED": "9"}) == 7

    def test_config_beats_env(self):
        assert resolve_seed(None, {"seed": "8"}, {"QAKB_SEED": "9"}) == 8

    def test_env_beats_default(self):
        assert resolve_seed(None, {}, {"QAKB_SEED": "9"}) == 9

    def test_default(self):
        assert resolve_seed(None, {}, {}) == 42


class TestConfigFile:
    def test_parses_pairs_and_skips_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\nseed = 5\n\nepochs=2\n")
        assert read_config_file(str(path)) == {"seed": "5", "epochs": "2"}

    def test_malformed_line_is_data_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 5\n")
        with pytest.raises(DataError, match="run.cfg:1"):
            read_config_file(str(path))

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            read_config_file(str(tmp_path / "absent.cfg"))


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_flag_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path),
                           "--bogus-flag")
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_kb_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen-data", "--kb",
                           str(tmp_path / "no.qakb"), "--questions",
                           str(tmp_path / "no.tsv"), "--out", str(tmp_path))
        assert code == 2
        assert "no.qakb" in err

    @pytest.mark.parametrize("command, flag", [("eval", "--kb"),
                                               ("train-e2e", "--questions")])
    @pytest.mark.parametrize("where", ["directory", "device"])
    def test_path_that_is_no_regular_file_is_data_error(
            self, capsys, bench, tmp_path, command, flag, where):
        """A directory or a device given for an input file is named as
        not a regular file, not as missing, and exits 2."""
        path = str(tmp_path) if where == "directory" else os.devnull
        argv = _command_argv(command, bench, tmp_path)
        argv[argv.index(flag) + 1] = path
        capsys.readouterr()
        code, stdout, err = run(capsys, *argv, "--out",
                                str(tmp_path / "out"))
        assert code == 2
        assert stdout == ""
        assert err == f"error: {path}: not a regular file\n"

    def test_malformed_questions_reports_file_and_line(self, capsys, bench,
                                                       tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only two\tfields\n")
        code, _, err = run(capsys, "gen-data", "--kb",
                           str(bench / "kb.qakb"), "--questions", str(bad),
                           "--out", str(tmp_path / "d"))
        assert code == 2
        assert "bad.tsv" in err and "line 1" in err

    @pytest.mark.parametrize("command", ["gen-data", "train-e2e", "eval"])
    @pytest.mark.parametrize("question", ["", "   "])
    def test_blank_question_text_is_data_error(self, capsys, bench, tmp_path,
                                               command, question):
        """A question row whose text has no tokens names its file and
        line and exits 2 in every command that reads question rows."""
        bad = tmp_path / "blank.tsv"
        first = (bench / "train.tsv").read_text().splitlines()[0]
        bad.write_text(f"{first}\nm.0g000\t/synth/fact/x\tm.1\t{question}\n")
        flags = {"gen-data": [], "eval": ["--oracle", "--strategy", "p-qa"],
                 "train-e2e": ["--variant", "qa-t", "--epochs", "1",
                               "--hidden-size", "4", "--max-len", "6"]}
        capsys.readouterr()
        code, stdout, err = run(capsys, command, "--kb",
                                str(bench / "kb.qakb"), "--questions",
                                str(bad), "--out", str(tmp_path / "out"),
                                *flags[command])
        assert code == 2, err
        assert stdout == ""
        assert "blank.tsv" in err and "line 2" in err
        assert "no question text" in err

    def test_tampered_model_is_data_error(self, capsys, bench, tmp_path):
        model = tmp_path / "m.nn"
        code = main(["train-e2e", "--kb", str(bench / "kb.qakb"),
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(model), "--variant", "qa-t",
                     "--epochs", "1", "--hidden-size", "4",
                     "--embed-dim", "6", "--max-len", "6"])
        assert code == 0
        capsys.readouterr()
        meta_file = str(model) + ".meta.json"
        meta = json.loads(Path(meta_file).read_text())
        meta["config"]["hidden_size"] = 32
        with open(meta_file, "w") as fh:
            json.dump(meta, fh)
        qfile = tmp_path / "q.txt"
        qfile.write_text("anything\n")
        code, _, err = run(capsys, "answer", "--kb", str(bench / "kb.qakb"),
                           "--model", str(model), "--variant", "qa-t",
                           "--questions", str(qfile))
        assert code == 2
        assert "m.nn" in err and "Traceback" not in err

    def test_snapshot_beside_another_variants_sidecar_is_data_error(
            self, capsys, bench, tmp_path):
        """A qa-t-mwt parameter table beside a qa-t-w sidecar (same
        training data) holds a head weight the sidecar's model lacks."""
        for variant in ("qa-t-w", "qa-t-mwt"):
            assert main(["train-e2e", "--kb", str(bench / "kb.qakb"),
                         "--questions", str(bench / "train.tsv"),
                         "--out", str(tmp_path / f"{variant}.nn"),
                         "--variant", variant, "--epochs", "1",
                         "--hidden-size", "4", "--embed-dim", "6",
                         "--max-len", "6"]) == 0
        shutil.copy(tmp_path / "qa-t-mwt.nn", tmp_path / "qa-t-w.nn")
        capsys.readouterr()
        qfile = tmp_path / "q.txt"
        qfile.write_text("anything\n")
        code, _, err = run(capsys, "answer", "--kb", str(bench / "kb.qakb"),
                           "--model", str(tmp_path / "qa-t-w.nn"),
                           "--variant", "qa-t-w", "--questions", str(qfile))
        assert code == 2
        assert "e2e.head.W" in err and "Traceback" not in err

    def test_tampered_pipeline_model_is_data_error(self, capsys, bench,
                                                   tmp_path):
        data = tmp_path / "data"
        models = tmp_path / "models"
        assert main(["gen-data", "--kb", str(bench / "kb.qakb"),
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(data)]) == 0
        assert main(["train-pipeline", "--data", str(data),
                     "--out", str(models), "--epochs", "1",
                     "--hidden-size", "4", "--embed-dim", "6"]) == 0
        capsys.readouterr()
        meta_file = models / "relation.nn.meta.json"
        meta = json.loads(meta_file.read_text())
        meta["config"]["hidden_size"] = 32
        meta_file.write_text(json.dumps(meta))
        qfile = tmp_path / "q.txt"
        qfile.write_text("anything\n")
        code, _, err = run(capsys, "answer", "--kb", str(bench / "kb.qakb"),
                           "--pipeline", str(models), "--strategy", "p-qa",
                           "--questions", str(qfile))
        assert code == 2
        assert "models" in err and "Traceback" not in err

    def test_wrong_kind_model_is_data_error(self, capsys, bench, tmp_path):
        data = tmp_path / "data"
        models = tmp_path / "models"
        assert main(["gen-data", "--kb", str(bench / "kb.qakb"),
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(data)]) == 0
        assert main(["train-pipeline", "--data", str(data),
                     "--out", str(models), "--epochs", "1",
                     "--hidden-size", "4", "--embed-dim", "6"]) == 0
        capsys.readouterr()
        qfile = tmp_path / "q.txt"
        qfile.write_text("anything\n")
        code, _, err = run(capsys, "answer", "--kb", str(bench / "kb.qakb"),
                           "--model", str(models / "tagger.nn"),
                           "--variant", "qa-t", "--questions", str(qfile))
        assert code == 2
        assert "tagger" in err

    @pytest.mark.parametrize("command", ["train-e2e", "train-pipeline"])
    @pytest.mark.parametrize("key, value", [("epochs", "two"),
                                            ("seed", "abc"),
                                            ("dropout_p", "lots")])
    def test_bad_config_value_is_data_error(self, capsys, bench, tmp_path,
                                            command, key, value):
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"hidden_size=4\n{key}={value}\n")
        source = {"train-e2e": ["--kb", str(bench / "kb.qakb"),
                                "--questions", str(bench / "train.tsv"),
                                "--variant", "qa-t"],
                  "train-pipeline": ["--data", str(tmp_path / "data")]}
        code, stdout, err = run(capsys, command, *source[command], "--out",
                                str(tmp_path / "out"), "--config", str(cfg))
        assert code == 2
        assert stdout == "" and "Traceback" not in err
        assert f"run.cfg:2: {key}={value}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train-e2e", "train-pipeline"])
    def test_unknown_config_key_is_data_error(self, capsys, bench, tmp_path,
                                              command):
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nhiden_size=4\n")
        source = {"train-e2e": ["--kb", str(bench / "kb.qakb"),
                                "--questions", str(bench / "train.tsv"),
                                "--variant", "qa-t"],
                  "train-pipeline": ["--data", str(tmp_path / "data")]}
        code, stdout, err = run(capsys, command, *source[command], "--out",
                                str(tmp_path / "out"), "--config", str(cfg))
        assert code == 2
        assert stdout == "" and "Traceback" not in err
        assert f"error: {cfg}:2: unknown key 'hiden_size'" in err
        assert not (tmp_path / "out").exists()

    def test_one_config_file_serves_every_command(self, capsys, bench,
                                                  tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=3\nepochs=1\nhidden_size=4\nembed_dim=6\n"
                       "max_len=6\n")
        assert main(["synth", "--out", str(tmp_path / "b"), "--entities",
                     "10", "--config", str(cfg)]) == 0
        assert main(["train-e2e", "--kb", str(bench / "kb.qakb"),
                     "--questions", str(bench / "train.tsv"), "--variant",
                     "qa-t", "--out", str(tmp_path / "m.nn"), "--config",
                     str(cfg)]) == 0

    @pytest.mark.parametrize("name, line", [
        ("tagged.tsv", "who\tc c\n"),
        ("tagged.tsv", "who is\tc E\n"),
        ("relation_pairs.tsv", "who is\t/a/b/c\n"),
        ("type_pairs.tsv", "who is\tfilm\n"),
    ])
    def test_bad_pipeline_data_names_the_file(self, capsys, bench, tmp_path,
                                              name, line):
        data = tmp_path / "data"
        assert main(["gen-data", "--kb", str(bench / "kb.qakb"),
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(data)]) == 0
        target = data / name
        target.write_text(target.read_text() + line)
        bad_line = len(target.read_text().splitlines())
        capsys.readouterr()
        code, stdout, err = run(capsys, "train-pipeline", "--data", str(data),
                                "--out", str(tmp_path / "models"),
                                "--epochs", "1", "--hidden-size", "4")
        assert code == 2
        assert stdout == "" and "Traceback" not in err
        assert err.startswith(f"error: {target}: line {bad_line}: ")

    @pytest.mark.parametrize("name", ["tagged.tsv", "relation_pairs.tsv",
                                      "type_pairs.tsv"])
    def test_headerless_pipeline_data_names_line_1(self, capsys, bench,
                                                   tmp_path, name):
        data = tmp_path / "data"
        assert main(["gen-data", "--kb", str(bench / "kb.qakb"),
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(data)]) == 0
        target = data / name
        target.write_text(target.read_text().split("\n", 1)[1])
        capsys.readouterr()
        code, stdout, err = run(capsys, "train-pipeline", "--data", str(data),
                                "--out", str(tmp_path / "models"),
                                "--epochs", "1", "--hidden-size", "4")
        assert code == 2
        assert stdout == "" and "Traceback" not in err
        assert err.startswith(f"error: {target}: line 1: expected the header")

    @pytest.mark.parametrize("argv", [
        ["synth", "--entities", "10"],
        ["train-e2e", "--kb", "kb.qakb", "--questions", "q.tsv",
         "--variant", "qa-t"],
    ])
    def test_bad_seed_variable_is_usage_error(self, capsys, tmp_path,
                                              monkeypatch, argv):
        monkeypatch.setenv("QAKB_SEED", "abc")
        code, stdout, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
        assert code == 1
        assert stdout == "" and "Traceback" not in err
        assert "QAKB_SEED=abc" in err
        assert run(capsys, *argv, "--out", str(tmp_path / "o"),
                   "--seed", "1")[0] != 1

    @pytest.mark.parametrize("source, named", [
        ("flag", "--seed -1"), ("config", "--config seed=-1"),
        ("env", "QAKB_SEED=-2")])
    @pytest.mark.parametrize("command", ["synth", "train-pipeline",
                                         "train-e2e"])
    def test_negative_seed_is_usage_error(self, capsys, bench, tmp_path,
                                          monkeypatch, command, source,
                                          named):
        argv = _command_argv(command, bench, tmp_path)
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed=-1\n")
            argv += ["--config", str(cfg)]
        else:
            monkeypatch.setenv("QAKB_SEED", "-2")
        capsys.readouterr()
        code, stdout, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
        assert code == 1
        assert stdout == "" and "Traceback" not in err
        assert err == f"error: {named}: a seed must be non-negative\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "synth", "train-pipeline",
                                         "ingest"])
    def test_unwritable_output_is_data_error(self, capsys, bench, tmp_path,
                                             command):
        """An existing file as the output directory, or an output file in
        a missing directory, exits 2 naming the path."""
        argv = _command_argv(command, bench, tmp_path)
        if command == "ingest":
            out = tmp_path / "absent" / "kb.qakb"
        else:
            out = tmp_path / "taken"
            out.write_text("")
        capsys.readouterr()
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert stdout == "" and "Traceback" not in err
        assert err.startswith(f"error: {out}: ")


class TestNonUtf8Input:
    """An input that is not UTF-8 text exits 2 naming its file, with no
    traceback and no output."""

    @pytest.mark.parametrize("command, source", [
        ("ingest", "--facts"), ("ingest", "--aliases"), ("ingest", "--types"),
        ("gen-data", "--questions"), ("eval", "--questions"),
        ("answer", "--questions"), ("answer", "stdin"),
        ("train-e2e", "--config"), ("train-pipeline", "tagged.tsv")])
    def test_is_data_error_naming_the_file(self, capsys, bench, tmp_path,
                                          monkeypatch, command, source):
        kb, out = str(bench / "kb.qakb"), tmp_path / "out"
        bad = tmp_path / "bad.txt"
        if command == "ingest":
            argv = ["ingest", "--out", str(out)]
            for flag, text in (("--facts", "m.0a1\t/d/x/r\tm.0o1\n"),
                               ("--aliases", "m.0a1\tacme\n"),
                               ("--types", "m.0a1\tfilm\n")):
                good = tmp_path / f"{flag[2:]}.tsv"
                good.write_text(text)
                argv += [flag, str(bad if flag == source else good)]
        elif command == "answer":
            model = str(tmp_path / "m.nn")
            assert main(["train-e2e", "--kb", kb, "--questions",
                         str(bench / "train.tsv"), "--variant", "qa-t",
                         "--out", model, "--epochs", "1", "--hidden-size",
                         "4", "--max-len", "6"]) == 0
            argv = ["answer", "--kb", kb, "--model", model, "--variant",
                    "qa-t"]
            if source == "stdin":
                monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
                    io.BytesIO(b"\xff\xfewho founded acme\n"),
                    encoding="utf-8"))
            else:
                argv += ["--questions", str(bad)]
        elif command == "train-pipeline":
            data = tmp_path / "data"
            assert main(["gen-data", "--kb", kb, "--questions",
                         str(bench / "train.tsv"), "--out", str(data)]) == 0
            bad = data / source
            argv = ["train-pipeline", "--data", str(data), "--out", str(out),
                    "--epochs", "1", "--hidden-size", "4"]
        else:
            argv = {"gen-data": ["gen-data", "--kb", kb],
                    "eval": ["eval", "--kb", kb, "--oracle", "--strategy",
                             "p-qa"],
                    "train-e2e": ["train-e2e", "--kb", kb, "--questions",
                                  str(bench / "train.tsv"), "--variant",
                                  "qa-t"]}[command]
            argv += [source, str(bad), "--out", str(out)]
        bad.write_bytes(b"\xff\xfem.0a1\t/d/x/r\tm.0o1\twho founded acme\n")
        capsys.readouterr()
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert stdout == "" and "Traceback" not in err
        named = "stdin" if source == "stdin" else str(bad)
        assert err == f"error: {named}: not UTF-8 text (invalid start byte)\n"
        assert not out.exists()


def _command_argv(command, bench, tmp_path):
    """Arguments, all but ``--out``, that run ``command`` on the bench."""
    kb, train = str(bench / "kb.qakb"), str(bench / "train.tsv")
    if command == "train-pipeline":
        data = tmp_path / "data"
        assert main(["gen-data", "--kb", kb, "--questions", train,
                     "--out", str(data)]) == 0
        return ["train-pipeline", "--data", str(data), "--epochs", "1",
                "--hidden-size", "4"]
    if command == "ingest":
        facts = tmp_path / "facts.tsv"
        facts.write_text("m.0a1\t/d/x/r\tm.0o1\n")
        return ["ingest", "--facts", str(facts)]
    return {"synth": ["synth", "--entities", "10"],
            "train-e2e": ["train-e2e", "--kb", kb, "--questions", train,
                          "--variant", "qa-t", "--epochs", "1",
                          "--hidden-size", "4"],
            "eval": ["eval", "--kb", kb, "--questions", train, "--oracle",
                     "--strategy", "p-qa"]}[command]


class TestSynth:
    def test_writes_benchmark_files(self, bench):
        for name in ("kb.qakb", "train.tsv", "test.tsv"):
            assert (bench / name).is_file()

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--seed", "3", "--out", str(out),
                         "--entities", "10"]) == 0
        for name in ("kb.qakb", "train.tsv", "test.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--seed", "3", "--out", str(a),
                     "--entities", "10"]) == 0
        assert main(["synth", "--seed", "4", "--out", str(b),
                     "--entities", "10"]) == 0
        assert (a / "train.tsv").read_bytes() != (b / "train.tsv").read_bytes()

    def test_env_seed_used_when_no_flag(self, tmp_path, monkeypatch):
        flagged = tmp_path / "flagged"
        assert main(["synth", "--seed", "17", "--out", str(flagged),
                     "--entities", "10"]) == 0
        monkeypatch.setenv("QAKB_SEED", "17")
        env_run = tmp_path / "env"
        assert main(["synth", "--out", str(env_run),
                     "--entities", "10"]) == 0
        assert (flagged / "train.tsv").read_bytes() == \
            (env_run / "train.tsv").read_bytes()

    def test_config_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QAKB_SEED", "99")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=17\n")
        flagged = tmp_path / "flagged"
        via_cfg = tmp_path / "cfg"
        assert main(["synth", "--seed", "17", "--out", str(flagged),
                     "--entities", "10"]) == 0
        assert main(["synth", "--config", str(cfg), "--out", str(via_cfg),
                     "--entities", "10"]) == 0
        assert (flagged / "train.tsv").read_bytes() == \
            (via_cfg / "train.tsv").read_bytes()

    def test_bad_rate_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "x"),
                           "--collision-rate", "1.5")
        assert code == 1

    def test_more_entities_than_words_is_usage_error(self, capsys, tmp_path):
        """Rejected before any word is drawn, which would never end."""
        code, out, err = run(capsys, "synth", "--out", str(tmp_path / "x"),
                             "--entities", "8000", "--relations", "1")
        assert (code, out) == (1, "")
        assert err == ("error: 8000 entities and 1 relations need more "
                       "than the 8000 coined words\n")
        assert not (tmp_path / "x").exists()


class TestGenData:
    def test_writes_training_files(self, bench, tmp_path, capsys):
        out = tmp_path / "data"
        code, stdout, _ = run(capsys, "gen-data", "--kb",
                              str(bench / "kb.qakb"), "--questions",
                              str(bench / "train.tsv"), "--out", str(out))
        assert code == 0
        for name in ("tagged.tsv", "relation_pairs.tsv", "type_pairs.tsv"):
            assert (out / name).is_file()
        assert "tagged" in stdout

    def test_deterministic(self, bench, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-data", "--kb", str(bench / "kb.qakb"),
                         "--questions", str(bench / "train.tsv"),
                         "--out", str(out)]) == 0
        for name in ("tagged.tsv", "relation_pairs.tsv", "type_pairs.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestIngest:
    def test_builds_kb_from_tsv(self, tmp_path, capsys):
        facts = tmp_path / "facts.tsv"
        facts.write_text(
            "m.02mjmr\t/people/person/place_of_birth\tm.02hrh0_\n"
        )
        aliases = tmp_path / "aliases.tsv"
        aliases.write_text("m.02mjmr\tbarack obama\n")
        out = tmp_path / "kb.qakb"
        code, stdout, _ = run(capsys, "ingest", "--facts", str(facts),
                              "--aliases", str(aliases), "--out", str(out))
        assert code == 0
        assert out.is_file()
        assert "1 facts" in stdout

    @pytest.mark.parametrize("types", [
        "m.0a01\t   \nm.0a02\tfilm\n",
        "<http://rdf.freebase.com/ns/m.0a01> "
        "<http://rdf.freebase.com/ns/common.topic.notable_types> "
        "<http://rdf.freebase.com/ns/m.0t> .\n"
        '<http://rdf.freebase.com/ns/m.0t> '
        '<http://rdf.freebase.com/ns/type.object.name> "" .\n'])
    def test_blank_type_label_leaves_entity_untyped(self, tmp_path, capsys,
                                                    types):
        """A type-channel model answers for an entity whose type label is
        blank, treating it as untyped.  The alias-less m.0b01 gives the
        question a negative relation, so train-e2e has a loss to train."""
        (tmp_path / "facts.tsv").write_text(
            "m.0a01\t/d/x/founded\tm.0o1\nm.0a02\t/d/x/founded\tm.0o2\n"
            "m.0b01\t/e/y/owns\tm.0o3\n")
        (tmp_path / "aliases.tsv").write_text(
            "m.0a01\tacme\nm.0a02\tacme\n")
        (tmp_path / "types.txt").write_text(types)
        (tmp_path / "q.tsv").write_text(
            "m.0a01\t/d/x/founded\tm.0o1\twho founded acme\n")
        kb, model = str(tmp_path / "kb.qakb"), str(tmp_path / "m.nn")
        assert main(["ingest", "--facts", str(tmp_path / "facts.tsv"),
                     "--aliases", str(tmp_path / "aliases.tsv"),
                     "--types", str(tmp_path / "types.txt"),
                     "--out", kb]) == 0
        assert main(["train-e2e", "--kb", kb, "--questions",
                     str(tmp_path / "q.tsv"), "--variant", "qa-t-mwst",
                     "--out", model, "--epochs", "1", "--hidden-size", "4",
                     "--max-len", "6"]) == 0
        (tmp_path / "q.txt").write_text("who founded acme\n")
        capsys.readouterr()
        code, stdout, err = run(capsys, "answer", "--kb", kb, "--model",
                                model, "--variant", "qa-t-mwst",
                                "--questions", str(tmp_path / "q.txt"))
        assert code == 0, err
        record = json.loads(stdout)
        assert record["relation"] == "/d/x/founded"
        assert "s_qt" in record["scores"]

    def test_type_name_stripped_in_both_formats(self, tmp_path):
        """One entity typed ``" Film "`` by N-Triples and ``" Film "`` by
        TSV gets the same notable type."""
        (tmp_path / "facts.tsv").write_text("m.0a01\t/d/x/founded\tm.0o1\n")
        formats = {
            "nt": "<http://rdf.freebase.com/ns/m.0a01> "
                  "<http://rdf.freebase.com/ns/common.topic.notable_types> "
                  "<http://rdf.freebase.com/ns/m.0t> .\n"
                  '<http://rdf.freebase.com/ns/m.0t> '
                  '<http://rdf.freebase.com/ns/type.object.name> " Film " .\n',
            "tsv": "m.0a01\t Film \n",
        }
        for name, types in formats.items():
            (tmp_path / f"types.{name}").write_text(types)
            kb = tmp_path / f"{name}.qakb"
            assert main(["ingest", "--facts", str(tmp_path / "facts.tsv"),
                         "--types", str(tmp_path / f"types.{name}"),
                         "--out", str(kb)]) == 0
            assert notable_type(load_kb(str(kb)), "m.0a01") == "film", name

    def test_whitespace_in_type_name_folds_to_spaces(self, tmp_path,
                                                     capsys):
        """An escaped tab in an N-Triples type name would split its line
        of type_pairs.tsv; folded to a space, the pipeline trains on it."""
        ns = "http://rdf.freebase.com/ns/"
        (tmp_path / "facts.tsv").write_text(
            "m.0a01\t/film/film/directed_by\tm.0p01\n"
            "m.0a02\t/film/film/directed_by\tm.0p02\n")
        (tmp_path / "aliases.tsv").write_text(
            "m.0a01\tthe film\nm.0a02\tthe film\n")
        (tmp_path / "types.nt").write_text(
            f"<{ns}m.0a01> <{ns}common.topic.notable_types> <{ns}m.0t01> .\n"
            f"<{ns}m.0a02> <{ns}common.topic.notable_types> <{ns}m.0t02> .\n"
            f'<{ns}m.0t01> <{ns}type.object.name> '
            f'" Film \\"Noir\\"\\t\\\\ \\n Drama"@en .\n'
            f'<{ns}m.0t02> <{ns}type.object.name> "Person" .\n')
        (tmp_path / "q.tsv").write_text(
            "m.0a01\t/film/film/directed_by\tm.0p01\twho directed the film\n")
        kb = tmp_path / "kb.qakb"
        for argv in (
                ["ingest", "--facts", str(tmp_path / "facts.tsv"),
                 "--aliases", str(tmp_path / "aliases.tsv"),
                 "--types", str(tmp_path / "types.nt"), "--out", str(kb)],
                ["gen-data", "--kb", str(kb), "--questions",
                 str(tmp_path / "q.tsv"), "--out", str(tmp_path / "data")],
                ["train-pipeline", "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "models"), "--epochs", "1",
                 "--hidden-size", "4", "--embed-dim", "6"]):
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        assert notable_type(load_kb(str(kb)), "m.0a01") == \
            'film "noir" \\ drama'
        assert (tmp_path / "models" / "type.nn").is_file()

    def test_types_format_read_past_leading_comments(self, tmp_path,
                                                     capsys):
        """The format is chosen by the first line that is neither blank
        nor a ``#`` comment: N-Triples after a comment types its entity,
        and a TSV file's comment is still a bad line 1."""
        (tmp_path / "facts.tsv").write_text("m.0a01\t/d/x/founded\tm.0o1\n")
        nt = tmp_path / "types.nt"
        nt.write_text(
            "# types\n\n"
            "<http://rdf.freebase.com/ns/m.0a01> "
            "<http://rdf.freebase.com/ns/common.topic.notable_types> "
            "<http://rdf.freebase.com/ns/m.0t> .\n"
            '<http://rdf.freebase.com/ns/m.0t> '
            '<http://rdf.freebase.com/ns/type.object.name> "Film" .\n')
        kb = tmp_path / "kb.qakb"
        code, _, err = run(capsys, "ingest", "--facts",
                           str(tmp_path / "facts.tsv"), "--types", str(nt),
                           "--out", str(kb))
        assert code == 0, err
        assert notable_type(load_kb(str(kb)), "m.0a01") == "film"
        tsv = tmp_path / "types.tsv"
        tsv.write_text("# types\nm.0a01\tfilm\n")
        code, _, err = run(capsys, "ingest", "--facts",
                           str(tmp_path / "facts.tsv"), "--types", str(tsv),
                           "--out", str(tmp_path / "tsv.qakb"))
        assert code == 2
        assert err.startswith(f"error: {tsv}: line 1: ")

    def test_facts_line_without_object_is_data_error(self, tmp_path, capsys):
        facts = tmp_path / "facts.tsv"
        facts.write_text("m.02\t/a/b\tm.03\nm.01\t/a/b\t\n")
        code, _, err = run(capsys, "ingest", "--facts", str(facts),
                           "--out", str(tmp_path / "kb.qakb"))
        assert code == 2
        assert err.startswith(f"error: {facts}: line 2: ")
        assert not (tmp_path / "kb.qakb").exists()

    def test_bad_ntriples_line_names_line_and_column(self, tmp_path,
                                                     capsys):
        """A malformed statement exits 2 naming the file, the line, the
        part expected and its column, and writes no snapshot."""
        (tmp_path / "facts.tsv").write_text("m.0a01\t/d/x/founded\tm.0o1\n")
        types = tmp_path / "types.nt"
        types.write_text(
            "<http://rdf.freebase.com/ns/m.0t> "
            "<http://rdf.freebase.com/ns/type.object.name> \"Film\"@en .\n"
            "# the assignment below has no '.'\n"
            "<http://rdf.freebase.com/ns/m.0a01> "
            "<http://rdf.freebase.com/ns/common.topic.notable_types> "
            "<http://rdf.freebase.com/ns/m.0t>\n")
        out = tmp_path / "kb.qakb"
        code, stdout, err = run(capsys, "ingest", "--facts",
                                str(tmp_path / "facts.tsv"), "--types",
                                str(types), "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err == (f"error: {types}: line 3: expected a terminal '.' "
                       "at column 126\n")
        assert not out.exists()

    def test_bad_facts_line_is_data_error(self, tmp_path, capsys):
        facts = tmp_path / "facts.tsv"
        facts.write_text("not a triple\n")
        code, _, err = run(capsys, "ingest", "--facts", str(facts),
                           "--out", str(tmp_path / "kb.qakb"))
        assert code == 2
        assert "facts.tsv" in err


class TestTrainingCommands:
    def test_pipeline_training_writes_snapshots(self, bench, tmp_path,
                                                capsys):
        data = tmp_path / "data"
        models = tmp_path / "models"
        assert main(["gen-data", "--kb", str(bench / "kb.qakb"),
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(data)]) == 0
        code, stdout, _ = run(capsys, "train-pipeline", "--data", str(data),
                              "--out", str(models), "--epochs", "1",
                              "--hidden-size", "4", "--embed-dim", "6")
        assert code == 0
        for name in ("tagger.nn", "relation.nn", "type.nn"):
            assert (models / name).is_file()
            assert (models / (name + ".meta.json")).is_file()
        assert "final loss" in stdout

    def test_e2e_config_file_merges_under_flags(self, bench, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nhidden_size=4\nembed_dim=6\nmax_len=6\n")
        m1 = tmp_path / "m1.nn"
        assert main(["train-e2e", "--kb", str(bench / "kb.qakb"),
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(m1), "--variant", "qa-t",
                     "--config", str(cfg)]) == 0
        meta = read_model_meta(str(m1), "e2e")
        assert meta["config"]["epochs"] == 1
        assert meta["config"]["hidden_size"] == 4

        m2 = tmp_path / "m2.nn"
        assert main(["train-e2e", "--kb", str(bench / "kb.qakb"),
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(m2), "--variant", "qa-t",
                     "--config", str(cfg), "--hidden-size", "5"]) == 0
        assert read_model_meta(str(m2), "e2e")["config"]["hidden_size"] == 5

    def test_bad_gamma_is_usage_error(self, bench, tmp_path, capsys):
        code, _, err = run(capsys, "train-e2e", "--kb",
                           str(bench / "kb.qakb"), "--questions",
                           str(bench / "train.tsv"),
                           "--out", str(tmp_path / "m.nn"),
                           "--variant", "qa-t", "--gamma", "0")
        assert code == 1

    @pytest.mark.parametrize("command", ["train-e2e", "train-pipeline"])
    @pytest.mark.parametrize("flag", ["--learning-rate", "--gamma"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_hyperparameter_is_usage_error(
            self, bench, tmp_path, capsys, command, flag, value):
        """A NaN or infinite step size or margin used to train to a NaN
        loss and exit 0."""
        source = {"train-e2e": ["--kb", str(bench / "kb.qakb"),
                                "--questions", str(bench / "train.tsv"),
                                "--variant", "qa-t"],
                  "train-pipeline": ["--data", str(tmp_path / "data")]}
        code, stdout, err = run(capsys, command, *source[command], "--out",
                                str(tmp_path / "out"), flag, value)
        assert code == 1
        assert stdout == "" and "finite and positive" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1", "-0.1"])
    def test_dropout_outside_range_is_usage_error(self, tmp_path, capsys,
                                                  value):
        """The training config is the one check on the dropout
        probability; it runs before any input is read."""
        code, stdout, err = run(capsys, "train-pipeline", "--data",
                                str(tmp_path / "data"), "--out",
                                str(tmp_path / "out"), "--dropout", value)
        assert code == 1
        assert stdout == "" and "dropout_p must be in [0, 1)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["learning_rate", "gamma"])
    def test_non_finite_config_value_is_usage_error(self, bench, tmp_path,
                                                    capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs=1\n{key}=nan\n")
        code, stdout, err = run(capsys, "train-e2e", "--kb",
                                str(bench / "kb.qakb"), "--questions",
                                str(bench / "train.tsv"), "--variant", "qa-t",
                                "--out", str(tmp_path / "m.nn"),
                                "--config", str(cfg))
        assert code == 1
        assert stdout == "" and f"{key} must be finite" in err
        assert not (tmp_path / "m.nn").exists()


    @pytest.mark.parametrize("command", ["train-e2e", "train-pipeline"])
    def test_model_too_large_to_allocate_is_usage_error(
            self, bench, tmp_path, capsys, monkeypatch, command):
        """A MemoryError while a model is drawn, as numpy raises at once
        for ``--hidden-size 1000000000``, exits 1 with one line naming the
        size flags.  The draw is made to fail here, so that no huge array
        is ever asked for."""
        def refuse(rng, shape):
            raise MemoryError("Unable to allocate 179. GiB for an array "
                              f"with shape {shape} and data type float64")

        source = {"train-e2e": ["--kb", str(bench / "kb.qakb"),
                                "--questions", str(bench / "train.tsv"),
                                "--variant", "qa-t"],
                  "train-pipeline": ["--data", str(tmp_path / "data")]}
        assert main(["gen-data", "--kb", str(bench / "kb.qakb"),
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(tmp_path / "data")]) == 0
        monkeypatch.setattr(layers, "glorot", refuse)
        capsys.readouterr()
        code, stdout, err = run(capsys, command, *source[command], "--out",
                                str(tmp_path / "out"), "--epochs", "1")
        assert code == 1, err
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith("error: the model does not fit in memory "
                              "(Unable to allocate 179. GiB")
        assert err.endswith(": lower --hidden-size, --embed-dim or "
                            "--char-dim\n")
        assert not (tmp_path / "out").exists()

    def test_e2e_with_no_usable_question_exits_2(self, bench, tmp_path,
                                                 capsys):
        """Over a KB with no facts no question has a negative subject or
        relation, so every step would be skipped.  train-e2e used to
        print a loss of 0 and write the untrained model."""
        facts = tmp_path / "facts.tsv"
        facts.write_text("")
        kb, model = tmp_path / "kb.qakb", tmp_path / "m.nn"
        assert main(["ingest", "--facts", str(facts), "--out", str(kb)]) == 0
        capsys.readouterr()
        questions = bench / "train.tsv"
        code, stdout, err = run(capsys, "train-e2e", "--kb", str(kb),
                                "--questions", str(questions), "--variant",
                                "qa-t", "--epochs", "1", "--out", str(model))
        assert code == 2, err
        assert stdout == ""
        assert err.startswith(f"error: {questions}: no question has a "
                              "negative")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bench", "facts.tsv", "kb.qakb"]


class TestAnswer:
    @pytest.fixture()
    def e2e_model(self, bench, tmp_path):
        model = tmp_path / "model.nn"
        assert main(["train-e2e", "--kb", str(bench / "kb.qakb"),
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(model), "--variant", "qa-t",
                     "--epochs", "1", "--hidden-size", "4",
                     "--embed-dim", "6", "--max-len", "6"]) == 0
        return model

    def test_file_loop_emits_json_lines(self, bench, tmp_path, e2e_model,
                                        capsys):
        questions = [line.split("\t")[3]
                     for line in (bench / "test.tsv").read_text().splitlines()]
        qfile = tmp_path / "q.txt"
        qfile.write_text("\n".join(questions[:2]) + "\nzzz unknown\n")
        code, stdout, _ = run(capsys, "answer", "--kb",
                              str(bench / "kb.qakb"), "--model",
                              str(e2e_model), "--variant", "qa-t",
                              "--questions", str(qfile))
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert {"question", "entity", "relation", "objects",
                "scores"} <= set(first)
        assert json.loads(lines[2]) == {"question": "zzz unknown",
                                        "error": "no_candidates"}

    def test_stdin_loop(self, bench, e2e_model, capsys, monkeypatch):
        question = (bench / "test.tsv").read_text().splitlines()[0] \
            .split("\t")[3]
        monkeypatch.setattr("sys.stdin", io.StringIO(question + "\n\n"))
        code, stdout, _ = run(capsys, "answer", "--kb",
                              str(bench / "kb.qakb"), "--model",
                              str(e2e_model), "--variant", "qa-t")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["question"] == question

    def test_mode_flags_validated(self, bench, e2e_model, capsys, tmp_path):
        qfile = tmp_path / "q.txt"
        qfile.write_text("x\n")
        code, _, _ = run(capsys, "answer", "--kb", str(bench / "kb.qakb"),
                         "--questions", str(qfile))
        assert code == 1
        code, _, _ = run(capsys, "answer", "--kb", str(bench / "kb.qakb"),
                         "--model", str(e2e_model), "--pipeline", "x",
                         "--variant", "qa-t", "--questions", str(qfile))
        assert code == 1
        code, _, _ = run(capsys, "answer", "--kb", str(bench / "kb.qakb"),
                         "--model", str(e2e_model), "--questions",
                         str(qfile))
        assert code == 1

    @pytest.mark.parametrize("command", ["answer", "eval"])
    def test_out_degree_sort_rejected_with_pipeline(self, capsys, tmp_path,
                                                    command):
        # rejected before any file is read, so none of these need exist
        extra = (["--questions", str(tmp_path / "absent.tsv"), "--out",
                  str(tmp_path / "rep")] if command == "eval" else [])
        code, stdout, err = run(capsys, command, "--kb",
                                str(tmp_path / "absent.qakb"), "--pipeline",
                                str(tmp_path / "absent"), "--strategy",
                                "p-qa", "--out-degree-sort", *extra)
        assert code == 1
        assert stdout == ""
        assert err == "error: --out-degree-sort applies only to --model\n"

    @pytest.mark.parametrize("command, flags", [
        ("eval", ["--pipeline", "P", "--strategy", "p-qa", "--model", "M",
                  "--variant", "qa-t"]),
        ("eval", ["--oracle", "--strategy", "p-qa", "--model", "M",
                  "--variant", "qa-t"]),
        ("eval", ["--oracle", "--pipeline", "P", "--strategy", "p-qa"]),
        ("answer", ["--pipeline", "P", "--strategy", "p-qa", "--variant",
                    "qa-t"]),
        ("answer", ["--model", "M", "--variant", "qa-t", "--strategy",
                    "p-qa-type"]),
    ])
    def test_flag_of_another_stack_rejected(self, capsys, tmp_path, command,
                                            flags):
        # rejected before any file is read, so none of these need exist
        paths = {"P": str(tmp_path / "absent"), "M": str(tmp_path / "m.nn")}
        extra = (["--questions", str(tmp_path / "absent.tsv"), "--out",
                  str(tmp_path / "rep")] if command == "eval" else [])
        code, stdout, err = run(capsys, command, "--kb",
                                str(tmp_path / "absent.qakb"),
                                *(paths.get(f, f) for f in flags), *extra)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ") and "no such file" not in err
        assert not (tmp_path / "rep").exists()

    def test_deterministic_output(self, bench, e2e_model, capsys, tmp_path):
        qfile = tmp_path / "q.txt"
        question = (bench / "test.tsv").read_text().splitlines()[0] \
            .split("\t")[3]
        qfile.write_text(question + "\n")
        outs = []
        for _ in range(2):
            code, stdout, _ = run(capsys, "answer", "--kb",
                                  str(bench / "kb.qakb"), "--model",
                                  str(e2e_model), "--variant", "qa-t",
                                  "--questions", str(qfile))
            assert code == 0
            outs.append(stdout)
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """A small benchmark with a qa-t and a qa-t-mwst snapshot and a
    trained pipeline directory, made once for the tests that only read or
    copy them."""
    root = tmp_path_factory.mktemp("snapshots")
    bench = root / "bench"
    assert main(["synth", "--seed", "1", "--out", str(bench),
                 "--entities", "14", "--relations", "3"]) == 0
    models = {}
    for variant in ("qa-t", "qa-t-mwst"):
        models[variant] = root / f"{variant}.nn"
        assert main(["train-e2e", "--kb", str(bench / "kb.qakb"),
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(models[variant]), "--variant", variant,
                     "--epochs", "1", "--hidden-size", "4",
                     "--embed-dim", "6", "--max-len", "6"]) == 0
    assert main(["gen-data", "--kb", str(bench / "kb.qakb"),
                 "--questions", str(bench / "train.tsv"),
                 "--out", str(root / "data")]) == 0
    models["pipeline"] = root / "pipeline"
    assert main(["train-pipeline", "--data", str(root / "data"),
                 "--out", str(models["pipeline"]), "--epochs", "1",
                 "--hidden-size", "4", "--embed-dim", "6"]) == 0
    assert (models["pipeline"] / "type.nn").is_file()
    return bench, models


def _cli_env(*unset):
    """The environment for ``python -m qakb.cli`` with ``src`` importable
    and the variables ``unset`` removed."""
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    return env


def test_non_utf8_stdin_in_the_c_locale_is_data_error(snapshots):
    """With no locale set, Python reads stdin with ``surrogateescape``;
    ``answer`` still rejects a line that is not UTF-8."""
    bench, models = snapshots
    proc = subprocess.run(
        [sys.executable, "-m", "qakb.cli", "answer",
         "--kb", str(bench / "kb.qakb"), "--model", str(models["qa-t"]),
         "--variant", "qa-t"],
        input=b"\xff\xfewho founded acme\n", capture_output=True,
        timeout=300, env=_cli_env("LANG", "LC_ALL", "LC_CTYPE",
                                  "PYTHONIOENCODING"))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: stdin: not UTF-8 text (invalid start byte)\n"


def test_closed_stdout_ends_quietly(snapshots, tmp_path):
    """``qakb answer ... | head -1``: the reader closes stdout after one
    record, and the command ends with 141 and nothing on stderr."""
    bench, models = snapshots
    question = (bench / "test.tsv").read_text().splitlines()[0].split("\t")[3]
    qfile = tmp_path / "q.txt"
    qfile.write_text((question + "\n") * 3000)  # far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "qakb.cli", "answer",
         "--kb", str(bench / "kb.qakb"), "--pipeline", str(models["pipeline"]),
         "--strategy", "p-qa", "--questions", str(qfile)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141
    assert json.loads(first)["question"] == question
    assert err == b""


def _answer_and_eval(capsys, tmp_path, bench, *model_args):
    """(code, stdout, stderr) of ``answer`` and of ``eval`` on the
    benchmark's KB with the given model flags."""
    capsys.readouterr()
    qfile = tmp_path / "q.txt"
    qfile.write_text((bench / "test.tsv").read_text().splitlines()[0]
                     .split("\t")[3] + "\n")
    kb = str(bench / "kb.qakb")
    return [run(capsys, "answer", "--kb", kb, "--questions", str(qfile),
                *model_args),
            run(capsys, "eval", "--kb", kb, "--questions",
                str(bench / "test.tsv"), "--out", str(tmp_path / "rep"),
                *model_args)]


@pytest.mark.parametrize("stack, flags", [
    ("pipeline", ["--strategy", "p-qa-out-type"]),
    ("qa-t-mwst", ["--variant", "qa-t-mwst", "--out-degree-sort"]),
])
def test_answer_and_eval_agree(snapshots, capsys, tmp_path, stack, flags):
    """Accuracy counted from answer's records over test.tsv is eval's."""
    bench, models = snapshots
    source = ["--pipeline" if stack == "pipeline" else "--model",
              str(models[stack]), *flags]
    rows = [line.split("\t")
            for line in (bench / "test.tsv").read_text().splitlines()]
    qfile = tmp_path / "q.txt"
    qfile.write_text("".join(row[3] + "\n" for row in rows))
    kb = str(bench / "kb.qakb")
    capsys.readouterr()
    code, stdout, _ = run(capsys, "answer", "--kb", kb, "--questions",
                          str(qfile), *source)
    assert code == 0
    records = [json.loads(line) for line in stdout.splitlines()]
    assert len(records) == len(rows)
    correct = sum((rec.get("entity"), rec.get("relation")) == (s, r)
                  for rec, (s, r, _, _) in zip(records, rows))
    code, _, _ = run(capsys, "eval", "--kb", kb, "--questions",
                     str(bench / "test.tsv"), "--out", str(tmp_path / "rep"),
                     *source)
    assert code == 0
    (report,) = json.loads((tmp_path / "rep" / "report.json")
                           .read_text()).values()
    assert report["accuracy"] == correct / len(rows)


class TestMissingModelFiles:
    """A snapshot is its .nn file and its .meta.json sidecar; either one
    missing, or a type strategy without type.nn, exits 2 before any
    question is answered."""

    @pytest.mark.parametrize("name", ["qa-t", "tagger.nn", "relation.nn",
                                      "type.nn"])
    def test_missing_sidecar(self, snapshots, capsys, tmp_path, name):
        bench, models = snapshots
        if name == "qa-t":
            model = tmp_path / "m.nn"
            shutil.copy(models["qa-t"], model)  # without its sidecar
            flags = ["--model", str(model), "--variant", "qa-t"]
        else:
            shutil.copytree(models["pipeline"], tmp_path / "p")
            model = tmp_path / "p" / name
            os.remove(f"{model}.meta.json")
            flags = ["--pipeline", str(tmp_path / "p"),
                     "--strategy", "p-qa-type"]
        for code, stdout, err in _answer_and_eval(capsys, tmp_path, bench,
                                                  *flags):
            assert code == 2
            assert stdout == ""
            assert err == f"error: {model}.meta.json: no such file\n"
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("strategy", ["p-qa-type", "p-qa-out-type",
                                          "p-qa-type-out"])
    def test_type_strategy_without_type_matcher(self, snapshots, capsys,
                                                tmp_path, strategy):
        bench, models = snapshots
        shutil.copytree(models["pipeline"], tmp_path / "p")
        for name in ("type.nn", "type.nn.meta.json"):
            os.remove(tmp_path / "p" / name)
        for code, stdout, err in _answer_and_eval(
                capsys, tmp_path, bench, "--pipeline", str(tmp_path / "p"),
                "--strategy", strategy):
            assert code == 2
            assert stdout == ""
            assert err.startswith(f"error: {tmp_path / 'p' / 'type.nn'}: ")
            assert strategy in err and "Traceback" not in err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("strategy", ["p-qa", "p-qa-out"])
    def test_untyped_strategy_runs_without_type_matcher(
            self, snapshots, capsys, tmp_path, strategy):
        bench, models = snapshots
        shutil.copytree(models["pipeline"], tmp_path / "p")
        for name in ("type.nn", "type.nn.meta.json"):
            os.remove(tmp_path / "p" / name)
        for code, stdout, err in _answer_and_eval(
                capsys, tmp_path, bench, "--pipeline", str(tmp_path / "p"),
                "--strategy", strategy):
            assert code == 0, err
            assert stdout


def test_factless_mention_gives_one_record_on_both_stacks(snapshots, capsys,
                                                         tmp_path):
    """A question naming only an entity that is never a subject ("baz",
    an object's alias) gets the same ``no_relation`` record from the
    pipeline and from the joint model; the joint model said
    ``no_candidates``."""
    _, models = snapshots
    (tmp_path / "facts.tsv").write_text("m.0a\t/r/x/y\tm.0b\n")
    (tmp_path / "aliases.tsv").write_text("m.0a\tfoo\nm.0b\tbaz\n")
    kb = tmp_path / "kb.qakb"
    assert main(["ingest", "--facts", str(tmp_path / "facts.tsv"),
                 "--aliases", str(tmp_path / "aliases.tsv"),
                 "--out", str(kb)]) == 0
    qfile = tmp_path / "q.txt"
    qfile.write_text("where is baz\n")
    records = []
    for flags in (["--pipeline", str(models["pipeline"]), "--strategy",
                   "p-qa-out-type"],
                  ["--model", str(models["qa-t-mwst"]), "--variant",
                   "qa-t-mwst"]):
        capsys.readouterr()
        code, stdout, err = run(capsys, "answer", "--kb", str(kb),
                                "--questions", str(qfile), *flags)
        assert code == 0, err
        records.append(json.loads(stdout))
    assert records == [{"question": "where is baz",
                        "error": "no_relation"}] * 2


def test_retraining_without_type_pairs_drops_the_type_matcher(
        snapshots, capsys, tmp_path):
    """``train-pipeline`` into a directory that holds an earlier run's
    ``type.nn`` leaves no type matcher when this run trains none, so a
    type strategy exits 2 instead of answering with a matcher of another
    run."""
    bench, models = snapshots
    shutil.copytree(models["pipeline"], tmp_path / "p")
    shutil.copytree(models["pipeline"].parent / "data", tmp_path / "data")
    os.remove(tmp_path / "data" / "type_pairs.tsv")
    capsys.readouterr()
    code, stdout, err = run(capsys, "train-pipeline", "--data",
                            str(tmp_path / "data"), "--out",
                            str(tmp_path / "p"), "--epochs", "1",
                            "--hidden-size", "4", "--embed-dim", "6",
                            "--seed", "7")
    assert code == 0, err
    assert "type:" not in stdout
    assert sorted(p.name for p in (tmp_path / "p").iterdir()) == [
        "relation.nn", "relation.nn.meta.json",
        "tagger.nn", "tagger.nn.meta.json"]
    for code, stdout, err in _answer_and_eval(
            capsys, tmp_path, bench, "--pipeline", str(tmp_path / "p"),
            "--strategy", "p-qa-type"):
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'p' / 'type.nn'}: ")


def test_failed_retraining_keeps_every_earlier_stage(snapshots, capsys,
                                                    tmp_path):
    """``train-pipeline`` into a directory that holds an earlier run's
    stages, with a stage it cannot train, exits 2 naming that stage's
    file and saves no stage, so answering never mixes two runs."""
    bench, models = snapshots
    shutil.copytree(models["pipeline"], tmp_path / "p")
    shutil.copytree(models["pipeline"].parent / "data", tmp_path / "data")
    pairs = tmp_path / "data" / "relation_pairs.tsv"
    pairs.write_text(pairs.read_text().split("\n", 1)[0] + "\n")
    before = {p.name: p.read_bytes() for p in (tmp_path / "p").iterdir()}
    assert len(before) == 6
    capsys.readouterr()
    code, stdout, err = run(capsys, "train-pipeline", "--data",
                            str(tmp_path / "data"), "--out",
                            str(tmp_path / "p"), "--epochs", "1",
                            "--hidden-size", "4", "--embed-dim", "6",
                            "--seed", "7")
    assert code == 2
    assert stdout == ""
    assert err == f"error: {pairs}: no matcher pairs to train on\n"
    assert {p.name: p.read_bytes()
            for p in (tmp_path / "p").iterdir()} == before


@pytest.mark.parametrize("name, other", [("type", "relation"),
                                         ("relation", "type")])
def test_matcher_under_the_other_matchers_name_is_data_error(
        snapshots, capsys, tmp_path, name, other):
    """A matcher snapshot copied with its sidecar over the other
    matcher's files exits 2, naming the file and both matchers, instead
    of answering with the wrong matcher."""
    bench, models = snapshots
    shutil.copytree(models["pipeline"], tmp_path / "p")
    for suffix in ("", ".meta.json"):
        shutil.copy(tmp_path / "p" / f"{other}.nn{suffix}",
                    tmp_path / "p" / f"{name}.nn{suffix}")
    path = tmp_path / "p" / f"{name}.nn"
    for code, stdout, err in _answer_and_eval(
            capsys, tmp_path, bench, "--pipeline", str(tmp_path / "p"),
            "--strategy", "p-qa-out-type"):
        assert code == 2
        assert stdout == ""
        assert err == (f"error: {path}: holds the {other!r} matcher, "
                       f"expected the {name!r} matcher\n")
    assert not (tmp_path / "rep").exists()


class TestSnapshotVariant:
    """answer and eval take the variant from the snapshot's meta; a
    --variant naming another is a usage error that names both."""

    @pytest.mark.parametrize("trained, asked", [("qa-t-mwst", "qa-t"),
                                                ("qa-t", "qa-t-mwst")])
    def test_mismatch_is_usage_error(self, snapshots, capsys, tmp_path,
                                     trained, asked):
        bench, models = snapshots
        capsys.readouterr()
        qfile = tmp_path / "q.txt"
        qfile.write_text((bench / "test.tsv").read_text().splitlines()[0]
                         .split("\t")[3] + "\n")
        for cmd in (["answer", "--questions", str(qfile)],
                    ["eval", "--questions", str(bench / "test.tsv"),
                     "--out", str(tmp_path / "rep")]):
            code, stdout, err = run(capsys, *cmd, "--kb",
                                    str(bench / "kb.qakb"), "--model",
                                    str(models[trained]), "--variant", asked)
            assert code == 1, cmd
            assert stdout == ""
            assert f"--variant {asked} " in err and trained in err
            assert "Traceback" not in err
        assert not (tmp_path / "rep").exists()

    def test_records_carry_the_snapshot_variant(self, snapshots, capsys,
                                                tmp_path):
        bench, models = snapshots
        capsys.readouterr()
        qfile = tmp_path / "q.txt"
        qfile.write_text((bench / "test.tsv").read_text().splitlines()[0]
                         .split("\t")[3] + "\n")
        code, stdout, _ = run(capsys, "answer", "--kb", str(bench / "kb.qakb"),
                              "--model", str(models["qa-t-mwst"]),
                              "--variant", "qa-t-mwst", "--out-degree-sort",
                              "--questions", str(qfile))
        assert code == 0
        record = json.loads(stdout)
        assert record["variant"] == "qa-t-mwst"
        assert "s_qt" in record["scores"]


class TestCorruptSnapshots:
    """A truncated or garbled KB, .nn or .meta.json exits 2 with a one-line
    error, never a traceback."""

    @staticmethod
    def _damage(path, how):
        data = bytearray(path.read_bytes())
        if how.startswith("truncate"):
            path.write_bytes(bytes(data[:int(how.split(":")[1])]))
        elif how.startswith("flip"):
            data[int(how.split(":")[1])] ^= 0xFF
            path.write_bytes(bytes(data))
        elif how.startswith("garble"):
            start = int(how.split(":")[1])
            for i in range(start, min(start + 64, len(data))):
                data[i] ^= 0xA5
            path.write_bytes(bytes(data))
        else:
            path.write_text(how)

    @pytest.mark.parametrize("target, how", [
        ("kb", "truncate:200"),
        ("kb", "garble:40"),
        ("nn", "truncate:100"),
        ("nn", "garble:5"),
        ("meta", "truncate:30"),
        ("meta", "garble:0"),
        ("meta", '{"kind": "e2e", "config": 5}'),
        ("meta", "[1, 2]"),
    ])
    def test_exits_2_without_traceback(self, snapshots, capsys, tmp_path,
                                       target, how):
        code, stdout, err = self._answer_damaged(snapshots, capsys, tmp_path,
                                                 target, how)
        assert code == 2, err
        assert stdout == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("target, how, says", [
        ("meta", "[1, 2]", "{model}: {model}.meta.json: not a JSON object"),
        ("meta", "[" * 200_000 + "]" * 200_000, "{model}: {model}.meta.json: "
         "not JSON (maximum recursion depth exceeded"),
        ("nn", "NNQA1", "{model}: model format NNQA1 is no longer read"),
        ("kb", "KBQA9", "{kb}: snapshot format KBQA9 is no longer read"),
        ("kb", "garble:40", "{kb}: truncated or garbled snapshot"),
    ], ids=["sidecar", "sidecar-too-deep", "nn-header", "kb-header",
            "kb-garbled"])
    def test_whole_file_fault_names_no_line(self, snapshots, capsys,
                                            tmp_path, target, how, says):
        """A fault of a whole snapshot file, which has no lines, is
        reported with the file's name and no line number."""
        code, stdout, err = self._answer_damaged(snapshots, capsys, tmp_path,
                                                 target, how)
        assert code == 2, err
        assert stdout == ""
        assert err.startswith("error: " + says.format(
            model=tmp_path / "m.nn", kb=tmp_path / "kb.qakb"))
        assert "line 1:" not in err

    @pytest.mark.parametrize("target", ["kb", "nn"])
    def test_sampled_byte_changes_and_cuts_exit_2(self, snapshots, capsys,
                                                  tmp_path, target):
        """A sample of the single-byte changes and cuts that
        ``tests/test_snapshots.py`` makes at every offset of small files,
        made here of the KB or the qa-t table: ``answer`` and ``eval``
        exit 2 naming the file, from the magic's last byte to the
        checksum's, and write no report."""
        bench, models = snapshots
        path = tmp_path / {"kb": "kb.qakb", "nn": "m.nn"}[target]
        size = len(({"kb": bench / "kb.qakb", "nn": models["qa-t"]}[target])
                   .read_bytes())
        for how in (*(f"flip:{at}" for at in (4, 6, 40, size // 2,
                                               size - 1)),
                    *(f"truncate:{n}" for n in (3, size // 2, size - 1))):
            for command in ("answer", "eval"):
                code, stdout, err = self._answer_damaged(
                    snapshots, capsys, tmp_path, target, how, command)
                assert code == 2, (how, command, err)
                assert stdout == ""
                assert err.startswith(f"error: {path}: "), (how, err)
                assert "Traceback" not in err
        assert not (tmp_path / "report").exists()

    def _answer_damaged(self, snapshots, capsys, tmp_path, target, how,
                        command="answer"):
        """``answer``'s (or ``eval``'s) exit code, stdout and stderr with a
        copy of the KB, the qa-t snapshot or its sidecar damaged as
        ``how`` says."""
        bench, models = snapshots
        capsys.readouterr()
        kb, model = tmp_path / "kb.qakb", tmp_path / "m.nn"
        kb.write_bytes((bench / "kb.qakb").read_bytes())
        model.write_bytes(models["qa-t"].read_bytes())
        meta = tmp_path / "m.nn.meta.json"
        source = models["qa-t"]
        meta.write_bytes((source.parent / (source.name + ".meta.json"))
                         .read_bytes())
        self._damage({"kb": kb, "nn": model, "meta": meta}[target], how)
        qfile = tmp_path / "q.txt"
        qfile.write_text("anything\n")
        if command == "eval":
            return run(capsys, "eval", "--kb", str(kb), "--model", str(model),
                       "--variant", "qa-t", "--questions",
                       str(bench / "test.tsv"), "--out",
                       str(tmp_path / "report"))
        return run(capsys, "answer", "--kb", str(kb), "--model", str(model),
                   "--variant", "qa-t", "--questions", str(qfile))

    @pytest.mark.parametrize("name", ["tagger.nn", "relation.nn", "type.nn"])
    @pytest.mark.parametrize("target, how", [
        ("nn", "truncate:100"),
        ("nn", "garble:5"),
        ("meta", "truncate:30"),
        ("meta", "[1, 2]"),
    ])
    def test_pipeline_exits_2_without_traceback(self, snapshots, capsys,
                                                tmp_path, name, target, how):
        bench, models = snapshots
        capsys.readouterr()
        shutil.copytree(models["pipeline"], tmp_path / "p")
        model = tmp_path / "p" / name
        self._damage({"nn": model,
                      "meta": tmp_path / "p" / f"{name}.meta.json"}[target],
                     how)
        qfile = tmp_path / "q.txt"
        qfile.write_text("anything\n")
        code, stdout, err = run(capsys, "answer", "--kb",
                                str(bench / "kb.qakb"), "--pipeline",
                                str(tmp_path / "p"), "--strategy",
                                "p-qa-type", "--questions", str(qfile))
        assert code == 2, err
        assert stdout == ""
        assert err.startswith(f"error: {model}: ") and "Traceback" not in err

    @pytest.mark.parametrize("strategy", ["p-qa", "p-qa-out"])
    def test_untyped_strategy_never_reads_type_matcher(
            self, snapshots, capsys, tmp_path, strategy):
        """A strategy that does not consult the type answers from a
        directory whose ``type.nn`` is garbled with exit 0 and the bytes
        it gives with an intact one."""
        bench, models = snapshots
        shutil.copytree(models["pipeline"], tmp_path / "p")
        self._damage(tmp_path / "p" / "type.nn", "garble:5")
        rows = (bench / "test.tsv").read_text().splitlines()
        qfile = tmp_path / "q.txt"
        qfile.write_text("".join(row.split("\t")[3] + "\n" for row in rows))
        outputs = []
        for model_dir in (models["pipeline"], tmp_path / "p"):
            capsys.readouterr()
            code, stdout, err = run(capsys, "answer", "--kb",
                                    str(bench / "kb.qakb"), "--pipeline",
                                    str(model_dir), "--strategy", strategy,
                                    "--questions", str(qfile))
            assert code == 0, err
            outputs.append(stdout)
        assert outputs[0] and outputs[1] == outputs[0]

    @pytest.mark.parametrize("key, value", [("learning_rate", math.nan),
                                            ("gamma", math.inf)])
    def test_non_finite_sidecar_value_exits_2(self, snapshots, capsys,
                                              tmp_path, key, value):
        bench, models = snapshots
        capsys.readouterr()
        model = tmp_path / "m.nn"
        model.write_bytes(models["qa-t"].read_bytes())
        meta = json.loads(Path(f"{models['qa-t']}.meta.json").read_text())
        meta["config"][key] = value
        Path(f"{model}.meta.json").write_text(json.dumps(meta))
        qfile = tmp_path / "q.txt"
        qfile.write_text("anything\n")
        code, stdout, err = run(capsys, "answer", "--kb",
                                str(bench / "kb.qakb"), "--model", str(model),
                                "--variant", "qa-t", "--questions", str(qfile))
        assert code == 2, err
        assert stdout == ""
        assert err.startswith(f"error: {model}: ") and "finite" in err

    def test_sidecar_of_a_model_too_large_to_build_exits_2(
            self, snapshots, capsys, tmp_path):
        """A sidecar whose widths ask for more memory than any machine
        holds is a malformed payload, not a traceback."""
        bench, models = snapshots
        capsys.readouterr()
        model = tmp_path / "m.nn"
        model.write_bytes(models["qa-t"].read_bytes())
        meta = json.loads(Path(f"{models['qa-t']}.meta.json").read_text())
        # past the address space, so the allocation fails at once
        meta["config"]["embed_dim"] = 10**15
        Path(f"{model}.meta.json").write_text(json.dumps(meta))
        qfile = tmp_path / "q.txt"
        qfile.write_text("anything\n")
        code, stdout, err = run(capsys, "answer", "--kb",
                                str(bench / "kb.qakb"), "--model", str(model),
                                "--variant", "qa-t", "--questions", str(qfile))
        assert code == 2, err
        assert stdout == ""
        assert err.startswith(f"error: {model}: ") and "Traceback" not in err
        assert f"{model}.meta.json: malformed payload" in err


def _commands_reading_kb(bench, models, out):
    """The flags of every command that reads ``--kb``, each writing under
    ``out`` if it writes at all."""
    questions = str(bench / "train.tsv")
    return (["gen-data", "--questions", questions, "--out", str(out / "data")],
            ["train-e2e", "--questions", questions, "--variant", "qa-t",
             "--out", str(out / "m.nn")],
            ["answer", "--model", str(models["qa-t"]), "--variant", "qa-t",
             "--questions", questions],
            ["eval", "--model", str(models["qa-t"]), "--variant", "qa-t",
             "--questions", questions, "--out", str(out / "rep")])


class TestIllTypedKb:
    """A KB snapshot with a list or column missing, mistyped or out of
    step, an index out of range, an alias count that is below 1 or does
    not sum, or an entity id or entry given twice exits 2 naming the
    file, before any command writes a byte.  Each is written through the
    container's own writer, so its checksum matches and every check past
    it is reached.  So does one whose container does not frame: a cut
    header, a column past the end of the block, trailing bytes or a
    header that is not JSON."""

    @staticmethod
    def _damage(snap, case):
        """``snap``, the fields and columns of a read snapshot, damaged
        as ``case`` says."""
        entities, aliased = len(snap["entities"]), snap["aliased"]
        if case == "subject out of range":
            snap["subjects"][0] = entities
        elif case == "predicate out of range":
            snap["predicates"][0] = len(snap["relations"])
        elif case == "object out of range":
            snap["objects"][0] = entities
        elif case == "negative index":
            snap["objects"][-1] = -1
        elif case == "repeated entity id":
            snap["entities"][-1] = snap["entities"][0]
        elif case == "alias entry index":
            aliased[0] = entities
        elif case == "alias entry twice":
            aliased[1] = aliased[0]
        elif case == "type entry twice":
            snap["typed"][1] = snap["typed"][0]
        elif case == "alias count 0":
            snap["alias_counts"][0] = 0
            snap["alias_counts"][1] += 1
        elif case == "alias counts short of the aliases":
            snap["aliases"].append("extra")
        elif case == "alias":
            snap["aliases"][0] = 5
        elif case == "type label":
            snap["labels"][0] = 5
        elif case == "entity id":
            snap["entities"][0] = 5
        elif case == "strings not an array":
            snap["entities"] = {"entities": snap["entities"]}
        elif case == "fact columns out of step":
            snap["objects"].pop()
        elif case == "column missing":
            del snap["typed"]
        elif case == "column of two dimensions":
            snap["aliased"] = np.array([aliased], "<i4")
        else:
            assert case == "one string short"
            snap["labels"].pop()

    @staticmethod
    def _garble(path, case):
        """Damage the framing of the snapshot at ``path`` as ``case``
        says."""
        data = path.read_bytes()
        header = data[9:9 + int.from_bytes(data[5:9], "little")]
        if case == "truncated header":
            path.write_bytes(data[:len(container.KB.magic) + 10])
        elif case == "trailing bytes":
            path.write_bytes(data + b"\0")
        elif case == "string block not JSON":
            rewrite_header(path, header[:-1])
        elif case == "string block nested too deep":
            rewrite_header(path, b"[" * 100_000)
        else:
            assert case == "short column"
            obj = json.loads(header)
            obj["arrays"]["typed"][1] = [len(data)]
            rewrite_header(path, json.dumps(obj).encode("utf-8"))

    @pytest.mark.parametrize("case", [
        "subject out of range", "predicate out of range",
        "object out of range", "negative index", "repeated entity id",
        "alias entry index", "alias entry twice", "type entry twice",
        "alias count 0", "alias counts short of the aliases", "alias",
        "type label", "entity id", "strings not an array",
        "one string short", "fact columns out of step", "column missing",
        "column of two dimensions"])
    def test_exits_2_and_writes_nothing(self, snapshots, capsys, tmp_path,
                                        case):
        bench, _ = snapshots
        snap = read_kb_snapshot(bench / "kb.qakb")
        self._damage(snap, case)
        write_kb_snapshot(tmp_path / "kb.qakb", snap)
        self._exits_2(snapshots, capsys, tmp_path, "ill-typed")

    @pytest.mark.parametrize("case", [
        "truncated header", "short column", "trailing bytes",
        "string block not JSON", "string block nested too deep"])
    def test_garbled_exits_2_and_writes_nothing(self, snapshots, capsys,
                                                tmp_path, case):
        bench, _ = snapshots
        shutil.copy(bench / "kb.qakb", tmp_path / "kb.qakb")
        self._garble(tmp_path / "kb.qakb", case)
        self._exits_2(snapshots, capsys, tmp_path,
                      "truncated or garbled snapshot")

    @staticmethod
    def _exits_2(snapshots, capsys, tmp_path, says):
        """Every command reading the KB ``tmp_path / "kb.qakb"`` exits 2
        with an error naming it and holding ``says``, and writes
        nothing."""
        bench, models = snapshots
        kb = tmp_path / "kb.qakb"
        capsys.readouterr()
        for flags in _commands_reading_kb(bench, models, tmp_path):
            code, stdout, err = run(capsys, *flags, "--kb", str(kb))
            assert code == 2, (flags[0], err)
            assert stdout == ""
            assert err.startswith(f"error: {kb}: ") and "Traceback" not in err
            assert says in err
        assert [p.name for p in tmp_path.iterdir()] == ["kb.qakb"]


def test_old_snapshot_format_exits_2(snapshots, capsys, tmp_path):
    """A snapshot of an earlier format is named, with how to re-create it,
    by every command that reads one."""
    bench, models = snapshots
    kb = tmp_path / "kb.qakb"
    old = {b"KBQA1": {"facts": [["m.01", "/a/b", "m.02"]], "aliases": [],
                      "types": [], "extra_entities": []},
           b"KBQA2": {"entities": ["m.01", "m.02"], "relations": ["/a/b"],
                      "subjects": [0], "predicates": [0], "objects": [1],
                      "aliases": [], "types": []}}
    # an empty KBQA3 snapshot: seven zero counts and an empty string block
    files = {b"KBQA3": b"KBQA3" + bytes(28) + b"[]"}
    for magic, payload in old.items():
        files[magic] = magic + zlib.compress(json.dumps(payload)
                                             .encode("utf-8"))
    for magic, data in files.items():
        kb.write_bytes(data)
        capsys.readouterr()
        for flags in _commands_reading_kb(bench, models, tmp_path):
            code, stdout, err = run(capsys, *flags, "--kb", str(kb))
            assert code == 2, (flags[0], err)
            assert stdout == ""
            assert err.startswith(f"error: {kb}: ")
            assert magic.decode() in err
            assert "qakb synth" in err and "qakb ingest" in err
        assert [p.name for p in tmp_path.iterdir()] == ["kb.qakb"]


def test_model_table_as_kb_exits_2_naming_its_kind(snapshots, capsys,
                                                   tmp_path):
    """A model's table given as ``--kb`` is named as what it is."""
    bench, models = snapshots
    capsys.readouterr()
    for flags in _commands_reading_kb(bench, models, tmp_path):
        code, stdout, err = run(capsys, *flags, "--kb", str(models["qa-t"]))
        assert code == 2, (flags[0], err)
        assert stdout == ""
        assert err == (f"error: {models['qa-t']}: holds a model parameter "
                       "table (NNQA3), not a KB snapshot\n")
    assert list(tmp_path.iterdir()) == []


def test_old_model_format_exits_2(snapshots, capsys, tmp_path):
    """A model table of an earlier format (``NNQA1`` held a recurrent
    cell's weights gate by gate, ``NNQA2`` had no checksum) is named with
    how to re-create it."""
    bench, models = snapshots
    shutil.copytree(models["pipeline"], tmp_path / "pipeline")
    for name in ("qa-t.nn", "qa-t.nn.meta.json"):
        shutil.copy(models["qa-t"].parent / name, tmp_path / name)
    questions = tmp_path / "q.txt"
    questions.write_text("anything\n")
    runs = {tmp_path / "qa-t.nn": ["--model", str(tmp_path / "qa-t.nn"),
                                   "--variant", "qa-t"],
            tmp_path / "pipeline" / "tagger.nn": [
                "--pipeline", str(tmp_path / "pipeline"),
                "--strategy", "p-qa"]}
    for magic in (b"NNQA1", b"NNQA2"):
        for model, flags in runs.items():
            model.write_bytes(magic + model.read_bytes()[5:])
            capsys.readouterr()
            code, stdout, err = run(capsys, "answer", "--kb",
                                    str(bench / "kb.qakb"), *flags,
                                    "--questions", str(questions))
            assert code == 2, err
            assert stdout == ""
            assert err.startswith(f"error: {model}: ")
            assert magic.decode() in err
            assert "qakb train-pipeline" in err and "qakb train-e2e" in err


class TestEval:
    def test_oracle_eval_writes_reports(self, bench, tmp_path, capsys):
        out = tmp_path / "rep"
        code, stdout, _ = run(capsys, "eval", "--kb", str(bench / "kb.qakb"),
                              "--questions", str(bench / "test.tsv"),
                              "--oracle", "--strategy", "p-qa-out",
                              "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["p-qa-out(oracle)"]["accuracy"] == 1.0
        assert (out / "report.txt").is_file()
        assert "accuracy" in stdout

    def test_out_degree_sort_rejected_with_oracle(self, tmp_path, capsys):
        code, stdout, err = run(capsys, "eval", "--kb",
                                str(tmp_path / "absent.qakb"), "--questions",
                                str(tmp_path / "absent.tsv"), "--oracle",
                                "--strategy", "p-qa", "--out-degree-sort",
                                "--out", str(tmp_path / "rep"))
        assert code == 1
        assert stdout == ""
        assert err == "error: --out-degree-sort applies only to --model\n"

    def test_requires_a_model_source(self, bench, tmp_path, capsys):
        code, _, _ = run(capsys, "eval", "--kb", str(bench / "kb.qakb"),
                         "--questions", str(bench / "test.tsv"),
                         "--out", str(tmp_path / "rep"))
        assert code == 1


def _garbage_owner(obj) -> str:
    """Where ``obj`` comes from: a function's own dotted name, else its
    type's."""
    if isinstance(obj, types.FunctionType):
        return f"{obj.__module__}.{obj.__qualname__}"
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


def _cyclic_garbage(argv):
    """Run ``qakb <argv>`` with the collector off, from a collected heap;
    its exit code and a Counter of what it left that only the cyclic
    collector can free, by :func:`_garbage_owner`."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return code, Counter(map(_garbage_owner, gc.garbage))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        if enabled:
            gc.enable()


class TestCollectorPause:
    """``main`` runs each command with the cyclic collector paused.  That
    is safe because no command leaves a ``qakb`` object in a reference
    cycle, and answering leaves the same garbage whatever the number of
    questions; and ``main`` leaves the collector as it found it."""

    @pytest.fixture(scope="class")
    def size_s(self, tmp_path_factory):
        """A benchmark at 60 entities with its pipeline data, a trained
        pipeline, a qa-t-mwst snapshot and question files of 3 and of 30
        questions."""
        root = tmp_path_factory.mktemp("size-s")
        bench = root / "bench"
        kb, train = str(bench / "kb.qakb"), str(bench / "train.tsv")
        small = ["--epochs", "1", "--hidden-size", "4", "--embed-dim", "6"]
        assert main(["synth", "--seed", "1", "--entities", "60",
                     "--out", str(bench)]) == 0
        assert main(["gen-data", "--kb", kb, "--questions", train,
                     "--out", str(root / "data")]) == 0
        assert main(["train-pipeline", "--data", str(root / "data"),
                     "--out", str(root / "pipeline"), *small]) == 0
        assert main(["train-e2e", "--kb", kb, "--questions", train,
                     "--variant", "qa-t-mwst", "--out", str(root / "m.nn"),
                     *small]) == 0
        rows = (bench / "train.tsv").read_text().splitlines(keepends=True)
        for n in (3, 30):
            (root / f"q{n}.tsv").write_text("".join(rows[:n]))
            (root / f"q{n}.txt").write_text(
                "".join(row.split("\t")[3] for row in rows[:n]))
        (root / "facts.tsv").write_text("m.0a1\t/d/x/r\tm.0o1 m.0o2\n")
        (root / "aliases.tsv").write_text("m.0a1\tAcme\nm.0o1\tJo\n")
        return root

    @staticmethod
    def _argv(command, root, n=3):
        kb, out = str(root / "bench" / "kb.qakb"), str(root / "out")
        stacks = {"pipeline": ["--pipeline", str(root / "pipeline"),
                               "--strategy", "p-qa-out-type"],
                  "model": ["--model", str(root / "m.nn"),
                            "--variant", "qa-t-mwst", "--out-degree-sort"],
                  "oracle": ["--oracle", "--strategy", "p-qa-out"]}
        name, _, stack = command.partition(":")
        if name == "answer":
            return ["answer", "--kb", kb, "--questions",
                    str(root / f"q{n}.txt"), *stacks[stack]]
        if name == "eval":
            return ["eval", "--kb", kb, "--questions",
                    str(root / f"q{n}.tsv"), "--out", out, *stacks[stack]]
        small = ["--epochs", "1", "--hidden-size", "4", "--embed-dim", "6"]
        return {
            "synth": ["synth", "--seed", "2", "--entities", "60",
                      "--out", out],
            "ingest": ["ingest", "--facts", str(root / "facts.tsv"),
                       "--aliases", str(root / "aliases.tsv"),
                       "--out", str(root / "ingested.qakb")],
            "gen-data": ["gen-data", "--kb", kb, "--questions",
                         str(root / "bench" / "train.tsv"), "--out", out],
            "train-pipeline": ["train-pipeline", "--data",
                               str(root / "data"), "--out", out, *small],
            "train-e2e": ["train-e2e", "--kb", kb, "--questions",
                          str(root / "q30.tsv"), "--variant", "qa-t-mwst",
                          "--out", str(root / "out.nn"), *small],
        }[name]

    @pytest.mark.parametrize("command", [
        "synth", "ingest", "gen-data", "train-pipeline", "train-e2e",
        "answer:pipeline", "answer:model", "eval:pipeline", "eval:model",
        "eval:oracle"])
    def test_no_qakb_object_is_cyclic_garbage(self, size_s, capsys,
                                              command):
        code, garbage = _cyclic_garbage(self._argv(command, size_s))
        assert code == 0, capsys.readouterr().err
        # argparse's parsers sit in cycles of their own, ours included
        assert [owner for owner in garbage if owner.startswith("qakb.")
                and owner != "qakb.cli._Parser"] == []
        assert garbage["qakb.cli._Parser"] > 0

    @pytest.mark.parametrize("command", [
        "answer:pipeline", "answer:model", "eval:pipeline", "eval:model",
        "eval:oracle"])
    def test_garbage_does_not_grow_with_the_questions(self, size_s, capsys,
                                                       command):
        left = [_cyclic_garbage(self._argv(command, size_s, n))
                for n in (3, 30)]
        assert [code for code, _ in left] == [0, 0]
        assert left[0][1] == left[1][1]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("outcome", ["exit-0", "exit-1", "exit-2",
                                         "raises"])
    def test_main_leaves_the_collector_as_it_found_it(
            self, tmp_path, monkeypatch, capsys, enabled, outcome):
        """Paused while the command runs, and as before once ``main``
        returns or raises."""
        seen = []
        resolve = cli.resolve_seed

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            if outcome == "raises":
                raise RuntimeError("escapes main")
            return resolve(*args, **kwargs)

        monkeypatch.setattr(cli, "resolve_seed", spy)
        out = tmp_path / "bench"
        if outcome == "exit-2":  # the output directory is a file
            out.write_text("")
        argv = ["synth", "--entities", "10", "--out", str(out),
                "--seed", "-1" if outcome == "exit-1" else "1"]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if outcome == "raises":
                with pytest.raises(RuntimeError, match="escapes main"):
                    main(argv)
            else:
                assert main(argv) == int(outcome[-1])
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]
        assert after is enabled


# for each command, an argv that sets every one of its flags
_EVERY_FLAG = {
    "ingest": ["--facts", "f", "--aliases", "a", "--types", "t",
               "--out", "o", "--config", "c", "--seed", "3"],
    "synth": ["--out", "o", "--entities", "9", "--relations", "2",
              "--collision-rate", "0.5", "--no-outdegree-gap",
              "--type-distinct", "--test-fraction", "0.25",
              "--config", "c", "--seed", "3"],
    "gen-data": ["--kb", "k", "--questions", "q", "--out", "o",
                 "--config", "c", "--seed", "3"],
    "train-pipeline": ["--data", "d", "--out", "o", "--epochs", "2",
                       "--batch-size", "3", "--hidden-size", "4",
                       "--embed-dim", "5", "--char-dim", "6",
                       "--max-len", "7", "--learning-rate", "0.5",
                       "--gamma", "0.25", "--dropout", "0.125",
                       "--config", "c", "--seed", "3"],
    "train-e2e": ["--kb", "k", "--questions", "q", "--out", "o",
                  "--variant", "qa-t-mwst", "--epochs", "2",
                  "--batch-size", "3", "--hidden-size", "4",
                  "--embed-dim", "5", "--char-dim", "6", "--max-len", "7",
                  "--learning-rate", "0.5", "--gamma", "0.25",
                  "--dropout", "0.125", "--config", "c", "--seed", "3"],
    "answer": ["--kb", "k", "--pipeline", "p", "--strategy", "p-qa-out",
               "--model", "m", "--variant", "qa-t", "--out-degree-sort",
               "--questions", "q", "--config", "c", "--seed", "3"],
    "eval": ["--kb", "k", "--questions", "q", "--out", "o", "--pipeline",
             "p", "--strategy", "p-qa-type", "--model", "m", "--variant",
             "qa-s", "--out-degree-sort", "--oracle", "--config", "c",
             "--seed", "3"],
}


def _main_outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``; argparse ends help
    with SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommandParser:
    """``main`` builds only the named subcommand's parser, which reads
    every argv as the parser of all seven does."""

    @pytest.mark.parametrize("command", list(_EVERY_FLAG))
    def test_every_flag_parses_as_with_all_subcommands(self, command):
        argv = ["--verbose", command, *_EVERY_FLAG[command]]
        full = cli.build_parser()
        (commands,) = [action for action in full._actions
                       if action.dest == "command"]
        assert list(commands.choices) == list(_EVERY_FLAG)
        unset = [action.dest for action in commands.choices[command]._actions
                 if action.dest != "help"
                 and not set(action.option_strings) & set(argv)]
        assert unset == []
        assert cli._command_name(argv) == command
        assert (cli.build_parser(command).parse_args(argv)
                == full.parse_args(argv))

    @pytest.mark.parametrize("argv", [
        *([command] for command in _EVERY_FLAG),  # a required flag missing
        *([command, "--help"] for command in _EVERY_FLAG),
        ["--help"], ["-h", "answer"], ["--verbose", "-h", "eval"],
        ["answer", "--kb", "k", "--strategy", "p-qa-bogus"],
        ["train-e2e", "--kb", "k", "--questions", "q", "--out", "o",
         "--variant", "qa-x"],
        ["synth", "--out", "o", "--entities", "many"],
        ["train-pipeline", "--data", "d", "--out", "o", "--gamma", "big"],
        ["--bogus", "answer", "--kb", "k"],
        ["answer", "--kb", "k", "--bogus"],
        ["--verbose", "eval", "--kb", "k", "--questions", "q", "--out", "o",
         "extra"],
        ["-1", "answer", "--kb", "k"], ["--", "answer"], ["bogus"], [],
        ["--verbose"],
    ], ids=" ".join)
    def test_main_prints_as_with_all_subcommands(self, monkeypatch, capsys,
                                                 argv):
        got = _main_outcome(capsys, argv)
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command: build())
        assert got == _main_outcome(capsys, argv)
        assert got[0] in (0, 1)

    @pytest.mark.parametrize("argv, parsers", [
        *(([command], 2) for command in _EVERY_FLAG),
        (["--verbose", "answer", "--help"], 2),
        ([], 8), (["--help"], 8), (["bogus"], 8), (["--verbose"], 8),
    ], ids=str)
    def test_parsers_built(self, monkeypatch, capsys, argv, parsers):
        """The top-level parser and the named subcommand's, or all seven
        when no subcommand is named."""
        built = 0

        class Counted(cli._Parser):
            def __init__(self, *args, **kwargs):
                nonlocal built
                built += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counted)
        _main_outcome(capsys, argv)
        assert built == parsers
