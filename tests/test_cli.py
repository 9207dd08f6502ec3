"""Tests for the command-line interface."""

import io
import json
import os
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from qakb.cli import (
    DataError,
    main,
    read_config_file,
    resolve_seed,
)
from qakb.kb import SNAPSHOT_MAGIC, load_kb, notable_type
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

    def test_malformed_questions_reports_file_and_line(self, capsys, bench,
                                                       tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only two\tfields\n")
        code, _, err = run(capsys, "gen-data", "--kb",
                           str(bench / "kb.qakb"), "--questions", str(bad),
                           "--out", str(tmp_path / "d"))
        assert code == 2
        assert "bad.tsv" in err and "line 1" in err

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
        assert "e2e.head.w_c" in err and "Traceback" not in err

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
        blank, treating it as untyped."""
        (tmp_path / "facts.tsv").write_text(
            "m.0a01\t/d/x/founded\tm.0o1\nm.0a02\t/d/x/founded\tm.0o2\n")
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

    def test_facts_line_without_object_is_data_error(self, tmp_path, capsys):
        facts = tmp_path / "facts.tsv"
        facts.write_text("m.02\t/a/b\tm.03\nm.01\t/a/b\t\n")
        code, _, err = run(capsys, "ingest", "--facts", str(facts),
                           "--out", str(tmp_path / "kb.qakb"))
        assert code == 2
        assert err.startswith(f"error: {facts}: line 2: ")
        assert not (tmp_path / "kb.qakb").exists()

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
        code, stdout, err = run(capsys, "answer", "--kb", str(kb),
                                "--model", str(model), "--variant", "qa-t",
                                "--questions", str(qfile))
        assert code == 2, err
        assert stdout == ""
        assert err.startswith("error: ") and "Traceback" not in err

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


class TestIllTypedKb:
    """A KB snapshot with a field of the wrong JSON type exits 2 naming the
    file, before any command writes a byte.  Such a KB used to load, and
    then crash later or write the field into gen-data's pair files."""

    @staticmethod
    def _retype(src, dst, field):
        """Copy the snapshot at ``src`` to ``dst`` with one field an int."""
        payload = json.loads(zlib.decompress(
            src.read_bytes()[len(SNAPSHOT_MAGIC):]))
        if field in ("subject", "relation", "object"):
            payload["facts"][0][("subject", "relation", "object")
                                .index(field)] = 5
        elif field == "type label":
            payload["types"][0][1] = 5
        else:
            payload["extra_entities"] = [5]
        dst.write_bytes(SNAPSHOT_MAGIC + zlib.compress(
            json.dumps(payload).encode("utf-8")))

    @pytest.mark.parametrize("field", ["subject", "relation", "object",
                                       "type label", "extra entity id"])
    def test_exits_2_and_writes_nothing(self, snapshots, capsys, tmp_path,
                                        field):
        bench, models = snapshots
        kb = tmp_path / "kb.qakb"
        self._retype(bench / "kb.qakb", kb, field)
        questions = str(bench / "train.tsv")
        capsys.readouterr()
        for flags in (
                ["gen-data", "--questions", questions,
                 "--out", str(tmp_path / "data")],
                ["train-e2e", "--questions", questions, "--variant", "qa-t",
                 "--out", str(tmp_path / "m.nn")],
                ["answer", "--model", str(models["qa-t"]), "--variant",
                 "qa-t", "--questions", questions]):
            code, stdout, err = run(capsys, *flags, "--kb", str(kb))
            assert code == 2, (flags[0], err)
            assert stdout == ""
            assert err.startswith(f"error: {kb}: ") and "Traceback" not in err
            assert "ill-typed" in err
        assert [p.name for p in tmp_path.iterdir()] == ["kb.qakb"]


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
