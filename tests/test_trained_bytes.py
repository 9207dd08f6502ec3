"""The bytes of trained snapshots and of the answers given from them,
pinned on one small seeded workflow.

The workflow runs the ``qakb`` CLI in-process: ``synth --seed 1`` at 60
entities and 6 relations (collision rate 0.3, the benchmark's ``train``
spec); ``gen-data`` on the first 8 train questions; ``train-pipeline``,
``train-e2e --variant qa-t`` and ``train-e2e --variant qa-t-mwst`` on
them at ``--epochs 2 --seed 1``; then ``answer`` with each stack (the
pipeline as ``p-qa-out-type``) on 20 questions: the 12 test questions,
then train questions 9 to 16.  The test pins a sha256 of every
snapshot, every sidecar and every answer stream.

Training and answering run matrix products through BLAS, whose last bits
depend on the kernel.  The pins were recorded with numpy 2.4.6 and
OpenBLAS 0.3.31 picking its Haswell kernels at run time (x86-64), and
hold only for that numpy and those kernels; elsewhere a mismatch may
mean another kernel rather than another program.  There, a failure
names the outputs that changed and means training or answering changed:
record it in CHANGES.md; the hashes are never re-recorded silently.
"""

import contextlib
import hashlib
import io

from qakb.cli import main

TRAIN = ["--epochs", "2", "--seed", "1"]
ANSWERED = 20

PINS = {
    "tagger.nn":
        "e5b55f937b94ffbb0c54a8025366f2b39e770e36855ff2d84ecbc09a4d36b4b8",
    "tagger.nn.meta.json":
        "be69a9b112869a60ac5adff69ee2ff3673ecf499d0bedabe83a3f45ee2b1a5de",
    "relation.nn":
        "6b36f472704bfd1ed677c018936fdfdc94f620b0182e99d48abae29689664239",
    "relation.nn.meta.json":
        "78eb7ab98b778d772aed6f6faae8b73e438ef34ea4da18f59df159c25f24ff28",
    "type.nn":
        "89c0ee5b5d7ff0922adf63299bef8813724b20d6c22613407e83f7ebc6dc2e8c",
    "type.nn.meta.json":
        "0dfa14a082875c864bb1787aa6e24d9bb24a2603ffb78e64890f8f37b28ee406",
    "qa-t.nn":
        "6d34693b17139efea7b850c602836b8419c9819d2665d011fbb6d783466aa228",
    "qa-t.nn.meta.json":
        "bdb53fc4e81903dc9fa3429ae353df8bc0fca50098d4787960dc0209f0d3c70f",
    "qa-t-mwst.nn":
        "6fd45ee7e9af8c161445e53e00d8fc6479456a602aabf4889c7f0aa5bcb080d5",
    "qa-t-mwst.nn.meta.json":
        "ff1a6a60462a2a458039a170331d6339b71588b60fae82310b382fb8ab23f118",
    "answer/pipeline":
        "b89049fd95b5a11c497e15b83493130a067f9e9d7f463896b81c9b0b0c7e775f",
    "answer/qa-t":
        "9c78c78e5f7028a3da05a03a596a33598939ef0cc54c394a871e23b408da9c7d",
    "answer/qa-t-mwst":
        "4ec6bb5d880e1716380e8d8312704836ac80145ea8226417174260a6f0c77d78",
}


def _run(*argv: str) -> str:
    """``qakb argv``'s stdout; the command must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"qakb {' '.join(argv)} exited {code}"
    return out.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_trained_and_answered_bytes_are_pinned(tmp_path):
    bench, models = tmp_path / "bench", tmp_path / "models"
    _run("synth", "--seed", "1", "--entities", "60", "--relations", "6",
         "--collision-rate", "0.3", "--out", str(bench))
    kb = str(bench / "kb.qakb")
    train_lines = (bench / "train.tsv").read_text(
        encoding="utf-8").splitlines(True)
    questions = tmp_path / "train8.tsv"
    questions.write_text("".join(train_lines[:8]), encoding="utf-8")
    _run("gen-data", "--kb", kb, "--questions", str(questions),
         "--out", str(tmp_path / "data"))
    _run("train-pipeline", "--data", str(tmp_path / "data"),
         "--out", str(models), *TRAIN)
    for variant in ("qa-t", "qa-t-mwst"):
        _run("train-e2e", "--kb", kb, "--questions", str(questions),
             "--variant", variant, "--out", str(models / f"{variant}.nn"),
             *TRAIN)
    got = {name: _sha256((models / name).read_bytes())
           for name in PINS if not name.startswith("answer/")}

    asked_lines = ((bench / "test.tsv").read_text(encoding="utf-8")
                   .splitlines(True) + train_lines[8:])[:ANSWERED]
    asked = tmp_path / "asked.txt"
    asked.write_text("".join(line.split("\t")[3] + "\n"
                             for line in asked_lines), encoding="utf-8")
    stacks = {"pipeline": ["--pipeline", str(models),
                           "--strategy", "p-qa-out-type"],
              "qa-t": ["--model", str(models / "qa-t.nn"),
                       "--variant", "qa-t"],
              "qa-t-mwst": ["--model", str(models / "qa-t-mwst.nn"),
                            "--variant", "qa-t-mwst"]}
    for stack, flags in stacks.items():
        text = _run("answer", "--kb", kb, *flags, "--questions", str(asked))
        assert text.count("\n") == ANSWERED
        got[f"answer/{stack}"] = _sha256(text.encode("utf-8"))

    changed = sorted(name for name in PINS if got[name] != PINS[name])
    assert not changed, (
        f"{', '.join(changed)} no longer hold the pinned bytes.  The pins "
        "hold for numpy 2.4.6 with OpenBLAS 0.3.31's Haswell kernels; "
        "with those, training or answering changed")
