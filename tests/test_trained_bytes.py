"""The bytes of trained snapshots and of the answers given from them,
pinned on one small seeded workflow.

The workflow runs the ``qakb`` CLI in-process: ``synth --seed 1`` at 60
entities and 6 relations (collision rate 0.3, the benchmark's ``train``
spec); ``gen-data`` on the first 8 train questions; ``train-pipeline``
and ``train-e2e`` of each of the eight joint-model variants on them at
``--epochs 2 --seed 1``; then ``answer`` on 20 questions, the 12 test
questions and then train questions 9 to 16, with every pipeline strategy
and every variant, each variant also with ``--out-degree-sort``; and
``eval`` on the same 20 with ``p-qa-out-type`` and ``qa-t-mwst``.  The
test pins a sha256 of every snapshot, every sidecar, every answer stream
and every report.

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
from qakb.pipeline import STRATEGIES

TRAIN = ["--epochs", "2", "--seed", "1"]
ANSWERED = 20
VARIANTS = ("qa-s", "qa-t", "qa-t-w", "qa-t-ws", "qa-t-wt", "qa-t-swt",
            "qa-t-mwt", "qa-t-mwst")

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
    "qa-s.nn":
        "6d34693b17139efea7b850c602836b8419c9819d2665d011fbb6d783466aa228",
    "qa-s.nn.meta.json":
        "59bee5a3ca0528b8d938458d35f9c8c76575a30bdacad0532ebf94ddaac64c3c",
    "qa-t.nn":
        "6d34693b17139efea7b850c602836b8419c9819d2665d011fbb6d783466aa228",
    "qa-t.nn.meta.json":
        "bdb53fc4e81903dc9fa3429ae353df8bc0fca50098d4787960dc0209f0d3c70f",
    "qa-t-w.nn":
        "1a759a4e6a8dbe707ecfe2187bfa8f1961e349ebb27d5592300817eeb99465e3",
    "qa-t-w.nn.meta.json":
        "827037deec848bcecc658aae45186743e62797d1646ae67d9c4375eb460b3a71",
    "qa-t-ws.nn":
        "ecad8f71054bc6dd20460d5f6720e154e150d2555d46e982f297727f71c58b80",
    "qa-t-ws.nn.meta.json":
        "04944859ba69dc5d111e7dbb1e4adf3b01237aca02521f84c0ab6c41298f64ce",
    "qa-t-wt.nn":
        "4a057b1bfb62632138d49d223fd20fa03b7aa1b108af1086ed9f509261406ef9",
    "qa-t-wt.nn.meta.json":
        "79095c9ae37425bac6db1b6722f2d38c5f8e815de66039143e9cb7126df36ea6",
    "qa-t-swt.nn":
        "f4472a879221e49cb3c85ade1500e149f4fcb0a250cb81ba99fc7eb465c08388",
    "qa-t-swt.nn.meta.json":
        "ab72e3c1f11def0c96eb9b48b7f080ddfd2a979ca5d3a85639509c0d9a205cbc",
    "qa-t-mwt.nn":
        "59ebd46418da0656bfa0fcae76d4991d72eb0932037c610217277c247f4e004d",
    "qa-t-mwt.nn.meta.json":
        "cf8525d4a4757704e6acb0afdaebbaf4e7a28693bc2329554763506127ba76c4",
    "qa-t-mwst.nn":
        "6fd45ee7e9af8c161445e53e00d8fc6479456a602aabf4889c7f0aa5bcb080d5",
    "qa-t-mwst.nn.meta.json":
        "ff1a6a60462a2a458039a170331d6339b71588b60fae82310b382fb8ab23f118",
    "answer/pipeline":
        "b89049fd95b5a11c497e15b83493130a067f9e9d7f463896b81c9b0b0c7e775f",
    "answer/qa-s":
        "4b20a89e15d53de1dd8a92034a88ab5f421f1d0297afb43a99a342a980aedc68",
    "answer/qa-t":
        "9c78c78e5f7028a3da05a03a596a33598939ef0cc54c394a871e23b408da9c7d",
    "answer/qa-t-w":
        "8c1cc379412c6bb7125fdddfb741563be024f0165514bca044cbb90b70b238b4",
    "answer/qa-t-ws":
        "cc83e291c757234752dc24687f75218ee35e8245f8a02196f02fb710490c433d",
    "answer/qa-t-wt":
        "9a8e2e425b477d0446e834c835565dfa8a6785287500d6094e4cbf128a10b624",
    "answer/qa-t-swt":
        "02d57fc523c5c53c956df456717ec999cc097cba40519bd948350030674b27f0",
    "answer/qa-t-mwt":
        "3e080f2b1801ec73f000b5e65db203284046f83eb3ca999bfa59932e00503de6",
    "answer/qa-t-mwst":
        "4ec6bb5d880e1716380e8d8312704836ac80145ea8226417174260a6f0c77d78",
    "answer/p-qa":
        "a4f930306636579b293c69dc17925d35663fcdd9445c57395a0596f038811edc",
    "answer/p-qa-out":
        "d062af6c8d2c5b11bd1a97b5e5cc999786ced3473b02ed850c40a2b64b8a7a96",
    "answer/p-qa-type":
        "87c13843e267df23962b64be3d88471a701c7bd2d94125d7be6ce4fb92d90399",
    "answer/p-qa-type-out":
        "f88e0c2eb98ad2fadaea5d1ba7e75b8bc48929ccc13b9df7fc2577a0d101737b",
    "answer/qa-s+od":
        "32675c26fadd0a47bb0612de669d698a427266d8743c1c5f618bec4a4f2808d9",
    "answer/qa-t+od":
        "9500bab2b50c7531b2dc8b1d7e4edbe6111c0fa8bc4c71880e5e1f9ad02f20f9",
    "answer/qa-t-w+od":
        "07fe430dbf63329bd0a1e673046bbde7f4f7b73dc7bc3cf4f60efdc649197dc5",
    "answer/qa-t-ws+od":
        "9705e8fc865cf07a902ea190a5291a49cb90e05c9111094d382009f9dc208a53",
    "answer/qa-t-wt+od":
        "bfcb6f0e83349af8b06ee8266c3686047ce719582e3280f81be65b451d123f94",
    "answer/qa-t-swt+od":
        "ba75bb5888b420338b68bfa985f223a776c1fc230fcdbf9690e9d7cdf44bcd1d",
    "answer/qa-t-mwt+od":
        "1661e0b65b2389ca7b93dbbd5f32c685a29ea4fca02d3847c5f4bae1cd4d9349",
    "answer/qa-t-mwst+od":
        "16c9abcb2c5fe90da66c05b1c2c9cb0e6d7d079a1598018ae8a2d53c3b4711fc",
    "eval/pipeline/report.json":
        "9cfd8393444a758f3809413bbe9f4e98eb7e5a909d6985e3d7efad97d64cdf21",
    "eval/pipeline/report.txt":
        "79881634dd7546fa06ebde19951bb479df89d2154dbdea9c40a6e8a87399f603",
    "eval/qa-t-mwst/report.json":
        "c13246b97ed64545d08e84f0b0bf31311a106108a6c608a1ff0845f0c00da70f",
    "eval/qa-t-mwst/report.txt":
        "3946035ebb6213eb984485ea46039367b075c73abed7fa13bb5128ef9f9adb59",
}

# train-pipeline on the same data at the default epochs, seed 1
DEFAULT_EPOCHS_PINS = {
    "tagger.nn":
        "f5cd240f30bb9f7b793f51449a95564bdcf2f669becfd20df7e953c5b7a0a2e9",
    "relation.nn":
        "e13eec423927d9cec767a27b35b58f1d933100f1ebd50214f680fd9c35382334",
    "type.nn":
        "ce0fce36d01233fa7235fac801c11c3c68e7e60a5f2f6e1ccb1f6adef02e8949",
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


def _workflow_data(tmp_path):
    """``synth`` and ``gen-data`` of the pinned workflow under
    ``tmp_path``: the KB's path, the train questions' TSV lines and the
    file of the first 8 of them, whose pipeline data is in ``data``."""
    bench = tmp_path / "bench"
    _run("synth", "--seed", "1", "--entities", "60", "--relations", "6",
         "--collision-rate", "0.3", "--out", str(bench))
    kb = str(bench / "kb.qakb")
    train_lines = (bench / "train.tsv").read_text(
        encoding="utf-8").splitlines(True)
    questions = tmp_path / "train8.tsv"
    questions.write_text("".join(train_lines[:8]), encoding="utf-8")
    _run("gen-data", "--kb", kb, "--questions", str(questions),
         "--out", str(tmp_path / "data"))
    return kb, train_lines, questions


def _changed(pins, got):
    """The names of ``pins`` whose hashes ``got`` does not hold."""
    return sorted(name for name in pins if got[name] != pins[name])


def test_trained_and_answered_bytes_are_pinned(tmp_path):
    bench, models = tmp_path / "bench", tmp_path / "models"
    kb, train_lines, questions = _workflow_data(tmp_path)
    _run("train-pipeline", "--data", str(tmp_path / "data"),
         "--out", str(models), *TRAIN)
    for variant in VARIANTS:
        _run("train-e2e", "--kb", kb, "--questions", str(questions),
             "--variant", variant, "--out", str(models / f"{variant}.nn"),
             *TRAIN)
    got = {name: _sha256((models / name).read_bytes())
           for name in PINS if "/" not in name}

    asked_lines = ((bench / "test.tsv").read_text(encoding="utf-8")
                   .splitlines(True) + train_lines[8:])[:ANSWERED]
    asked = tmp_path / "asked.txt"
    asked.write_text("".join(line.split("\t")[3] + "\n"
                             for line in asked_lines), encoding="utf-8")
    asked_tsv = tmp_path / "asked.tsv"
    asked_tsv.write_text("".join(asked_lines), encoding="utf-8")
    # p-qa-out-type is pinned as "pipeline"
    stacks = {("pipeline" if strategy == "p-qa-out-type" else strategy):
              ["--pipeline", str(models), "--strategy", strategy]
              for strategy in STRATEGIES}
    for variant in VARIANTS:
        stacks[variant] = ["--model", str(models / f"{variant}.nn"),
                           "--variant", variant]
        stacks[f"{variant}+od"] = stacks[variant] + ["--out-degree-sort"]
    for stack, flags in stacks.items():
        text = _run("answer", "--kb", kb, *flags, "--questions", str(asked))
        assert text.count("\n") == ANSWERED
        got[f"answer/{stack}"] = _sha256(text.encode("utf-8"))
    for stack in ("pipeline", "qa-t-mwst"):
        out = tmp_path / "eval" / stack
        _run("eval", "--kb", kb, "--questions", str(asked_tsv),
             "--out", str(out), *stacks[stack])
        for report in ("report.json", "report.txt"):
            got[f"eval/{stack}/{report}"] = _sha256(
                (out / report).read_bytes())

    changed = _changed(PINS, got)
    assert not changed, (
        f"{', '.join(changed)} no longer hold the pinned bytes.  The pins "
        "hold for numpy 2.4.6 with OpenBLAS 0.3.31's Haswell kernels; "
        "with those, training or answering changed")


def test_default_epochs_pipeline_bytes_are_pinned(tmp_path):
    """``train-pipeline`` at the default 15 epochs, whose later steps
    start from weights that many earlier steps have moved."""
    models = tmp_path / "models"
    _workflow_data(tmp_path)
    _run("train-pipeline", "--data", str(tmp_path / "data"),
         "--out", str(models), "--seed", "1")
    got = {name: _sha256((models / name).read_bytes())
           for name in DEFAULT_EPOCHS_PINS}
    changed = _changed(DEFAULT_EPOCHS_PINS, got)
    assert not changed, (
        f"{', '.join(changed)} no longer hold the pinned bytes at the "
        "default epochs; see the module docstring")
