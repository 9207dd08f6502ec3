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
and every report, and, as ``contents/<snapshot>``, of the arrays
``load_params`` returns for each snapshot (see :func:`_contents`).

The ``.nn`` pins were re-recorded when the checksummed container replaced
the ``NNQA2`` table.  The contents pins were recorded with the ``NNQA2``
loader from that table's files and hold unchanged on the container's, so
the new bytes hold the same parameters; every sidecar, answer and report
pin held across that change.

Every ``.nn`` and contents pin, and the answers given from those
models, were re-recorded again when training began to give each
sequence of a batch its own slot, so that its encoding has the bits it
gets alone, as in answering; the sidecars and both ``eval`` reports held.

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
from qakb.nn.io import load_params
from qakb.pipeline import STRATEGIES

TRAIN = ["--epochs", "2", "--seed", "1"]
ANSWERED = 20
VARIANTS = ("qa-s", "qa-t", "qa-t-w", "qa-t-ws", "qa-t-wt", "qa-t-swt",
            "qa-t-mwt", "qa-t-mwst")

PINS = {
    "tagger.nn":
        "4a1e2ea6e646f5ffdcc4ad0c9fe802ecc9060273a7fdfbcac17d272a03e157f7",
    "tagger.nn.meta.json":
        "be69a9b112869a60ac5adff69ee2ff3673ecf499d0bedabe83a3f45ee2b1a5de",
    "relation.nn":
        "92bb631dff654af20c71d428303581b6a3c5efdacb52c9d7f797087cecdd3402",
    "relation.nn.meta.json":
        "78eb7ab98b778d772aed6f6faae8b73e438ef34ea4da18f59df159c25f24ff28",
    "type.nn":
        "54cc7feca0752eafc3ff364cd0aad95c7b1fe075aa083431a5296f73369fb114",
    "type.nn.meta.json":
        "0dfa14a082875c864bb1787aa6e24d9bb24a2603ffb78e64890f8f37b28ee406",
    "qa-s.nn":
        "d071bbd75db008ed888202ff8211644c7b18cbc1dca8ed91fb44170076a0c53f",
    "qa-s.nn.meta.json":
        "59bee5a3ca0528b8d938458d35f9c8c76575a30bdacad0532ebf94ddaac64c3c",
    "qa-t.nn":
        "d071bbd75db008ed888202ff8211644c7b18cbc1dca8ed91fb44170076a0c53f",
    "qa-t.nn.meta.json":
        "bdb53fc4e81903dc9fa3429ae353df8bc0fca50098d4787960dc0209f0d3c70f",
    "qa-t-w.nn":
        "4510a88052d8758ec35a982367165d45baaeb469e604c0c76c58d8d296903b46",
    "qa-t-w.nn.meta.json":
        "827037deec848bcecc658aae45186743e62797d1646ae67d9c4375eb460b3a71",
    "qa-t-ws.nn":
        "ccdaefcc87b9baef2dda5fce60e6d1b74e0d6e605c7da966154e9a36f2bd23e2",
    "qa-t-ws.nn.meta.json":
        "04944859ba69dc5d111e7dbb1e4adf3b01237aca02521f84c0ab6c41298f64ce",
    "qa-t-wt.nn":
        "df49c686203153432b2cedeac19726a8286ce07b116c6f7b3eb0c1ebe1608579",
    "qa-t-wt.nn.meta.json":
        "79095c9ae37425bac6db1b6722f2d38c5f8e815de66039143e9cb7126df36ea6",
    "qa-t-swt.nn":
        "ccdaefcc87b9baef2dda5fce60e6d1b74e0d6e605c7da966154e9a36f2bd23e2",
    "qa-t-swt.nn.meta.json":
        "ab72e3c1f11def0c96eb9b48b7f080ddfd2a979ca5d3a85639509c0d9a205cbc",
    "qa-t-mwt.nn":
        "78399af00960086024a053edc8d507520287439e052dd310ccc525268422a6e0",
    "qa-t-mwt.nn.meta.json":
        "cf8525d4a4757704e6acb0afdaebbaf4e7a28693bc2329554763506127ba76c4",
    "qa-t-mwst.nn":
        "2bfe008784e92b9fdf7db462a4bfacf665f375fdf560bcdcf49d0519144e611f",
    "qa-t-mwst.nn.meta.json":
        "ff1a6a60462a2a458039a170331d6339b71588b60fae82310b382fb8ab23f118",
    "answer/pipeline":
        "56d9e7de617d288fdc6862f11c9c0a3637a27408956eab7ac6d35b2d6c803208",
    "answer/qa-s":
        "c91ed5451e7e216adb7ddbb0c3f671a782ddefd3e5eb410efaf40d63692705e1",
    "answer/qa-t":
        "660c7391f32fa6d66f687f41f135b39f393f3ed572cad7dd74d66f46f5a9d78b",
    "answer/qa-t-w":
        "7a6fe0c53da6f0915d49924af2de8e8cd6a016286b08f5774b1008e11a8be168",
    "answer/qa-t-ws":
        "b33c4ea6ebbbfb148d269cf59396fa144d7720135973b620653e02e81a596b3f",
    "answer/qa-t-wt":
        "3b6d5c91457ea3b0073ec3146304bf7118d546c2bc2f866e791b049c12ac1ced",
    "answer/qa-t-swt":
        "6f6878200896b080628e7b381d737274cf01546a6dad476b1b6b792ef818d237",
    "answer/qa-t-mwt":
        "3afe12947f38f4fe51df0af28b78c6528973e85b3dd6c2480627276b4e6040e4",
    "answer/qa-t-mwst":
        "b35bbde93d22f291d70ec259e09ffce06c3c84f49a93e44dd191d84ac28ff1f1",
    "answer/p-qa":
        "a4f930306636579b293c69dc17925d35663fcdd9445c57395a0596f038811edc",
    "answer/p-qa-out":
        "d062af6c8d2c5b11bd1a97b5e5cc999786ced3473b02ed850c40a2b64b8a7a96",
    "answer/p-qa-type":
        "c516ae7da64a8cd7fddce776b2aee58a5e8adf1d02f6448c86dc924b4916238b",
    "answer/p-qa-type-out":
        "f39d3801dc64e1f246384067072623e0f4df571a89351e5ea71e6ce2d9416b8c",
    "answer/qa-s+od":
        "59fb7c0c0ba165d29fe4c5016ba251aa382f95e6fbb39723384754fc3ed7b15a",
    "answer/qa-t+od":
        "708176673c68479caa05b2306f6d8f2a3e8f7e9042047c78dea41c4bf20ab192",
    "answer/qa-t-w+od":
        "b17b7ce1b83c0e57634fa7b45f6bbc656063ea513f1d5228db6708a1e3babc8e",
    "answer/qa-t-ws+od":
        "1793590ae481d0df24bf6f83c539f0fd369ccef54f7db85ee91548785fb27cc9",
    "answer/qa-t-wt+od":
        "9642b422e75ff7b5c781df68bba69470c735e53cfc4fc709fcaded2fd1ff2fcc",
    "answer/qa-t-swt+od":
        "16c3e1f50ec9fd15c4b7d17a68ac8bcf4a9a48ba8c9033deca836b545c064840",
    "answer/qa-t-mwt+od":
        "3927520bdd3172bb3037a4a1ddeec08618c1d950dc530933807adc6bb2f1cfb1",
    "answer/qa-t-mwst+od":
        "87af7cb9dd23b099344c0da650be5a0e93b386f47a9f4c038faaba1b8491be6e",
    "eval/pipeline/report.json":
        "9cfd8393444a758f3809413bbe9f4e98eb7e5a909d6985e3d7efad97d64cdf21",
    "eval/pipeline/report.txt":
        "79881634dd7546fa06ebde19951bb479df89d2154dbdea9c40a6e8a87399f603",
    "eval/qa-t-mwst/report.json":
        "c13246b97ed64545d08e84f0b0bf31311a106108a6c608a1ff0845f0c00da70f",
    "eval/qa-t-mwst/report.txt":
        "3946035ebb6213eb984485ea46039367b075c73abed7fa13bb5128ef9f9adb59",
    "contents/tagger.nn":
        "fccc9b5d56ef023455c395134d6836e76fe6fe8497068bcf9cb0b86274f04e11",
    "contents/relation.nn":
        "24a6f3f811d2ecf5112a480241ce8d6a0545b75f8a5679e6aa1b8b9b6f4287d2",
    "contents/type.nn":
        "22dd3082c930afaeb054a3dec70366b3dfc8e497bb18c600f88d70e9cbe9a421",
    "contents/qa-s.nn":
        "8a6cb578c297b967b0cecfe2555c57121fff350fce10745f803e8fbe042bd70c",
    "contents/qa-t.nn":
        "8a6cb578c297b967b0cecfe2555c57121fff350fce10745f803e8fbe042bd70c",
    "contents/qa-t-w.nn":
        "e8f51d10c7e374369adf69bbdf0d867321863a02fe6710f9d1e1e9e3596b4f17",
    "contents/qa-t-ws.nn":
        "42edbaea43b0b40c8db92cb36835664463fe28e3495d0e495dc7b03dfed5c24f",
    "contents/qa-t-wt.nn":
        "c0ed941a097c074aca0c9eea2b28241e67755d9939522f00eb886c5b50a85f55",
    "contents/qa-t-swt.nn":
        "42edbaea43b0b40c8db92cb36835664463fe28e3495d0e495dc7b03dfed5c24f",
    "contents/qa-t-mwt.nn":
        "c47c736ee3a32b8555f471ac74a315a900040d0e5b43902fa8e0f67ea5c96df3",
    "contents/qa-t-mwst.nn":
        "6856646a4b62f2e55f2e006dbd21c377c9d3a186e82f2b5a00f9353beea19006",
}

# train-pipeline on the same data at the default epochs, seed 1
DEFAULT_EPOCHS_PINS = {
    "tagger.nn":
        "bbcf0a7b4716ac12d21edd316738fa7d8872c722d41bea61afd435efbe0988ed",
    "relation.nn":
        "3538e51a3bccb3a89030452fa429bba3e77db5456f629e590ad060b2dd7ddc7c",
    "type.nn":
        "c1d28cd35b231b97652c3ad0a4496b2281f5ec8610dfd5bd600d7d40a2458dc0",
    "contents/tagger.nn":
        "298db34807685a224cb0358d823a82cf1ab7a139b94853820c6c709d712b3cf9",
    "contents/relation.nn":
        "98f65dcccf757f4fc957a55b835a37bda9bf261d2d6bdbeb3c2efcdcfd88b893",
    "contents/type.nn":
        "154472f0494ee6be2089109f032b66b212d1832e624a577f9c79ad8b363c7b47",
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


def _contents(path) -> str:
    """A sha256 of the arrays ``load_params`` returns for the snapshot at
    ``path``, in name order: each one's name, dtype and shape on a line,
    then its bytes."""
    digest = hashlib.sha256()
    for name, arr in sorted(load_params(str(path)).items()):
        digest.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode("utf-8"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _snapshot_digests(models, pins) -> dict[str, str]:
    """The raw and the contents hash of each snapshot and sidecar that
    ``pins`` names, from the directory ``models``."""
    got = {}
    for name in pins:
        if name.startswith("contents/"):
            got[name] = _contents(models / name.split("/", 1)[1])
        elif "/" not in name:
            got[name] = _sha256((models / name).read_bytes())
    return got


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
    got = _snapshot_digests(models, PINS)

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
    got = _snapshot_digests(models, DEFAULT_EPOCHS_PINS)
    changed = _changed(DEFAULT_EPOCHS_PINS, got)
    assert not changed, (
        f"{', '.join(changed)} no longer hold the pinned bytes at the "
        "default epochs; see the module docstring")
