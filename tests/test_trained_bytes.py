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
        "d9a328d2e38090c6a01b68e1ead9f947c3e101dd30eccea738d9ad8423bd41ab",
    "tagger.nn.meta.json":
        "be69a9b112869a60ac5adff69ee2ff3673ecf499d0bedabe83a3f45ee2b1a5de",
    "relation.nn":
        "34d94bbecbe4322e413292b69f9ab49a9b724f4b119534ba3d793fe4d03262ca",
    "relation.nn.meta.json":
        "78eb7ab98b778d772aed6f6faae8b73e438ef34ea4da18f59df159c25f24ff28",
    "type.nn":
        "9b20438bb9183b750a87d8746d5359a3251b5135f6c4538938b8590351f75168",
    "type.nn.meta.json":
        "0dfa14a082875c864bb1787aa6e24d9bb24a2603ffb78e64890f8f37b28ee406",
    "qa-s.nn":
        "c345067938558eac93ff528f5a09e178c6a9dec5a476c658aa06321f8565a80e",
    "qa-s.nn.meta.json":
        "59bee5a3ca0528b8d938458d35f9c8c76575a30bdacad0532ebf94ddaac64c3c",
    "qa-t.nn":
        "c345067938558eac93ff528f5a09e178c6a9dec5a476c658aa06321f8565a80e",
    "qa-t.nn.meta.json":
        "bdb53fc4e81903dc9fa3429ae353df8bc0fca50098d4787960dc0209f0d3c70f",
    "qa-t-w.nn":
        "f6af4d672a8f8b5ee947faef935e8a4142dcb68896a17cb745b945a78e6c9a62",
    "qa-t-w.nn.meta.json":
        "827037deec848bcecc658aae45186743e62797d1646ae67d9c4375eb460b3a71",
    "qa-t-ws.nn":
        "105c3911edc8e559d2fbd2927cdf8cec0e70d2dcf129f5397b02f3c735315837",
    "qa-t-ws.nn.meta.json":
        "04944859ba69dc5d111e7dbb1e4adf3b01237aca02521f84c0ab6c41298f64ce",
    "qa-t-wt.nn":
        "0dcd39221542d203cba50c04814cf0597181d57e31c7b61a9e2d0384366a00a0",
    "qa-t-wt.nn.meta.json":
        "79095c9ae37425bac6db1b6722f2d38c5f8e815de66039143e9cb7126df36ea6",
    "qa-t-swt.nn":
        "ba8c7c8212c1d933b325549b26bf7a51f6b47b1c7926e9de6d35fec0fcccf691",
    "qa-t-swt.nn.meta.json":
        "ab72e3c1f11def0c96eb9b48b7f080ddfd2a979ca5d3a85639509c0d9a205cbc",
    "qa-t-mwt.nn":
        "7a75d9e35b4c2b3b9601bca3cec4e5af52ac96a1b7e1f93de4e4bf2d9327d11b",
    "qa-t-mwt.nn.meta.json":
        "cf8525d4a4757704e6acb0afdaebbaf4e7a28693bc2329554763506127ba76c4",
    "qa-t-mwst.nn":
        "7d6b6f58e2e6440df4e1001208bfb6b0575fed8996176ae388057bb9379d7dac",
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
    "contents/tagger.nn":
        "d42a0876d0a481476679b810f5936a582ba5b92b21771ec0cb37bb1054d0deb6",
    "contents/relation.nn":
        "f78b548589ae2ad32a4c67de2acbaab14dc39ba4c2f706fe356b5e10e77610a1",
    "contents/type.nn":
        "17b28b4b29c62c0dc0e7fa751365e81c20ede143bf251fea871eee10fa5c901f",
    "contents/qa-s.nn":
        "ef8b90525deffaa75ca39d2abba2ce2d77f5df24f8e9547aa717bf868f8eb661",
    "contents/qa-t.nn":
        "ef8b90525deffaa75ca39d2abba2ce2d77f5df24f8e9547aa717bf868f8eb661",
    "contents/qa-t-w.nn":
        "7ff29ed811d7707acc7ccbc7d47e2ca8c4d2d6fd8f1097e1746a46031ca94ff5",
    "contents/qa-t-ws.nn":
        "0451f2ee3cdb9109ed2e8b337ef6ebf7e284b094a83e52ad7d49abb84ff0395d",
    "contents/qa-t-wt.nn":
        "411f3e1d661e7d94bbc3da7697ae43ceb7425e1ba7af310cda28dbf74d139092",
    "contents/qa-t-swt.nn":
        "d7ede8955b9db53d84809bfe4e6f11d0b99ec6a8287a51b9807e4c3931f272db",
    "contents/qa-t-mwt.nn":
        "a28b8b575ec410d9567a85f7ebfaea9658dbab108e4c78a727b64cead238062a",
    "contents/qa-t-mwst.nn":
        "ee8b5b1eda53c4159cbe2bc67467990840ad29a3077a7eb11be2e4aa3ab9d3ac",
}

# train-pipeline on the same data at the default epochs, seed 1
DEFAULT_EPOCHS_PINS = {
    "tagger.nn":
        "dc2d36ae134fe5c22b960a9e660fc6f97dd010f43f1480568ab94f377a945ade",
    "relation.nn":
        "b8ca2e951b65b78fc64cc4cd6268383c64a013a853476f51476e346a553358dd",
    "type.nn":
        "4198cedf4aaa94013e5acabbdef0bad91c0d79d2f6bcb886d6fafc25c417f930",
    "contents/tagger.nn":
        "130ba6a80ada64ee26a2277b1dc141862bab035bcdfd86e74a49537d3881377d",
    "contents/relation.nn":
        "ae91b7fa3ca4f0f15d06119dc79d0d1c0c41bb48a96ef32d561c92927b42b5c4",
    "contents/type.nn":
        "575418428374921becd0a9e3a7801de97c935ce875d3d7811afda8ca95a701a6",
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
