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

Every ``.nn``, contents and answer pin was re-recorded again when each
recurrent run began to share one product per step among its rows, with
``U`` stored as [h, G*h]; the sidecars and both ``eval`` reports held.

Training and answering run matrix products through BLAS, whose last bits
depend on the kernel.  The pins were recorded with numpy 2.4.6 and
OpenBLAS 0.3.31 picking its Haswell kernels at run time (x86-64), and
hold only for that numpy and those kernels; elsewhere a mismatch may
mean another kernel rather than another program.  There, a failure
names the outputs that changed and means training or answering changed:
record it in CHANGES.md; the hashes are never re-recorded silently.

With those kernels, seeded training writes the same bytes under 1 and 2
OpenBLAS threads at the default widths and at width 64, which
:func:`test_width_64_training_bytes_do_not_depend_on_blas_threads`
checks; width 128 is not checked here (probes agreed).  The pins hold
under 1 and 2 threads.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from qakb.cli import main
from qakb.nn.io import load_params
from qakb.pipeline import STRATEGIES

TRAIN = ["--epochs", "2", "--seed", "1"]
ANSWERED = 20
VARIANTS = ("qa-s", "qa-t", "qa-t-w", "qa-t-ws", "qa-t-wt", "qa-t-swt",
            "qa-t-mwt", "qa-t-mwst")

PINS = {
    "tagger.nn":
        "4d486c5910c2136151ecefc737cf9afc370dbe88fdc6d22f8d8ecd8b0dc62bc2",
    "tagger.nn.meta.json":
        "be69a9b112869a60ac5adff69ee2ff3673ecf499d0bedabe83a3f45ee2b1a5de",
    "relation.nn":
        "bd4e89264c731be96e887b7e12d347ac8d3c924bffd0b9b2bc4f9534cbe7ef76",
    "relation.nn.meta.json":
        "78eb7ab98b778d772aed6f6faae8b73e438ef34ea4da18f59df159c25f24ff28",
    "type.nn":
        "3949a0d398c3ecdc4a73c34e3a5cc2e8312e13351d40ee522e69d81cdd064714",
    "type.nn.meta.json":
        "0dfa14a082875c864bb1787aa6e24d9bb24a2603ffb78e64890f8f37b28ee406",
    "qa-s.nn":
        "e0723472bb5a2b0fc2c38cf571b98f3bd113a987d28693d8481e3d5dc8353eb7",
    "qa-s.nn.meta.json":
        "59bee5a3ca0528b8d938458d35f9c8c76575a30bdacad0532ebf94ddaac64c3c",
    "qa-t.nn":
        "e0723472bb5a2b0fc2c38cf571b98f3bd113a987d28693d8481e3d5dc8353eb7",
    "qa-t.nn.meta.json":
        "bdb53fc4e81903dc9fa3429ae353df8bc0fca50098d4787960dc0209f0d3c70f",
    "qa-t-w.nn":
        "d967ef1e044dbb23c95848066d5dc376a66a897bd90018b6987862c7859c7e35",
    "qa-t-w.nn.meta.json":
        "827037deec848bcecc658aae45186743e62797d1646ae67d9c4375eb460b3a71",
    "qa-t-ws.nn":
        "eaf3cd98a61cecccb0f46bd29a4237aace7308ad6fde135f9e561cc5c8607976",
    "qa-t-ws.nn.meta.json":
        "04944859ba69dc5d111e7dbb1e4adf3b01237aca02521f84c0ab6c41298f64ce",
    "qa-t-wt.nn":
        "8bc52cb353adbc10e4a71a595f6b9e9e922d90b0e119927fc463037218285273",
    "qa-t-wt.nn.meta.json":
        "79095c9ae37425bac6db1b6722f2d38c5f8e815de66039143e9cb7126df36ea6",
    "qa-t-swt.nn":
        "39f871f0628603fb25a701e2a65c349f709ab9442fa0ac70d249deb6efbd0d7f",
    "qa-t-swt.nn.meta.json":
        "ab72e3c1f11def0c96eb9b48b7f080ddfd2a979ca5d3a85639509c0d9a205cbc",
    "qa-t-mwt.nn":
        "f7d4e0e93da500e857e69557e6543841dd5623fafae077134e2683e5a0da299a",
    "qa-t-mwt.nn.meta.json":
        "cf8525d4a4757704e6acb0afdaebbaf4e7a28693bc2329554763506127ba76c4",
    "qa-t-mwst.nn":
        "9c51396fe4ccac1009e58ad63ec672d69bf3bca8ffe568ff6a6235e6aa7e653d",
    "qa-t-mwst.nn.meta.json":
        "ff1a6a60462a2a458039a170331d6339b71588b60fae82310b382fb8ab23f118",
    "answer/pipeline":
        "cfe64c6938514ef08ed8b5fd61e6a6677ed7666cfabe25724b3ee950e797b70e",
    "answer/qa-s":
        "e32ba2d42db594b3ffd90ec9bef89302a2edeb2e01e672d8e82cd4475c18aa46",
    "answer/qa-t":
        "258b06a88e657cdedde40ffc0bbc78ead9bba591cc149417bd2e7bc5cfd15e6f",
    "answer/qa-t-w":
        "fbd263b4629bab1d71811e457a277c169a8c9aa8b6f53b30b09add3af377e434",
    "answer/qa-t-ws":
        "450a4587eecfd03069206495693e7cef1820d94d95ffcf93347a219993ee9460",
    "answer/qa-t-wt":
        "062235cc3baf549c495e84c7a80f4c4a1feb485793c9ed8ec91e3f6ca19ae024",
    "answer/qa-t-swt":
        "b0442d55d311698950fd5409c420165abef0eeb38e619c5f8b609000b8da42fe",
    "answer/qa-t-mwt":
        "2211115154ce26bf316fba3448dfb3a207869b06a905ec4435d0af9302aa840b",
    "answer/qa-t-mwst":
        "491a5cdda192250be17b1b8032d09f786707c529f02086bf2cc0e9119e4b9371",
    "answer/p-qa":
        "ad66cf06a262edeaf60a7e2f65c2b6a133c873431e949205c0ca0c819eed85ca",
    "answer/p-qa-out":
        "4a7e6e502d5e9499c3954acc3e2a7afe3fcdadc7a1ac616c08e5e5b57136b5f4",
    "answer/p-qa-type":
        "7da0f45e4837611649e5305e3e81f7bfa811e2e4296e4dc149ac636ecef21cd4",
    "answer/p-qa-type-out":
        "424bcdd8b1aea1d8b9b4e6bb5b111a2a5398a66bc9d47f662295dac1563d7d2d",
    "answer/qa-s+od":
        "952b008df9f35be2c00df9e4beca1c5ea12b14661055771fa5bcee6c2baad7a7",
    "answer/qa-t+od":
        "8ecb0417f0b8e6d1b107736b577d69028b844e926ae99b386cf9ffa3a054dfb5",
    "answer/qa-t-w+od":
        "aef72998ee3f80814a7cb36d10d3bdd4b627af2a9c34ab25283f207b5b1ae005",
    "answer/qa-t-ws+od":
        "c89d1574877160c940aac66ba1e3d6c4c7b7a8a658a40d511e1fd35b67e10648",
    "answer/qa-t-wt+od":
        "942b5b1fef5f1dccdbb08d8d1bb6043b0d371a805e5ad5cf51feac09e21dcde3",
    "answer/qa-t-swt+od":
        "6b61b67dcb09ac365f78fceabc45213865a165a9ba99c690ddb89db1fe9ae4ca",
    "answer/qa-t-mwt+od":
        "331300dea1fcb4e3605434a023eebc330359e5d8a4a4a2259fbcd0ea36f4407b",
    "answer/qa-t-mwst+od":
        "11de47a6b987d7d3284184185684f5329057866f60039db9c9251b6a5f77eb78",
    "eval/pipeline/report.json":
        "9cfd8393444a758f3809413bbe9f4e98eb7e5a909d6985e3d7efad97d64cdf21",
    "eval/pipeline/report.txt":
        "79881634dd7546fa06ebde19951bb479df89d2154dbdea9c40a6e8a87399f603",
    "eval/qa-t-mwst/report.json":
        "c13246b97ed64545d08e84f0b0bf31311a106108a6c608a1ff0845f0c00da70f",
    "eval/qa-t-mwst/report.txt":
        "3946035ebb6213eb984485ea46039367b075c73abed7fa13bb5128ef9f9adb59",
    "contents/tagger.nn":
        "d84812d82ccf67c190b0af965c5f625ea250f1781bfb9eb79281ca32065a05a5",
    "contents/relation.nn":
        "edde4e8ac60ebf0571db6052b898354ac32887d9283317efffc7b3ee2ccf97a2",
    "contents/type.nn":
        "6b6514372dd15507e6af27ba7da417f5cbf73a6bac167bb020578f74bc71cb3d",
    "contents/qa-s.nn":
        "028105319d19d5b5566f5d4d383dd174ef78a648d5c996f60ddf4c114eaf19c4",
    "contents/qa-t.nn":
        "028105319d19d5b5566f5d4d383dd174ef78a648d5c996f60ddf4c114eaf19c4",
    "contents/qa-t-w.nn":
        "95517d704374862f721bf3e4f1d8477b845e19a262b0ed30148d83cadb4dfe51",
    "contents/qa-t-ws.nn":
        "a52258731bee62ab5edf6c5e8ca8c7c004be00e77fb62fb3893b5515ae5e38da",
    "contents/qa-t-wt.nn":
        "1cf157f8592f2b70a7632c9858ea46ca6a33a0df0f905fe3d08864ef510137e4",
    "contents/qa-t-swt.nn":
        "114cf6ea96149dc3528a057ec408a167dc57cfdf1c23035e6b21e8669259c1be",
    "contents/qa-t-mwt.nn":
        "55593a5c1ee253789bd2b13d34c25c5b3e37b6c68e3ff0a0fb2bbf0e7d8e2136",
    "contents/qa-t-mwst.nn":
        "862b07115c84769eacdbfcfdf20440c82ac6329ff59ad1db958b876c543c9d15",
}

# train-pipeline on the same data at the default epochs, seed 1
DEFAULT_EPOCHS_PINS = {
    "tagger.nn":
        "897e7945d70ae4d90b09e912880904ca140aee712d3783fd82054cb540aac69b",
    "relation.nn":
        "e912e19f16a1e9836651fd9ab4f4c3e200cc0acdc451e9f3e188114fd3f8f182",
    "type.nn":
        "ac2c50b51a87647afac321d64747a703738d79e0ba50a03493ac48872b2d718c",
    "contents/tagger.nn":
        "4fec8289873d3784df140101fc787bbe7e8196902a3e87b940c3fbef0a57ef71",
    "contents/relation.nn":
        "94ee9c6d091c0f0eeb56a1463b09919bd9be54bc29efd443c15c027baef3f3d5",
    "contents/type.nn":
        "ac84b806a07b66857c3094465d966c175671536d6ceb4132ef27bba17bd21fc6",
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


# Run in a subprocess, with ``src`` importable, in the directory argv[1]:
# ``synth`` of 20 entities and 3 relations, ``gen-data`` on its first 8
# train questions, then ``train-pipeline`` and ``train-e2e --variant
# qa-t-mwst`` at width 64 (hidden = embed = 64; the joint model's LSTM
# reads 76-wide word-and-char rows), one epoch, seed 3.  Prints a sha256
# of each snapshot, by name.
_WIDTH_64 = """
import contextlib, hashlib, io, json, os, sys
from qakb.cli import main
out = sys.argv[1]
width = ["--hidden-size", "64", "--embed-dim", "64", "--epochs", "1",
         "--seed", "3"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["synth", "--seed", "1", "--entities", "20", "--relations",
                 "3", "--out", f"{out}/bench"]) == 0
    with open(f"{out}/bench/train.tsv", encoding="utf-8") as fh:
        lines = fh.readlines()[:8]
    with open(f"{out}/q.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    assert main(["gen-data", "--kb", f"{out}/bench/kb.qakb", "--questions",
                 f"{out}/q.tsv", "--out", f"{out}/data"]) == 0
    assert main(["train-pipeline", "--data", f"{out}/data", "--out",
                 f"{out}/models", *width]) == 0
    assert main(["train-e2e", "--kb", f"{out}/bench/kb.qakb", "--questions",
                 f"{out}/q.tsv", "--variant", "qa-t-mwst", "--out",
                 f"{out}/models/qa-t-mwst.nn", *width]) == 0
digests = {}
for name in sorted(os.listdir(f"{out}/models")):
    if name.endswith(".nn"):
        with open(f"{out}/models/{name}", "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(digests))
"""


def test_width_64_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Seeded training at width 64 writes the same snapshots under 1 and
    2 OpenBLAS threads: the products it makes have the same bits under
    both (``tests/test_slots.py``).  Both runs start together."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    procs = {threads: subprocess.Popen(
        [sys.executable, "-c", _WIDTH_64, str(tmp_path / f"threads{threads}")],
        stdout=subprocess.PIPE, text=True,
        env={**env, "OPENBLAS_NUM_THREADS": str(threads)})
        for threads in (1, 2)}
    digests = {}
    for threads, proc in procs.items():
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        digests[threads] = json.loads(out)
    assert sorted(digests[1]) == ["qa-t-mwst.nn", "relation.nn", "tagger.nn",
                                  "type.nn"]
    changed = sorted(name for name in digests[1]
                     if digests[1][name] != digests[2][name])
    assert not changed, f"{changed} differ under 1 and 2 BLAS threads"
