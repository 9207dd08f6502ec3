"""The bytes ``qakb gen-data`` writes and the joint model's negative pools,
pinned on the benchmark's three specs.

Each spec is ``qakb synth --seed 1 --collision-rate 0.3`` at the sizes of
the benchmark's ``train``, ``answer`` and ``prep-m`` workloads.  On the
first questions of its ``train.tsv``, as many as the workload's prep unit
reads, the test pins a sha256 of each file ``gen-data`` writes
(``tagged.tsv``, ``relation_pairs.tsv``, ``type_pairs.tsv``).  On as many
as its ``train-e2e --variant qa-t`` reads, with that command's seed 1, it
pins ``datagen.build_negative_pools``: the subject pools, then the
predicate pools, whose tails are rows of the relation edit-distance
dictionary.  The hashes were recorded at commit 63abb4f, where that
dictionary was still built one ``levenshtein`` call per pair and each
pair line had its own ``write``.

Neither path runs BLAS or float arithmetic, so the pin holds on any
machine with this numpy.  A failure names the outputs that changed and
means the training data changed: record it in CHANGES.md; the hashes are
never re-recorded silently.
"""

import hashlib
import json

import pytest

from qakb.aliasindex import build_index
from qakb.cli import main
from qakb.datagen import build_negative_pools, parse_questions_tsv
from qakb.kb import load_kb

GEN_DATA_FILES = ("tagged.tsv", "relation_pairs.tsv", "type_pairs.tsv")

# name: (entities, relations, gen-data questions, qa-t questions, pins)
SPECS = {
    "60x6": (60, 6, 48, 48, {
        "tagged.tsv":
            "f1a0b7a8c7dd0aa89e289402202c6f7338ff8c894aca23da57547eea5e00fb98",
        "relation_pairs.tsv":
            "1f6708d6a7e6547f70c6c7d153c6356f98adc78a8d9234106ec96d1624c9efe8",
        "type_pairs.tsv":
            "aa1eceb51f71ae90b7ccee27e9dc4454cf09986b42ae37a46610b339b745d8e4",
        "pools":
            "1403eb9f5b621d3547935c06db05dd326e2f6ac791a2ed55efa29e9c6feebd88",
    }),
    "125x6": (125, 6, 100, 16, {
        "tagged.tsv":
            "42fed1ee9a01ef9b302d83fd387d0a14c80b741246c224942ae44a3db900f1f5",
        "relation_pairs.tsv":
            "7f54a7d20788b4a4b6342ba664d9e224657082ed6004f8566f95adff4545733b",
        "type_pairs.tsv":
            "e3d6bc34977641704b7e636f9c308629c07665db3ca7fbb94bbaf9fe0704c89b",
        "pools":
            "ddf3a9e52b8d06b6770f0be6fb58ba2703969868849136c6ae7350c53083dd33",
    }),
    "5000x200": (5000, 200, 500, 32, {
        "tagged.tsv":
            "5fa17abb27fe298e274b805aa869c950554c41093d21ba203cc55e218749c18b",
        "relation_pairs.tsv":
            "643717bfbd56d33d54e6ec211d9f0742d4c97ac883c11ab1102ab44d35c0b7ba",
        "type_pairs.tsv":
            "2ec46e1e6822949e0ef399842a2bfccd0168f45fad4a4d463c590e0b7376b633",
        "pools":
            "9186b173ef4ef806482f142705a827239af44a177a08b30e22bbc3182d18db14",
    }),
}


@pytest.fixture(scope="module", params=list(SPECS))
def spec(request, tmp_path_factory):
    """(name, synth output directory, train.tsv lines) of one spec."""
    name = request.param
    entities, relations = SPECS[name][:2]
    out = tmp_path_factory.mktemp(name)
    assert main(["synth", "--seed", "1", "--entities", str(entities),
                 "--relations", str(relations), "--collision-rate", "0.3",
                 "--out", str(out)]) == 0
    lines = (out / "train.tsv").read_text(encoding="utf-8").splitlines(True)
    return name, out, lines


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _assert_pinned(name: str, got: dict[str, str]) -> None:
    expected = {key: SPECS[name][4][key] for key in got}
    changed = sorted(key for key in got if got[key] != expected[key])
    assert not changed, (
        f"spec {name}: {', '.join(changed)} no longer hold the pinned "
        "bytes: the training data changed")


def test_gen_data_bytes_are_pinned(spec, tmp_path):
    name, out, lines = spec
    questions = tmp_path / "questions.tsv"
    questions.write_text("".join(lines[:SPECS[name][2]]), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["gen-data", "--kb", str(out / "kb.qakb"), "--questions",
                 str(questions), "--out", str(data)]) == 0
    _assert_pinned(name, {file: _sha256((data / file).read_bytes())
                          for file in GEN_DATA_FILES})


def test_negative_pools_are_pinned(spec):
    name, out, lines = spec
    kb = load_kb(str(out / "kb.qakb"))
    questions = parse_questions_tsv(lines[:SPECS[name][3]])
    pools = build_negative_pools(questions, kb, build_index(kb), seed=1)
    text = json.dumps([pools.subject_pools, pools.predicate_pools])
    _assert_pinned(name, {"pools": _sha256(text.encode("utf-8"))})
