"""The bytes ``qakb gen-data`` and an oracle ``qakb eval`` write over a
small hand-written KB whose aliases have several tokens, pinned.

Every alias of a synthetic KB is one coined token, so the other byte pins
never reach an index bucket of a multi-token alias.  This KB, built with
``qakb ingest``, has multi-word aliases, an entity with two aliases, a
shared alias, a five-token alias (longer than any indexed gram), two
aliases of one entity that share a gram, and the punctuation run
``harder ..... faster``.  Its questions hit aliases exactly, inside
longer text and only in part, so span labelling takes both its exact and
its edit-distance path and retrieval falls back to partial grams.

The test pins a sha256 of every file ``gen-data`` and ``eval --oracle
--strategy p-qa-out-type`` write, and of the joint model's negative pools
at seed 1.  The hashes were recorded at commit 66b7e89, before the alias
index stopped storing each one-token alias three times.  A failure names
the outputs that changed and means the data or the answers changed:
record it in CHANGES.md; the hashes are never re-recorded silently.
"""

import hashlib
import json

from qakb.aliasindex import build_index
from qakb.cli import main
from qakb.datagen import build_negative_pools, parse_questions_tsv
from qakb.kb import load_kb

FACTS = """\
m.0a1\t/people/person/place_of_birth\tm.0a8
m.0a1\t/people/person/spouse\tm.0a2
m.0a2\t/people/person/spouse\tm.0a1
m.0a2\t/people/person/place_of_birth\tm.0b6
m.0a3\t/music/album/artist\tm.0b1
m.0a4\t/music/recording/releases\tm.0b3
m.0a5\t/location/country/capital\tm.0b2
m.0a5\t/location/location/contains\tm.0b2 m.0b7
m.0a6\t/business/company/founder\tm.0b4
m.0a6\t/business/company/headquarters\tm.0a7
m.0a7\t/location/location/contains\tm.0b5
m.0a9\t/music/album/artist\tm.0b1
"""

ALIASES = """\
m.0a1\tbarack obama
m.0a1\tobama
m.0a2\tmichelle obama
m.0a3\tharder ..... faster
m.0a4\tgermany
m.0a5\tgermany
m.0a5\tdeutschland
m.0a6\tthe new york times company
m.0a6\tnew york times
m.0a7\tnew york
m.0a7\tnyc
m.0a8\thonolulu
m.0a9\tfaster than light
m.0b1\tdaft punk
m.0b2\tberlin
"""

TYPES = """\
m.0a1\tus president
m.0a2\tperson
m.0a3\tmusical album
m.0a4\tmusical recording
m.0a5\tcountry
m.0a6\tcompany
m.0a7\tcity
m.0a9\tmusical album
"""

QUESTIONS = """\
m.0a1\t/people/person/place_of_birth\tm.0a8\twhere was barack obama born ?
m.0a2\t/people/person/spouse\tm.0a1\twho is michelle obama married to
m.0a3\t/music/album/artist\tm.0b1\twho made harder ..... faster ?
m.0a5\t/location/country/capital\tm.0b2\twhat is the capital of germany
m.0a4\t/music/recording/releases\tm.0b3\thow was germany released
m.0a6\t/business/company/founder\tm.0b4\twho founded the times company ?
m.0a7\t/location/location/contains\tm.0b5\twhat does new york contain
m.0a6\t/business/company/headquarters\tm.0a7\twhere is the new york times \
company based
"""

PINS = {
    "tagged.tsv":
        "d7733f892fb8cbca7317035cc55af0daafbc63ee9657ce58862c1f42c1721e43",
    "relation_pairs.tsv":
        "ca5c340815ec77feac3d444d38b5ca765a72cba5654d18db3173d3b3dc0b017f",
    "type_pairs.tsv":
        "54d591468f1293575cbbdd5e430041d88890a446a3ff254d524f67d77a58e46c",
    "report.json":
        "a9d8c118a53bfbb430f7434a5b9cf336e2cbf77f4844b9bed321a737c36f5711",
    "report.txt":
        "c22d7ad574cee70d07c6b38725c7d9b32939330883a8f0102b3acd839fe70188",
    "pools":
        "93a505645328d5fccfeac34672d59577b6dc22a3355a018341c90f1378667073",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_multi_token_alias_outputs_are_pinned(tmp_path):
    for name, text in (("facts.tsv", FACTS), ("aliases.tsv", ALIASES),
                       ("types.tsv", TYPES), ("questions.tsv", QUESTIONS)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    kb, questions = str(tmp_path / "kb.qakb"), str(tmp_path / "questions.tsv")
    assert main(["ingest", "--facts", str(tmp_path / "facts.tsv"),
                 "--aliases", str(tmp_path / "aliases.tsv"),
                 "--types", str(tmp_path / "types.tsv"), "--out", kb]) == 0
    data, report = tmp_path / "data", tmp_path / "report"
    assert main(["gen-data", "--kb", kb, "--questions", questions,
                 "--out", str(data)]) == 0
    assert main(["eval", "--kb", kb, "--questions", questions, "--oracle",
                 "--strategy", "p-qa-out-type", "--out", str(report)]) == 0
    got = {file: _sha256((data / file).read_bytes())
           for file in ("tagged.tsv", "relation_pairs.tsv", "type_pairs.tsv")}
    got.update({file: _sha256((report / file).read_bytes())
                for file in ("report.json", "report.txt")})
    loaded = load_kb(kb)
    pools = build_negative_pools(parse_questions_tsv(QUESTIONS.splitlines()),
                                 loaded, build_index(loaded), seed=1)
    got["pools"] = _sha256(json.dumps(
        [pools.subject_pools, pools.predicate_pools]).encode("utf-8"))
    changed = sorted(key for key in PINS if got[key] != PINS[key])
    assert not changed, (
        f"{', '.join(changed)} no longer hold the pinned bytes: the data "
        "or the answers over multi-token aliases changed")
