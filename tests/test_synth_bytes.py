"""The bytes ``qakb synth`` writes, pinned for a grid of specs.

Every number this project reports is measured on
``evalharness.generate_synthetic`` data, so those data must not change
unnoticed.  Each spec's first hash covers ``b"KBQA2"``, then the JSON
payload a ``KBQA2`` snapshot of the KB that ``kb.qakb`` holds had, then
``train.tsv`` and ``test.tsv``.  Those hashes were recorded at commit
5a0ef46, where synth still made one ``rng.integers`` call per draw and
wrote ``KBQA2`` snapshots; that they still hold shows that each later
layout (``KBQA3``, then the checksummed ``KBQA4`` container) keeps the
same KB.  The second hash is of the raw ``kb.qakb`` file, re-recorded
when the container replaced ``KBQA3`` while the first held.

synth runs no BLAS, so the pins hold on any machine with this numpy.  A
failure means the synthetic data changed, for example under a numpy with
another PCG64 stream or another ``integers`` rule, or that the snapshot
layout changed.  Such a change is recorded in CHANGES.md; the hashes are
never re-recorded silently.
"""

import hashlib

import pytest
from conftest import kbqa2_payload

from qakb.cli import main
from qakb.kb import load_kb

SPECS = {
    # the benchmark's three specs: train, answer and prep-m
    "60x6": (["--seed", "1", "--entities", "60", "--relations", "6",
              "--collision-rate", "0.3"],
             "4f928f3d7a06beeb0eed72e76e527a74994d98d23578be4a68881ff68983a996"),
    "125x6": (["--seed", "1", "--entities", "125", "--relations", "6",
               "--collision-rate", "0.3"],
              "50451722289b8c1fd41650bf96ba96af58e0ff376956487242b0c327b5da3460"),
    "5000x200": (["--seed", "1", "--entities", "5000", "--relations", "200",
                  "--collision-rate", "0.3"],
                 "a5986056e4cb051edb040b0b20d9c0eae63dd7169604302ecc88e68630dab94b"),
    "type-distinct-no-gap": (
        ["--seed", "7", "--entities", "60", "--relations", "6",
         "--type-distinct", "--no-outdegree-gap"],
        "cfb988b4efd97d9eaa5062141a586b58fc09c7dd83d746ba824bab7bedfec351"),
    "collision-1.0": (["--seed", "3", "--entities", "60", "--relations", "6",
                       "--collision-rate", "1.0"],
                      "1aad2ae727e5a1289bec40984ef276357c16e9098f572cf2b0e113b7b259b0e9"),
    # all 8,000 coined words: thousands of redraws and block refills
    "word-limit": (["--seed", "5", "--entities", "7990", "--relations", "10"],
                   "b2d965da0d4500ebf80ef9171c12bdbd0b5749b92199ada066043df6aabb5241"),
}

# sha256 of each spec's raw kb.qakb, recorded when the KBQA4 container
# replaced KBQA3
SNAPSHOTS = {
    "60x6": "7e548431759e00474ce84af6ebab8de64281a0c3c477869885bfd55470de6609",
    "125x6":
        "8fab06b6cd3c73224ebc25fc966ceda0a5ae80bb6d2ff6cc7c6dd1b9929c2802",
    "5000x200":
        "19ecfa57f444e7fdfc612288f907a13acd84b65ea251aff1f5a5f73680313a43",
    "type-distinct-no-gap":
        "1b344b9c04fe649d93562c43b578f71bc1d9a58b8bfa724cdd608419443da8e6",
    "collision-1.0":
        "e2f31dd8261f3ee22b9079202e86a318dd05d5f230176b8ac909600208c36ac6",
    "word-limit":
        "b3bdfdd236e5fa657cecc17c7528b11edbd4a42eb2b8723765d36d057a2057ff",
}


def synth_hash(out) -> str:
    digest = hashlib.sha256(b"KBQA2")
    digest.update(kbqa2_payload(load_kb(str(out / "kb.qakb"))))
    for name in ("train.tsv", "test.tsv"):
        digest.update((out / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", SPECS)
def test_synth_bytes_are_pinned(name, tmp_path):
    flags, expected = SPECS[name]
    assert main(["synth", *flags, "--out", str(tmp_path)]) == 0
    assert synth_hash(tmp_path) == expected, (
        f"synth {' '.join(flags)} no longer writes the pinned bytes: the "
        "synthetic data changed")
    snapshot = hashlib.sha256((tmp_path / "kb.qakb").read_bytes())
    assert snapshot.hexdigest() == SNAPSHOTS[name], (
        "the same KB no longer makes the pinned snapshot bytes")
    # every entity and relation took its own coined word
    kb = load_kb(str(tmp_path / "kb.qakb"))
    words = [rec.aliases[0] for mid, rec in kb.entities.items()
             if mid.startswith("m.0g")]
    words += sorted({f.relation.rsplit("/", 1)[-1] for f in kb.facts
                     if f.relation.startswith("/synth/fact/")})
    count = sum(int(flags[flags.index(flag) + 1])
                for flag in ("--entities", "--relations"))
    assert len(set(words)) == len(words) == count
