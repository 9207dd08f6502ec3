"""Digest every output of a full CLI workflow, to compare two checkouts.

Runs ``qakb.cli.main`` in-process, in a fresh temporary directory, over:

* ``synth`` at 125 entities with type-distinct twins, then ``gen-data``
  and ``train-pipeline``;
* ``train-e2e`` for every variant, each followed by ``answer`` and
  ``eval``, both with and without ``--out-degree-sort``;
* ``answer`` with the char-level ``qa-t-w`` and ``qa-t-mwst`` models over
  test questions holding a coined word, which is in no vocabulary, so
  its char-GRU summary runs on every use;
* ``answer``, ``eval`` and oracle ``eval`` for every pipeline strategy;
* ``ingest`` of small TSV facts and aliases and N-Triples types, in
  several id spellings and every literal escape, then ``gen-data`` on that
  KB over questions that mostly spell their subject's alias wrongly, so
  span labelling falls back to edit distance, one alias among them
  non-ASCII and one question long enough that a gram takes two 64-bit
  pattern words;
* ``synth`` and ``gen-data`` at 5,000 entities and 200 relations, then
  ``train-e2e --variant qa-t`` on 32 of its train questions (whose
  relation-dictionary rows the benchmark's ``prep-m`` unit builds),
  ``train-e2e --variant qa-t-mwst`` on 4, ``answer`` and ``eval`` with
  that model over 20 of its test questions, and oracle ``eval`` of
  ``p-qa-out-type`` over the same 20;
* ``--help``, and ``<command> --help`` for every command, at 80 columns.

It prints ``sha256  relative-path`` for every file the workflow leaves;
as ``contents/relative-path``, for each ``.qakb`` KB snapshot and ``.nn``
model table, a hash of what the tree's own ``load_kb`` or ``load_params``
returns for it (see :func:`contents_digest`), so two trees that store the
same KB or parameters in other bytes show equal ``contents/`` lines; and,
as ``stdout/NN-name``, a hash of each command's standard output, with
the temporary directory's path replaced by ``<tmp>``.  Two checkouts
wrote the same bytes when their digests are equal:

    python3 tools/workflow_digest.py > change.txt
    python3 tools/workflow_digest.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

A command that exits non-zero stops the run with exit 1.  A run takes
10-13 s on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from typing import Optional

TRAIN_FLAGS = ["--seed", "7"]

COMMANDS = ("ingest", "synth", "gen-data", "train-pipeline", "train-e2e",
            "answer", "eval")

NS = "http://rdf.freebase.com/ns/"
NOTABLE_TYPES = f"<{NS}common.topic.notable_types>"
TYPE_NAME = f"<{NS}type.object.name>"

# ids and relations in canonical, site-prefixed, slash, full-IRI and
# upper-case spellings
FACTS_TSV = (
    "m.0a01\t/business/company/founders\tm.0p01 m.0p02\n"
    "www.freebase.com/m/0a02\twww.freebase.com/film/film/directed_by\t"
    "m/0p01\n"
    "HTTP://rdf.freebase.com/ns/m.0a03\tNS/film/film/genre\tNS/m/0p03\n"
)
ALIASES_TSV = ("m.0a01\tAcme\nm.0a02\tThe Film\nm.0p01\tJo\nm.0p02\tjo\n"
               "m.0a04\tCafé Müller\n")
# a leading comment (the file is still read as N-Triples), a padded name,
# a blank line, an https subject, a name with every literal escape, and a
# French name that is dropped
TYPES_NT = (
    "# films\n"
    f"<{NS}m.0a01> {NOTABLE_TYPES} <{NS}m.0t01> .\n"
    f'<{NS}m.0t01> {TYPE_NAME} " Company "@en .\n'
    "\n"
    f"<https://rdf.freebase.com/ns/m.0a02>\t{NOTABLE_TYPES} <{NS}m.0t02> .\n"
    f'<{NS}m.0t02> {TYPE_NAME} "Film \\"Noir\\"\\t\\\\ Drama"@en . \n'
    f'<{NS}m.0t02> {TYPE_NAME} "Film noir"@fr .\n'
)

# questions on the ingested KB: misspelled aliases ("akme", "flim",
# "teh film", "jo's", a non-ASCII "cafe mûller"), one verbatim, one
# question sharing no character with its alias and one whose subject has
# none, which are dropped; one of 18 tokens, whose longest grams span
# two 64-bit pattern words in the edit-distance grid
INGESTED_QUESTIONS_TSV = (
    "m.0a01\t/business/company/founders\tm.0p01\twho founded akme ?\n"
    "m.0a02\t/film/film/directed_by\tm.0p01\twho directed the flim\n"
    "m.0a02\t/film/film/directed_by\tm.0p01\twhich teh film did jo make\n"
    "m.0p01\t/business/company/founders\tm.0a01\tjo's company is what\n"
    "m.0a01\t/business/company/founders\tm.0p02\twho started acme\n"
    "m.0a01\t/business/company/founders\tm.0p02\txx qq\n"
    "m.0a03\t/film/film/genre\tm.0p03\twhat genre is it\n"
    "m.0a04\t/film/film/genre\tm.0p03\twhat genre is cafe mûller\n"
    "m.0a02\t/film/film/directed_by\tm.0p01\twho was the person that "
    "directed teh film which everyone in the whole wide world keeps "
    "talking about\n"
)


class Workflow:
    """Runs commands in ``root`` and keeps each one's stdout digest."""

    def __init__(self, root: str, main):
        self.root = root
        self.main = main
        self.stdout_digests: list[tuple[str, str]] = []

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    def run(self, name: str, *argv: str) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = self.main(list(argv))
            except SystemExit as exc:  # argparse ends --help with exit 0
                code = exc.code
        if code != 0:
            sys.exit(f"{name}: exit {code}: {' '.join(argv)}")
        text = out.getvalue().replace(self.root, "<tmp>")
        label = f"stdout/{len(self.stdout_digests):02d}-{name}"
        self.stdout_digests.append(
            (hashlib.sha256(text.encode("utf-8")).hexdigest(), label))


def question_lines(bench: str, split: str,
                   limit: Optional[int] = None) -> list[str]:
    """The first ``limit`` (default all) lines of a benchmark split."""
    with open(os.path.join(bench, f"{split}.tsv"), encoding="utf-8") as fh:
        return [line for line in fh if line.strip()][:limit]


def write_question_texts(bench: str, dest: str,
                         limit: Optional[int] = None) -> None:
    """One question text per line, from the benchmark's test split."""
    texts = [line.rstrip("\n").split("\t")[3]
             for line in question_lines(bench, "test", limit)]
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write("".join(text + "\n" for text in texts))


# a word in no model's vocabulary
COINED = "zyzzyva"


def write_coined_questions(bench: str, dest: str, limit: int) -> None:
    """The first ``limit`` test questions twice: with :data:`COINED`
    before the first word, and in place of it.  The question templates
    never open with the subject's alias, so retrieval still finds it."""
    texts = [line.rstrip("\n").split("\t")[3]
             for line in question_lines(bench, "test", limit)]
    coined = [f"{COINED} {text}" for text in texts]
    coined += [" ".join([COINED, *text.split()[1:]]) for text in texts]
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write("".join(text + "\n" for text in coined))


def run_workflow(w: Workflow, variants, strategies) -> None:
    bench, kb = w.path("s"), w.path("s", "kb.qakb")
    tests, qfile = w.path("s", "test.tsv"), w.path("questions.txt")
    w.run("synth", "synth", "--seed", "1", "--entities", "125",
          "--type-distinct", "--out", bench)
    write_question_texts(bench, qfile)
    w.run("gen-data", "gen-data", "--kb", kb, "--questions",
          w.path("s", "train.tsv"), "--out", w.path("data"))
    w.run("train-pipeline", "train-pipeline", "--data", w.path("data"),
          "--out", w.path("pipeline"), *TRAIN_FLAGS)

    for variant in variants:
        model = w.path("models", f"{variant}.nn")
        w.run(f"train-e2e-{variant}", "train-e2e", "--kb", kb, "--questions",
              w.path("s", "train.tsv"), "--variant", variant, "--out", model,
              *TRAIN_FLAGS)
        for sort in ([], ["--out-degree-sort"]):
            tag = variant + ("-od" if sort else "")
            stack = ["--model", model, "--variant", variant, *sort]
            w.run(f"answer-{tag}", "answer", "--kb", kb, "--questions",
                  qfile, *stack)
            w.run(f"eval-{tag}", "eval", "--kb", kb, "--questions", tests,
                  "--out", w.path("reports", tag), *stack)

    coined = w.path("coined.txt")
    write_coined_questions(bench, coined, 4)
    for variant in ("qa-t-w", "qa-t-mwst"):
        w.run(f"answer-coined-{variant}", "answer", "--kb", kb, "--questions",
              coined, "--model", w.path("models", f"{variant}.nn"),
              "--variant", variant)

    for strategy in strategies:
        stack = ["--pipeline", w.path("pipeline"), "--strategy", strategy]
        w.run(f"answer-{strategy}", "answer", "--kb", kb, "--questions",
              qfile, *stack)
        w.run(f"eval-{strategy}", "eval", "--kb", kb, "--questions", tests,
              "--out", w.path("reports", strategy), *stack)
        w.run(f"oracle-{strategy}", "eval", "--kb", kb, "--questions", tests,
              "--out", w.path("reports", f"oracle-{strategy}"), "--oracle",
              "--strategy", strategy)

    inputs = {"facts.tsv": FACTS_TSV, "aliases.tsv": ALIASES_TSV,
              "types.nt": TYPES_NT,
              "ingested-questions.tsv": INGESTED_QUESTIONS_TSV}
    for name, text in inputs.items():
        with open(w.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
    w.run("ingest", "ingest", "--facts", w.path("facts.tsv"), "--aliases",
          w.path("aliases.tsv"), "--types", w.path("types.nt"),
          "--out", w.path("ingested.qakb"))
    w.run("gen-data-ingested", "gen-data", "--kb", w.path("ingested.qakb"),
          "--questions", w.path("ingested-questions.tsv"),
          "--out", w.path("ingested-data"))

    w.run("synth-m", "synth", "--seed", "1", "--entities", "5000",
          "--relations", "200", "--out", w.path("m"))
    kb_m = w.path("m", "kb.qakb")
    w.run("gen-data-m", "gen-data", "--kb", kb_m,
          "--questions", w.path("m", "train.tsv"), "--out", w.path("m-data"))
    for split, n in (("train", 4), ("train", 32), ("test", 20)):
        with open(w.path(f"m-{split}{n}.tsv"), "w", encoding="utf-8") as fh:
            fh.write("".join(question_lines(w.path("m"), split, n)))
    # the benchmark's prep-m unit: its DRR rows are those of 32 questions
    w.run("train-e2e-m-qa-t", "train-e2e", "--kb", kb_m, "--questions",
          w.path("m-train32.tsv"), "--variant", "qa-t",
          "--out", w.path("m-models", "qa-t.nn"), *TRAIN_FLAGS)
    write_question_texts(w.path("m"), w.path("m-questions.txt"), 20)
    model_m = w.path("m-models", "qa-t-mwst.nn")
    w.run("train-e2e-m", "train-e2e", "--kb", kb_m, "--questions",
          w.path("m-train4.tsv"), "--variant", "qa-t-mwst", "--out", model_m,
          *TRAIN_FLAGS)
    w.run("answer-m", "answer", "--kb", kb_m, "--questions",
          w.path("m-questions.txt"), "--model", model_m,
          "--variant", "qa-t-mwst")
    # error classes read each twin's aliases, type and out-degree
    w.run("eval-m", "eval", "--kb", kb_m, "--questions",
          w.path("m-test20.tsv"), "--out", w.path("reports", "m-qa-t-mwst"),
          "--model", model_m, "--variant", "qa-t-mwst")
    w.run("oracle-m", "eval", "--kb", kb_m, "--questions",
          w.path("m-test20.tsv"), "--out", w.path("reports", "m-oracle"),
          "--oracle", "--strategy", "p-qa-out-type")

    w.run("help", "--help")
    for command in COMMANDS:
        w.run(f"help-{command}", command, "--help")


def contents_digest(path: str) -> str:
    """A sha256 of what the tree's loader returns for the snapshot at
    ``path``.  For a ``.nn`` table: each array of ``load_params``, in name
    order, as its name, dtype and shape on a line, then its bytes.  For a
    ``.qakb`` KB: the JSON of its entity ids, relations, aliases and type
    labels, then the bytes of its aliased-position and fact columns."""
    digest = hashlib.sha256()
    if path.endswith(".nn"):
        from qakb.nn.io import load_params
        for name, arr in sorted(load_params(path).items()):
            digest.update(f"{name} {arr.dtype.str} {arr.shape}\n"
                          .encode("utf-8"))
            digest.update(arr.tobytes())
    else:
        from qakb.kb import load_kb
        kb = load_kb(path)
        digest.update(json.dumps([kb.ids, kb.relations, kb.aliases,
                                  kb.labels]).encode("utf-8"))
        for column in (kb.aliased, kb.subjects, kb.predicates, kb.objects):
            digest.update(column.astype("<i4").tobytes())
    return digest.hexdigest()


def file_digests(root: str) -> list[tuple[str, str]]:
    out = []
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out.append((digest, os.path.relpath(path, root)))
            if name.endswith((".qakb", ".nn")):
                out.append((contents_digest(path),
                            "contents/" + os.path.relpath(path, root)))
    return out


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(here, "..", "src"),
                        help="the source tree whose qakb to run "
                             "(default: this checkout's src)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal
    from qakb import e2e, pipeline
    from qakb.cli import main as qakb_main

    with tempfile.TemporaryDirectory(prefix="qakb-digest-") as root:
        w = Workflow(os.path.realpath(root), qakb_main)
        run_workflow(w, sorted(e2e.VARIANTS), pipeline.STRATEGIES)
        lines = sorted(file_digests(w.root), key=lambda d: d[1])
        lines += w.stdout_digests
    for digest, label in lines:
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
