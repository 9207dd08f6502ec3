"""Question answering over a triple-store knowledge base.

The package has two answer-producing stacks that share the knowledge base
and the alias index:

* a staged pipeline (entity tagger, candidate retrieval, relation matcher,
  optional type / out-degree disambiguation), and
* a jointly trained ranker that embeds questions, subjects and predicates
  into one space and answers by cosine similarity.

Everything numeric runs on a small numpy-backed reverse-mode autodiff in
:mod:`qakb.nn`; no external ML framework is used.
"""
