"""Command-line workflow for the question answering engine.

Subcommands cover the whole life cycle: ``ingest`` builds a knowledge
base snapshot from data files, ``synth`` fabricates a seeded benchmark,
``gen-data`` derives training files, ``train-pipeline`` / ``train-e2e``
fit the two model families, ``answer`` runs a line-in/JSON-out loop, and
``eval`` scores a strategy and writes report files.

Exit codes: 0 success, 1 usage error (including size flags that make a
model too large to allocate), 2 data error (bad, missing or non-UTF-8
input files, with file and line, or a path that cannot be read or
written), 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import logging
import os
import sys
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from qakb import datagen, e2e, evalharness, pipeline
from qakb.aliasindex import (AliasIndex, build_index,
                             retrieve_question_candidates)
from qakb.errors import (
    EmptyEvalSet,
    EmptyTrainingSet,
    LabelFailure,
    MalformedId,
    ParseError,
    QAKBError,
    ShapeMismatch,
)
from qakb.kb import KnowledgeBase, build_kb, load_kb, save_kb
from qakb.nn.config import TrainConfig
from qakb.nn.io import load_model, meta_path, save_model

logger = logging.getLogger(__name__)

DEFAULT_SEED = 42
SEED_ENV_VAR = "QAKB_SEED"


class UsageError(Exception):
    """Bad flags or flag combinations; exits 1."""


class DataError(Exception):
    """Bad or missing input data; exits 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse hook
        self.print_usage(sys.stderr)
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def read_config_file(path: str) -> dict[str, str]:
    """Parse simple ``key=value`` lines; ``#`` comments and blanks skip.

    The keys are those some command reads (the training fields and
    ``seed``), so one file can serve every command.  A missing or non-UTF-8
    file, an unknown key, or a value that does not cast to its key's type,
    is a DataError."""
    casts = {field: cast for field, cast, _ in _CONFIG_FIELDS}
    casts["seed"] = int
    out: dict[str, str] = {}
    for line_no, line in enumerate(_parse_file(path, list), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{line_no}: expected key=value")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in casts:
            raise DataError(f"{path}:{line_no}: unknown key '{key}'")
        try:
            casts[key](value)
        except ValueError:
            raise DataError(f"{path}:{line_no}: {key}={value}: not "
                            f"a valid {casts[key].__name__}") from None
        out[key] = value
    return out


def resolve_seed(flag: Optional[int], config: Mapping[str, str],
                 env: Mapping[str, str] = os.environ) -> int:
    """Flag beats config file beats QAKB_SEED beats the default.  A
    negative seed, or a QAKB_SEED that is not an int, is a UsageError
    naming its source."""
    if flag is not None:
        seed, source = flag, f"--seed {flag}"
    elif "seed" in config:
        seed, source = int(config["seed"]), f"--config seed={config['seed']}"
    elif SEED_ENV_VAR in env:
        source = f"{SEED_ENV_VAR}={env[SEED_ENV_VAR]}"
        try:
            seed = int(env[SEED_ENV_VAR])
        except ValueError:
            raise UsageError(f"{source}: not a valid int") from None
    else:
        return DEFAULT_SEED
    if seed < 0:
        raise UsageError(f"{source}: a seed must be non-negative")
    return seed


def _require_files(*paths: Optional[str]) -> None:
    """DataError naming the first given path that is not a regular file:
    missing, or something else, such as a directory or a device."""
    for path in paths:
        if path is not None and not os.path.isfile(path):
            fault = ("not a regular file" if os.path.exists(path)
                     else "no such file")
            raise DataError(f"{path}: {fault}")


def _read_file(path: str, read_fn: Callable):
    """``read_fn(path)``; a missing or non-UTF-8 file or a parse error is
    a DataError naming ``path``."""
    _require_files(path)
    try:
        return read_fn(path)
    except (ParseError, MalformedId) as exc:
        raise DataError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _parse_file(path: str, parse_fn: Callable):
    """``parse_fn`` over the lines of the file at ``path``, as _read_file."""
    def read(p: str):
        with open(p, encoding="utf-8") as fh:
            return parse_fn(fh)
    return _read_file(path, read)


def _load_kb(path: str) -> KnowledgeBase:
    return _read_file(path, load_kb)


# TrainConfig fields settable by flag or config file: (field, type, flag)
_CONFIG_FIELDS = (
    ("epochs", int, "--epochs"),
    ("batch_size", int, "--batch-size"),
    ("hidden_size", int, "--hidden-size"),
    ("embed_dim", int, "--embed-dim"),
    ("char_dim", int, "--char-dim"),
    ("max_len", int, "--max-len"),
    ("learning_rate", float, "--learning-rate"),
    ("gamma", float, "--gamma"),
    ("dropout_p", float, "--dropout"),
)


def train_config(args: argparse.Namespace,
                 config: Mapping[str, str]) -> TrainConfig:
    """Build a TrainConfig from flags, config file, then class defaults."""
    kwargs = {"seed": resolve_seed(args.seed, config)}
    for field, cast, _ in _CONFIG_FIELDS:
        value = getattr(args, field, None)
        if value is None and field in config:
            value = cast(config[field])
        if value is not None:
            kwargs[field] = value
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _too_large(exc: MemoryError) -> UsageError:
    """Size flags that make a model too large to allocate."""
    detail = f" ({exc})" if str(exc) else ""
    return UsageError(f"the model does not fit in memory{detail}: lower "
                      "--hidden-size, --embed-dim or --char-dim")


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    for field, cast, flag in _CONFIG_FIELDS:
        sub.add_argument(flag, type=cast, dest=field)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    from qakb.kb import parse_alias_lines, parse_triples_tsv, parse_type_lines

    _require_files(args.facts, args.aliases, args.types)
    facts = _parse_file(args.facts, parse_triples_tsv)
    aliases = (_parse_file(args.aliases, parse_alias_lines)
               if args.aliases else [])
    types = _parse_file(args.types, parse_type_lines) if args.types else []
    kb = build_kb(facts, aliases, types)
    save_kb(kb, args.out)
    print(f"{len(kb.subjects)} facts, {len(kb.ids)} entities -> {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    try:
        spec = evalharness.SyntheticSpec(
            seed=resolve_seed(args.seed, config),
            n_entities=args.entities,
            n_relations=args.relations,
            collision_rate=args.collision_rate,
            twin_outdegree_gap=args.outdegree_gap,
            twin_type_distinct=args.type_distinct,
            test_fraction=args.test_fraction,
        )
        kb, train, test = evalharness.generate_synthetic(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    save_kb(kb, os.path.join(args.out, "kb.qakb"))
    for name, split in (("train.tsv", train), ("test.tsv", test)):
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(datagen.serialize_questions_tsv(split))
    print(f"{len(kb.subjects)} facts, {len(train)}+{len(test)} questions "
          f"-> {args.out}")
    return 0


def cmd_gen_data(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    kb = _load_kb(args.kb)
    questions = _parse_file(args.questions, datagen.parse_questions_tsv)
    index = build_index(kb)
    os.makedirs(args.out, exist_ok=True)

    labeled, dropped = datagen.label_questions(questions, kb)
    datagen.write_labeled_questions(
        os.path.join(args.out, "tagged.tsv"), labeled
    )

    domains = datagen.build_relation_domains(kb.relations)
    inventory = datagen.type_inventory(kb)
    relation_groups = []
    type_groups = []
    for q in questions:
        relation_groups.append(
            datagen.gen_relation_pairs(q, q.gold.relation, domains)
        )
        candidates = retrieve_question_candidates(index, q.tokens)
        group = datagen.gen_type_pairs(q, kb, candidates, inventory)
        if group is not None:
            type_groups.append(group)
    relation_pairs = datagen.write_matcher_pairs(
        os.path.join(args.out, "relation_pairs.tsv"), relation_groups
    )
    type_pairs = datagen.write_matcher_pairs(
        os.path.join(args.out, "type_pairs.tsv"), type_groups
    )
    print(f"{len(labeled)} tagged ({dropped} dropped), "
          f"{relation_pairs} relation pairs, "
          f"{type_pairs} type pairs -> {args.out}")
    return 0


def cmd_train_pipeline(args: argparse.Namespace,
                       config: Mapping[str, str]) -> int:
    cfg = train_config(args, config)
    tagged_path = os.path.join(args.data, "tagged.tsv")
    relation_path = os.path.join(args.data, "relation_pairs.tsv")
    type_path = os.path.join(args.data, "type_pairs.tsv")
    _require_files(tagged_path, relation_path)
    tagged = _read_file(tagged_path, datagen.read_labeled_questions)
    relation_pairs = _read_file(relation_path, datagen.read_matcher_pairs)
    type_pairs = (_read_file(type_path, datagen.read_matcher_pairs)
                  if os.path.isfile(type_path) else [])

    def train(path, fit, data, **kwargs):
        """``fit(data, cfg, **kwargs)``; an empty training set is an error
        naming ``path``."""
        try:
            return fit(data, cfg, **kwargs)
        except EmptyTrainingSet as exc:
            raise EmptyTrainingSet(f"{path}: {exc}") from None
        except MemoryError as exc:
            raise _too_large(exc) from None

    # every stage trains before any is saved, so a run that fails leaves
    # an earlier run's stages as they were
    tagger, tagger_curve = train(tagged_path, pipeline.train_tagger, tagged)
    relation, rel_curve = train(relation_path, pipeline.train_matcher,
                                relation_pairs, name="relation")
    typem, type_curve = (train(type_path, pipeline.train_matcher, type_pairs,
                               name="type")
                         if type_pairs else (None, None))
    save_model(tagger, os.path.join(args.out, "tagger.nn"))
    save_model(relation, os.path.join(args.out, "relation.nn"))
    lines = [
        f"tagger: {len(tagged)} examples, final loss {tagger_curve[-1]:.4f}",
        f"relation: {len(relation_pairs)} pairs, "
        f"final loss {rel_curve[-1]:.4f}",
    ]
    type_out = os.path.join(args.out, "type.nn")
    if typem is not None:
        save_model(typem, type_out)
        lines.append(f"type: {len(type_pairs)} pairs, "
                     f"final loss {type_curve[-1]:.4f}")
    else:
        logger.info("no type pairs; skipping the type matcher")
        # an earlier run's type matcher would answer beside this run's
        # stages
        for path in (type_out, meta_path(type_out)):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    print("\n".join(lines))
    return 0


def cmd_train_e2e(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    cfg = train_config(args, config)
    kb = _load_kb(args.kb)
    questions = _parse_file(args.questions, datagen.parse_questions_tsv)
    index = build_index(kb)
    pools = datagen.build_negative_pools(questions, kb, index, cfg.seed)
    try:
        model, curve = e2e.train_e2e(questions, kb, pools,
                                     e2e.VARIANTS[args.variant], cfg, index)
    except EmptyTrainingSet as exc:
        raise EmptyTrainingSet(f"{args.questions}: {exc}") from None
    except MemoryError as exc:
        raise _too_large(exc) from None
    save_model(model, args.out)
    print(f"{args.variant}: {len(questions)} questions, "
          f"final loss {curve[-1]:.4f} -> {args.out}")
    return 0


def _load_model(cls, path: str):
    """The snapshot at ``path`` (the file and its sidecar) as a ``cls``;
    a missing or damaged snapshot is a DataError."""
    _require_files(path, meta_path(path))
    try:
        return load_model(cls, path)
    except (ValueError, ParseError, ShapeMismatch) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _load_matcher(model_dir: str, name: str) -> pipeline.MatcherModel:
    """The matcher ``name`` ("relation" or "type") of a train-pipeline
    directory; a snapshot whose sidecar names the other matcher is a
    DataError."""
    path = os.path.join(model_dir, f"{name}.nn")
    model = _load_model(pipeline.MatcherModel, path)
    if model.name != name:
        raise DataError(f"{path}: holds the {model.name!r} matcher, "
                        f"expected the {name!r} matcher")
    return model


def _load_pipeline_models(model_dir: str,
                          strategy: str) -> pipeline.PipelineModels:
    """The stages in a train-pipeline directory that ``strategy`` uses:
    ``type.nn`` is read only when it consults the type."""
    type_path = os.path.join(model_dir, "type.nn")
    uses_type = "type" in pipeline.context_fields(strategy)
    if uses_type and not os.path.isfile(type_path):
        raise DataError(f"{type_path}: no such file; {strategy} needs the "
                        f"type matcher")
    return pipeline.PipelineModels(
        tagger=_load_model(pipeline.TaggerModel,
                           os.path.join(model_dir, "tagger.nn")),
        relation_matcher=_load_matcher(model_dir, "relation"),
        type_matcher=_load_matcher(model_dir, "type") if uses_type else None,
    )


def _check_stack(args: argparse.Namespace) -> str:
    """The one stack ``answer`` or ``eval`` runs: "oracle", "pipeline" or
    "model".  Every stack flag given must belong to it; checked before any
    file is read."""
    stacks = {"oracle": getattr(args, "oracle", False),
              "pipeline": args.pipeline is not None,
              "model": args.model is not None}
    chosen = [stack for stack, given in stacks.items() if given]
    if len(chosen) != 1:
        flags = [f"--{stack}" for stack in stacks if hasattr(args, stack)]
        raise UsageError(f"pass exactly one of {', '.join(flags[:-1])} or "
                         f"{flags[-1]}")
    stack = chosen[0]
    if stack == "model":
        if args.strategy is not None:
            raise UsageError("--strategy does not apply to --model")
        if args.variant is None:
            raise UsageError("--model needs --variant")
        return stack
    if args.out_degree_sort:
        raise UsageError("--out-degree-sort applies only to --model")
    if args.variant is not None:
        raise UsageError("--variant applies only to --model")
    if args.strategy is None:
        raise UsageError(f"--{stack} needs --strategy")
    return stack


def _build_strategy(
    args: argparse.Namespace, stack: str, kb: KnowledgeBase,
    index: AliasIndex, dataset: Sequence[datagen.QuestionInstance] = (),
) -> tuple[Union[pipeline.PipelineStrategy, e2e.E2EStrategy], str]:
    """The strategy for a checked ``stack`` and the name its report goes
    by; the oracle's stages are keyed by ``dataset``.  A snapshot answers
    as the variant it was trained as, which ``--variant`` must name."""
    if stack == "model":
        model = _load_model(e2e.E2EModel, args.model)
        try:
            name = e2e.variant_name(model.variant)
        except ValueError as exc:
            raise DataError(f"{args.model}: {exc}") from exc
        if args.variant != name:
            raise UsageError(f"--variant {args.variant} does not match "
                             f"{args.model}, which was trained as {name}")
        return (e2e.E2EStrategy(model, kb, index, args.out_degree_sort),
                name + ("+od" if args.out_degree_sort else ""))
    if stack == "oracle":
        models = evalharness.oracle_models(dataset, kb)
        name = f"{args.strategy}(oracle)"
    else:
        models = _load_pipeline_models(args.pipeline, args.strategy)
        name = args.strategy
    return pipeline.PipelineStrategy(args.strategy, models, kb, index), name


def cmd_answer(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    stack = _check_stack(args)
    kb = _load_kb(args.kb)
    index = build_index(kb)
    _require_files(args.questions)
    strategy, _ = _build_strategy(args, stack, kb, index)
    interactive = args.questions is None
    with (contextlib.nullcontext(sys.stdin) if interactive
          else open(args.questions, encoding="utf-8")) as stream:
        try:
            # a surrogate-escaped stdin (the C locale) decodes strictly here
            for question in (line.encode("utf-8", "surrogateescape")
                             .decode("utf-8").strip() for line in stream):
                if question:
                    print(evalharness.answer_record(strategy, question),
                          flush=interactive)
        except UnicodeDecodeError as exc:
            raise DataError(f"{args.questions or 'stdin'}: not UTF-8 text "
                            f"({exc.reason})") from exc
    return 0


def cmd_eval(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    stack = _check_stack(args)
    kb = _load_kb(args.kb)
    dataset = _parse_file(args.questions, datagen.parse_questions_tsv)
    index = build_index(kb)
    strategy, name = _build_strategy(args, stack, kb, index, dataset)
    report = evalharness.evaluate(strategy, dataset, kb)
    json_path, txt_path = evalharness.report_write({name: report}, args.out)
    print(f"{name}: accuracy {report.accuracy:.4f} over {report.n} "
          f"questions -> {json_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file merged under flags")
    p.add_argument("--seed", type=int)


def _ingest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--facts", required=True)
    p.add_argument("--aliases")
    p.add_argument("--types")
    p.add_argument("--out", required=True)


def _synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True)
    p.add_argument("--entities", type=int, default=60)
    p.add_argument("--relations", type=int, default=6)
    p.add_argument("--collision-rate", type=float, default=0.3,
                   dest="collision_rate")
    p.add_argument("--outdegree-gap", action=argparse.BooleanOptionalAction,
                   default=True, dest="outdegree_gap")
    p.add_argument("--type-distinct", action=argparse.BooleanOptionalAction,
                   default=False, dest="type_distinct")
    p.add_argument("--test-fraction", type=float, default=0.2,
                   dest="test_fraction")


def _gen_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kb", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--out", required=True)


def _train_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="directory from gen-data")
    p.add_argument("--out", required=True)
    _add_train_flags(p)


def _train_e2e_flags(p: argparse.ArgumentParser) -> None:
    _gen_data_flags(p)
    p.add_argument("--variant", required=True, choices=sorted(e2e.VARIANTS))
    _add_train_flags(p)


def _stack_flags(p: argparse.ArgumentParser) -> None:
    """The flags :func:`_check_stack` reads, shared by answer and eval."""
    p.add_argument("--pipeline", help="model directory from train-pipeline")
    p.add_argument("--strategy", choices=pipeline.STRATEGIES)
    p.add_argument("--model", help="snapshot from train-e2e")
    p.add_argument("--variant", choices=sorted(e2e.VARIANTS))
    p.add_argument("--out-degree-sort", action="store_true",
                   dest="out_degree_sort")


def _answer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kb", required=True)
    _stack_flags(p)
    p.add_argument("--questions", help="file of questions; default stdin")


def _eval_flags(p: argparse.ArgumentParser) -> None:
    _gen_data_flags(p)
    _stack_flags(p)
    p.add_argument("--oracle", action="store_true",
                   help="use gold-keyed oracle stages")


# every subcommand, in the order help lists them: (name, help, flag adder,
# handler); each also takes the common flags
_COMMANDS = (
    ("ingest", "build a knowledge base snapshot", _ingest_flags, cmd_ingest),
    ("synth", "generate a synthetic benchmark", _synth_flags, cmd_synth),
    ("gen-data", "derive training files from questions", _gen_data_flags,
     cmd_gen_data),
    ("train-pipeline", "train tagger and matchers from generated data",
     _train_pipeline_flags, cmd_train_pipeline),
    ("train-e2e", "train an end-to-end ranking model", _train_e2e_flags,
     cmd_train_e2e),
    ("answer", "answer questions, one JSON line per question", _answer_flags,
     cmd_answer),
    ("eval", "score a strategy and write reports", _eval_flags, cmd_eval),
)
_COMMAND_NAMES = tuple(name for name, *_ in _COMMANDS)


def build_parser(command: Optional[str] = None) -> _Parser:
    """The ``qakb`` parser.  Given a subcommand's name, only that
    subcommand is registered, and the usage line still lists every name,
    so it parses that subcommand's argv exactly as the full parser does;
    given None or an unknown name, all of them are."""
    parser = _Parser(prog="qakb",
                     description="Factoid question answering over a "
                                 "knowledge base.")
    parser.add_argument("--verbose", action="store_true",
                        help="log debug detail to stderr")
    only = command in _COMMAND_NAMES
    # the metavar is argparse's default for the full list of choices; set
    # on the full parser it would also rename the action in its errors
    metavar = "{" + ",".join(_COMMAND_NAMES) + "}" if only else None
    sub = parser.add_subparsers(dest="command", parser_class=_Parser,
                                metavar=metavar)
    for name, help_text, add_flags, handler in _COMMANDS:
        if only and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        add_flags(p)
        _common_flags(p)
        p.set_defaults(func=handler)
    return parser


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, then restore its
    state, on every way out of the block.

    :func:`main` runs each command inside one pause.  A command makes tens
    of thousands of objects (the KB, its index, a model, the pairs it
    writes) and frees them all by reference counting: no ``qakb`` object
    sits in a reference cycle, and the cyclic garbage a command leaves is
    the same whatever its input's size.  So the collector's passes over
    those objects would find nothing to free.
    ``tests/test_cli.py::TestCollectorPause`` guards both facts."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the exit code as documented in the module.  The
    command runs with the collector paused (:func:`collector_paused`), and
    its objects are freed before the collector resumes."""
    with collector_paused():
        return _run(argv)


def _command_name(argv: Sequence[str]) -> Optional[str]:
    """The subcommand argparse will pick from ``argv``, or None when that
    is not sure.  It is the first argument that does not start with ``-``,
    because no top-level option takes a value (there are only ``-h`` and
    ``--verbose``).  Only ``--verbose`` may precede it: after ``-h`` the
    top-level help lists every subcommand, and argparse takes ``-1`` or
    ``--`` as the subcommand's name, then lists every choice."""
    for arg in argv:
        if not arg.startswith("-"):
            return arg
        if arg != "--verbose":
            return None
    return None


def _run(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser(_command_name(sys.argv[1:] if argv is None
                                        else argv))
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        if args.command is None:
            parser.print_usage(sys.stderr)
            raise UsageError("a subcommand is required")
        config = (read_config_file(args.config)
                  if getattr(args, "config", None) else {})
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ParseError, MalformedId, EmptyTrainingSet,
            EmptyEvalSet, LabelFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (``qakb answer ... | head -1``): end as
        # a writer killed by SIGPIPE would, and point stdout at /dev/null
        # so that the interpreter's flush at exit prints nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:  # a path that cannot be read or written
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename
              else f"error: {exc}", file=sys.stderr)
        return 2
    except QAKBError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
