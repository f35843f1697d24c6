"""Command-line entry point.

Subcommands: `stats` (corpus counts), `classify` (run a backend over a
corpus), `evaluate` (score predictions against gold), `sweep` (one classify
run per temperature plus a comparison table), and `report` (re-render saved
report JSON as one markdown table).

Exit codes: 0 success, 1 usage error, 2 data error, 3 transport error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

from dravlid.backends import (
    DEFAULT_MAX_WORKERS,
    BaselineBackend,
    LiveBackend,
    ReplayBackend,
    check_max_workers,
)
from dravlid.baseline import lexicons_from_dir
from dravlid.cache import ResponseCache
from dravlid.classifiers import FAILURE_POLICIES
from dravlid.corpus import (
    Dataset,
    compute_stats,
    detect_task,
    naming_bad_bytes,
    parse_corpus,
    read_text,
)
from dravlid.errors import CorpusParseError, DravlidError, ResponseFormatError, TransportError
from dravlid.metrics import (
    REPORT_ROWS,
    report_dicts_to_markdown,
    report_to_json,
    report_to_markdown,
    reports_to_markdown,
)
from dravlid.prompting import (
    DEFAULT_MAX_OUTPUT_TOKENS,
    DEFAULT_MODEL_ID,
    SWEEP_TEMPERATURES,
    ExperimentConfig,
    sweep_configs,
)
from dravlid.runner import (
    evaluate_run,
    read_predictions_jsonl,
    run_experiment,
    write_predictions,
    write_predictions_jsonl,
)
from dravlid.taxonomy import Category, parse_task
from dravlid.transport import (
    DEFAULT_RATE_PER_MINUTE,
    DEFAULT_TIMEOUT,
    ChatTransport,
    RetryPolicy,
    TokenBucket,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRANSPORT = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


class _UsageError(Exception):
    """Bad flag value or combination, or missing configuration; maps to exit code 1."""


@contextmanager
def _flag_values():
    """Treat a ValueError from building objects out of flag values as a
    usage error. Data loading stays outside, so bad files remain data errors."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


@contextmanager
def _reading(path):
    """Name the file when its bytes are not UTF-8 or not JSON (nested too
    deep included), or when one of its corpus or predictions lines is bad."""
    try:
        yield
    except (ValueError, RecursionError, CorpusParseError) as exc:
        raise ValueError(f"{path}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; honor our contract.
    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _temperature_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("at least one temperature is required")
    return values


def _read_corpus_arg(path: str, task_flag: str | None) -> Dataset:
    with _reading(path), naming_bad_bytes(path):
        text = read_text(path)
        task = parse_task(task_flag) if task_flag else detect_task(text)
        return parse_corpus(text, task, source_path=path)


def _request_model(model: str) -> str:
    """--model, if a request can carry it: no lone surrogate from a non-UTF-8 argv byte."""
    try:
        model.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"--model {model!r} is not valid UTF-8") from None
    return model


def _add_task_flag(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument(
        "--task",
        choices=["kn", "tm", "kannada", "tamil"],
        required=required,
        help="which language pair the corpus belongs to"
        + ("" if required else " (default: detect from label codes)"),
    )


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=["live", "replay", "baseline"], required=True
    )
    parser.add_argument("--model", default=DEFAULT_MODEL_ID)
    parser.add_argument(
        "--max-output-tokens", type=int, default=DEFAULT_MAX_OUTPUT_TOKENS
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        help="live: JSONL response cache to reuse and extend; "
        "replay: recorded-response file to answer from",
    )
    parser.add_argument(
        "--cache-bust",
        action="store_true",
        help="discard any existing cache contents before the run (live only)",
    )
    parser.add_argument(
        "--policy",
        choices=list(FAILURE_POLICIES),
        default="map_to_other",
        help="what to do with unparseable replies",
    )
    parser.add_argument("--base-url", help="chat endpoint; falls back to LI_API_BASE")
    parser.add_argument("--api-key", help="bearer token; falls back to LI_API_KEY")
    parser.add_argument(
        "--rate-limit",
        type=float,
        default=DEFAULT_RATE_PER_MINUTE,
        metavar="PER_MINUTE",
        help="live request budget per minute; 0 disables limiting",
    )
    parser.add_argument("--max-workers", type=int, default=DEFAULT_MAX_WORKERS)
    parser.add_argument("--max-attempts", type=int, default=RetryPolicy.max_attempts)
    parser.add_argument(
        "--retry-base-delay", type=float, default=RetryPolicy.base_delay
    )
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    parser.add_argument(
        "--lexicon-dir",
        metavar="DIR",
        help="baseline only: directory of english_words.txt, stems.txt, "
        "names.txt, locations.txt, suffixes.txt replacing the bundled lists",
    )


@contextmanager
def _session(args: argparse.Namespace):
    """Check the backend flags, open the live transport, read the corpus and
    load the backend's files, in that order; yield (ds, backend).

    A bad flag value is a usage error before any corpus, cache, replay or
    lexicon file is read. The transport's connections close on the way out.
    """
    if args.backend == "replay" and not args.cache:
        raise _UsageError(
            "the replay backend needs --cache pointing at a recorded-response file"
        )
    transport = None
    if args.backend == "live":
        with _flag_values():
            check_max_workers(args.max_workers)
            transport = ChatTransport(
                base_url=args.base_url,
                api_key=args.api_key,
                retry=RetryPolicy(
                    max_attempts=args.max_attempts, base_delay=args.retry_base_delay
                ),
                rate_limiter=TokenBucket(args.rate_limit) if args.rate_limit != 0 else None,
                timeout=args.timeout,
            )
    with transport or nullcontext():
        ds = _read_corpus_arg(args.corpus, args.task)
        if args.backend == "baseline":
            lexicons = lexicons_from_dir(args.lexicon_dir) if args.lexicon_dir else None
            backend = BaselineBackend(lexicons=lexicons)
        elif args.backend == "replay":
            backend = ReplayBackend.from_jsonl(args.cache)
        else:
            cache = ResponseCache(args.cache, cache_bust=args.cache_bust)
            backend = LiveBackend(cache=cache, transport=transport, max_workers=args.max_workers)
        yield ds, backend


def _write_run(result, predictions_path, manifest_path) -> None:
    write_predictions_jsonl(result, predictions_path)
    Path(manifest_path).write_text(result.manifest.to_json(), encoding="utf-8")


def cmd_stats(args: argparse.Namespace) -> int:
    ds = _read_corpus_arg(args.corpus, args.task)
    stats = compute_stats(ds)
    if args.format == "json":
        payload = {
            "corpus": args.corpus,
            "task": ds.task.value,
            "total": stats.total,
            "unlabeled": stats.unlabeled,
            "per_category": {
                cat.value: stats.per_category[cat] for cat in Category
            },
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"corpus: {args.corpus}")
        print(f"task: {ds.task.value}")
        print(f"tokens: {stats.total}")
        for cat in Category:
            print(f"  {cat.value:<10} {stats.per_category[cat]}")
        print(f"unlabeled: {stats.unlabeled}")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    with _flag_values():
        config = ExperimentConfig(
            task=parse_task(args.task),
            model_id=_request_model(args.model),
            temperature=args.temperature,
            max_output_tokens=args.max_output_tokens,
            run_label=args.run_label,
        )
    with _session(args) as (ds, backend):
        result = run_experiment(ds, config, backend, failure_policy=args.policy)
        if args.out:
            _write_run(result, args.out, f"{args.out}.manifest.json")
            m = result.manifest
            print(
                f"wrote {m.token_count} predictions to {args.out} "
                f"({m.cache_hits} cache hits, {m.unparseable_count} unparseable)"
            )
        else:
            sys.stdout.flush()  # the lines go out as UTF-8 bytes, whatever the locale
            write_predictions(result.distinct, result.index, sys.stdout.buffer)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    ds = _read_corpus_arg(args.gold, args.task)
    with _reading(args.pred):
        words, categories = read_predictions_jsonl(args.pred, ds.task)
    surfaces = ds.surfaces()
    if words != surfaces:
        if len(words) != len(surfaces):
            raise ValueError(
                f"prediction count {len(words)} does not match corpus size {len(ds)}"
            )
        position = next(i for i, (w, s) in enumerate(zip(words, surfaces)) if w != s)
        raise ValueError(
            f"prediction {position} is for {words[position]!r} but the corpus "
            f"has {surfaces[position]!r} there"
        )
    run_label = args.run_label or Path(args.pred).stem
    report = evaluate_run(
        ds, categories, run_label=run_label, macro_convention=args.macro
    )
    rendered = (
        report_to_json(report) if args.format == "json" else report_to_markdown(report)
    )
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    with _flag_values():
        configs = sweep_configs(parse_task(args.task), _request_model(args.model),
                                args.temperatures, args.max_output_tokens)
    with _session(args) as (ds, backend):
        out_dir = Path(args.out_dir) if args.out_dir else None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)

        has_gold = None not in ds.golds
        reports = []
        for config in configs:
            result = run_experiment(ds, config, backend, failure_policy=args.policy)
            label = config.run_label
            if out_dir is not None:
                _write_run(result, out_dir / f"{label}.predictions.jsonl",
                           out_dir / f"{label}.manifest.json")
            if has_gold:
                report = evaluate_run(ds, result, run_label=label, macro_convention=args.macro)
                if out_dir is not None:
                    (out_dir / f"{label}.report.json").write_text(
                        report_to_json(report), encoding="utf-8"
                    )
                reports.append(report)

    if reports:
        sys.stdout.write(reports_to_markdown(reports))
    else:
        print(f"ran {len(configs)} unlabeled sweep runs over {len(ds)} tokens")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    paths = sorted(run_dir.glob("*.report.json"))
    if not paths:
        raise ValueError(f"no *.report.json files under {run_dir}")
    dicts = []
    for path in paths:
        with _reading(path):
            data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"{path} does not hold a JSON object")
        if not isinstance(data.get("run_label"), (str, type(None))):
            raise ValueError(f"{path} has a run_label that is not a string")
        # type() rather than isinstance(), so that true and false are refused.
        bad = [key for _, key in REPORT_ROWS if type(data.get(key)) not in (int, float)]
        if bad:
            raise ValueError(f"{path} has no numeric value for: {', '.join(bad)}")
        infinite = [key for _, key in REPORT_ROWS if not _finite(data[key])]
        if infinite:
            raise ValueError(f"{path} has a non-finite value for: {', '.join(infinite)}")
        dicts.append(data)
    sys.stdout.write(report_dicts_to_markdown(dicts))
    return EXIT_OK


def _finite(value: int | float) -> bool:
    """Whether value is a finite float, or an int that converts to one."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dravlid",
        description="Word-level language identification for code-mixed "
        "Kannada-English and Tamil-English text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="per-category corpus counts")
    p_stats.add_argument("corpus")
    _add_task_flag(p_stats, required=False)
    p_stats.add_argument("--format", choices=["text", "json"], default="text")
    p_stats.set_defaults(func=cmd_stats)

    p_classify = sub.add_parser("classify", help="label every corpus token")
    p_classify.add_argument("corpus")
    _add_task_flag(p_classify, required=True)
    _add_backend_flags(p_classify)
    p_classify.add_argument("--temperature", type=float, default=0.7)
    p_classify.add_argument("--run-label", default="")
    p_classify.add_argument(
        "--out", metavar="PATH", help="predictions JSONL (default: stdout)"
    )
    p_classify.set_defaults(func=cmd_classify)

    p_eval = sub.add_parser("evaluate", help="score predictions against gold labels")
    p_eval.add_argument("--gold", required=True, metavar="CORPUS")
    p_eval.add_argument("--pred", required=True, metavar="JSONL")
    _add_task_flag(p_eval, required=False)
    p_eval.add_argument("--format", choices=["json", "markdown"], default="json")
    p_eval.add_argument(
        "--macro",
        choices=["support", "fixed"],
        default="support",
        help="macro-average over gold-supported classes or all seven",
    )
    p_eval.add_argument("--run-label", default="")
    p_eval.add_argument("--out", metavar="PATH", help="write instead of stdout")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser(
        "sweep", help="one classify run per temperature, plus a comparison table"
    )
    p_sweep.add_argument("corpus")
    _add_task_flag(p_sweep, required=True)
    _add_backend_flags(p_sweep)
    p_sweep.add_argument(
        "--temperatures",
        type=_temperature_list,
        default=SWEEP_TEMPERATURES,
        metavar="T1,T2,...",
    )
    p_sweep.add_argument(
        "--macro", choices=["support", "fixed"], default="support"
    )
    p_sweep.add_argument("--out-dir", metavar="DIR")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser(
        "report", help="render saved *.report.json files as one comparison table"
    )
    p_report.add_argument("run_dir")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"dravlid: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TransportError, ResponseFormatError) as exc:
        print(f"dravlid: transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (DravlidError, ValueError, OSError) as exc:
        print(f"dravlid: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        print("dravlid: interrupted", file=sys.stderr)  # the transport has closed
        return EXIT_INTERRUPTED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
