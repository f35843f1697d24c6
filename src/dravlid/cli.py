"""Command-line entry point.

Subcommands: `stats` (corpus counts), `classify` (run a backend over a
corpus), `evaluate` (score predictions against gold), `sweep` (one classify
run per temperature plus a comparison table), and `report` (re-render saved
report JSON as one markdown table).

Exit codes: 0 success, 1 usage error, 2 data error, 3 transport error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from dravlid.backends import (
    DEFAULT_MAX_WORKERS,
    BaselineBackend,
    LiveBackend,
    ReplayBackend,
)
from dravlid.baseline import lexicons_from_dir
from dravlid.cache import ResponseCache
from dravlid.classifiers import FAILURE_POLICIES
from dravlid.corpus import compute_stats, detect_task, parse_corpus
from dravlid.errors import DravlidError, ResponseFormatError, TransportError
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
    predictions_to_jsonl,
    read_predictions_jsonl,
    run_experiment,
    run_sweep,
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


class _UsageError(Exception):
    """Bad flag combination or missing configuration; maps to exit code 1."""


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


def _read_corpus_arg(path: str, task_flag: str | None):
    text = Path(path).read_text(encoding="utf-8")
    task = parse_task(task_flag) if task_flag else detect_task(text)
    return parse_corpus(text, task, source_path=path), task


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


def _build_backend(args: argparse.Namespace):
    if args.backend == "baseline":
        lexicons = lexicons_from_dir(args.lexicon_dir) if args.lexicon_dir else None
        return BaselineBackend(lexicons=lexicons)
    if args.backend == "replay":
        if not args.cache:
            raise _UsageError(
                "the replay backend needs --cache pointing at a recorded-response file"
            )
        return ReplayBackend.from_jsonl(args.cache)

    try:
        transport = ChatTransport(
            base_url=args.base_url,
            api_key=args.api_key,
            retry=RetryPolicy(
                max_attempts=args.max_attempts, base_delay=args.retry_base_delay
            ),
            rate_limiter=TokenBucket(args.rate_limit) if args.rate_limit > 0 else None,
            timeout=args.timeout,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    cache = ResponseCache(args.cache, cache_bust=args.cache_bust)
    try:
        return LiveBackend(cache=cache, transport=transport, max_workers=args.max_workers)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _emit_run(result, out: str | None) -> None:
    if out:
        write_predictions_jsonl(result.word_predictions, out)
        manifest_path = Path(out).with_name(Path(out).name + ".manifest.json")
        manifest_path.write_text(result.manifest.to_json(), encoding="utf-8")
        m = result.manifest
        print(
            f"wrote {m.token_count} predictions to {out} "
            f"({m.cache_hits} cache hits, {m.unparseable_count} unparseable)"
        )
    else:
        sys.stdout.write(predictions_to_jsonl(result.word_predictions))


def cmd_stats(args: argparse.Namespace) -> int:
    ds, task = _read_corpus_arg(args.corpus, args.task)
    stats = compute_stats(ds)
    if args.format == "json":
        payload = {
            "corpus": args.corpus,
            "task": task.value,
            "total": stats.total,
            "unlabeled": stats.unlabeled,
            "per_category": {
                cat.value: stats.per_category[cat] for cat in Category
            },
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"corpus: {args.corpus}")
        print(f"task: {task.value}")
        print(f"tokens: {stats.total}")
        for cat in Category:
            print(f"  {cat.value:<10} {stats.per_category[cat]}")
        print(f"unlabeled: {stats.unlabeled}")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    ds, task = _read_corpus_arg(args.corpus, args.task)
    config = ExperimentConfig(
        task=task,
        model_id=args.model,
        temperature=args.temperature,
        max_output_tokens=args.max_output_tokens,
        run_label=args.run_label,
    )
    backend = _build_backend(args)
    result = run_experiment(ds, config, backend, failure_policy=args.policy)
    _emit_run(result, args.out)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    ds, task = _read_corpus_arg(args.gold, args.task)
    entries = read_predictions_jsonl(args.pred, task)
    if len(entries) != len(ds):
        raise ValueError(
            f"prediction count {len(entries)} does not match corpus size {len(ds)}"
        )
    for position, (entry, token) in enumerate(zip(entries, ds.tokens)):
        if entry["word"] != token.surface:
            raise ValueError(
                f"prediction {position} is for {entry['word']!r} but the corpus "
                f"has {token.surface!r} there"
            )
    run_label = args.run_label or Path(args.pred).stem
    report = evaluate_run(
        ds,
        [entry["category"] for entry in entries],
        run_label=run_label,
        macro_convention=args.macro,
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
    ds, task = _read_corpus_arg(args.corpus, args.task)
    backend = _build_backend(args)
    configs = sweep_configs(task, args.model, temperatures=args.temperatures)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    has_gold = all(token.gold is not None for token in ds.tokens)
    reports = []
    for result in run_sweep(ds, configs, backend, failure_policy=args.policy):
        label = result.manifest.config.run_label
        if out_dir is not None:
            write_predictions_jsonl(
                result.word_predictions, out_dir / f"{label}.predictions.jsonl"
            )
            (out_dir / f"{label}.manifest.json").write_text(
                result.manifest.to_json(), encoding="utf-8"
            )
        if has_gold:
            report = evaluate_run(
                ds, result.predictions, run_label=label, macro_convention=args.macro
            )
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
        data = json.loads(path.read_text(encoding="utf-8"))
        missing = [key for _, key in REPORT_ROWS if key not in data]
        if missing:
            raise ValueError(f"{path} is missing metric keys: {', '.join(missing)}")
        dicts.append(data)
    sys.stdout.write(report_dicts_to_markdown(dicts))
    return EXIT_OK


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


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
