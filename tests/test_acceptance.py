"""Acceptance gate: one test per release criterion.

Run with -v to get one pass/fail line per criterion; each test also prints
an explicit [PASS] marker when it reaches the end.
"""

from __future__ import annotations

import os
import random
import socket
import string
import time

import pytest

import conftest
from dravlid.backends import LiveBackend, ReplayBackend
from dravlid.cache import ResponseCache
from dravlid.corpus import parse_corpus, parse_corpus_file, serialize_corpus
from dravlid.errors import CorpusParseError
from dravlid.fixtures import (
    golden_report_path,
    oracle_metrics,
    replay_fixture_path,
    smoke_corpus_path,
)
from dravlid.metrics import count_pairs, evaluate, report_to_json
from dravlid.prompting import (
    PLACEHOLDER,
    ExperimentConfig,
    render_prompt,
    template_for,
)
from dravlid.runner import evaluate_run, run_experiment
from dravlid.taxonomy import (
    Category,
    TaskLanguage,
    code_for,
    normalize_response,
    valid_codes,
)
from dravlid.transport import ChatRequest, ChatTransport, RetryPolicy
from stub_server import StubChatServer

KN = TaskLanguage.KANNADA
TM = TaskLanguage.TAMIL
TASKS = (KN, TM)
A, B = Category.ENGLISH, Category.DRAVIDIAN

AGGREGATE_FIELDS = (
    "macro_f1",
    "macro_precision",
    "macro_recall",
    "weighted_f1",
    "weighted_precision",
    "weighted_recall",
    "accuracy",
)

GOLDEN_PROMPTS = {
    (KN, "mane"): (
        "Please identify which category the word is in English, Kannada, Mixed, "
        "Name, Location, Symbol and Other. Please state en, kn, mixed, name, "
        "location, sym and other. The word is mane."
    ),
    (TM, "nalla"): (
        "Please identify which category the word is in English, Tamil, Mixed, "
        "Name, Location, Symbol and Other. Please state en, tm, tmen, name, "
        "Location, sym and Other. The word is nalla."
    ),
}


def _passed(number: int, title: str) -> None:
    print(f"[PASS] criterion {number}: {title}")


def random_instances(seed: int, count: int):
    """Yield (gold, pred) pairs: n <= 200 over up to 7 classes."""
    rng = random.Random(seed)
    categories = list(Category)
    for _ in range(count):
        classes = rng.sample(categories, rng.randint(1, 7))
        n = rng.randint(1, 200)
        gold = [rng.choice(classes) for _ in range(n)]
        pred = [rng.choice(classes) for _ in range(n)]
        yield gold, pred


def test_criterion_1_metric_correctness_against_oracle():
    started = time.monotonic()

    report = evaluate(count_pairs([A, A, B], [A, B, B]))
    assert abs(report.macro_f1 - 2 / 3) < 1e-12
    assert abs(report.weighted_f1 - 2 / 3) < 1e-12
    assert abs(report.accuracy - 2 / 3) < 1e-12

    for index, (gold, pred) in enumerate(random_instances(seed=101, count=1000)):
        engine = evaluate(count_pairs(gold, pred))
        oracle = oracle_metrics(gold, pred)
        for field in AGGREGATE_FIELDS:
            assert abs(getattr(engine, field) - getattr(oracle, field)) < 1e-12, (
                index,
                field,
            )
        if index % 10 == 0:
            fixed = evaluate(count_pairs(gold, pred), macro_convention="fixed")
            fixed_oracle = oracle_metrics(
                gold, pred, include_zero_support=True, fixed_label_set=True
            )
            for field in AGGREGATE_FIELDS:
                assert (
                    abs(getattr(fixed, field) - getattr(fixed_oracle, field)) < 1e-12
                ), (index, field)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passed(1, "metric engine matches the brute-force oracle within 1e-12")


def test_criterion_2_weighted_recall_is_accuracy_bitwise():
    for gold, pred in random_instances(seed=202, count=1000):
        report = evaluate(count_pairs(gold, pred))
        assert report.weighted_recall == report.accuracy
    _passed(2, "weighted recall equals accuracy bitwise on 1000 random instances")


def test_criterion_3_replay_pipeline_reproduces_golden_reports():
    for task in TASKS:
        ds = parse_corpus_file(smoke_corpus_path(task), task)
        frozen = golden_report_path(task).read_text(encoding="utf-8")
        produced = []
        for _ in range(2):
            backend = ReplayBackend.from_jsonl(replay_fixture_path(task))
            config = ExperimentConfig(task=task, temperature=0.7)
            result = run_experiment(ds, config, backend)
            report = evaluate_run(ds, result.predictions, run_label=config.run_label)
            produced.append(report_to_json(report))
        assert produced[0] == frozen, task
        assert produced[1] == frozen, task
    _passed(3, "recorded-response pipeline reproduces both golden reports byte-for-byte")


def test_criterion_4_prompt_fidelity():
    for (task, word), golden in GOLDEN_PROMPTS.items():
        assert render_prompt(word, task) == golden

    rng = random.Random(404)
    alphabet = string.ascii_letters + string.digits
    for task in TASKS:
        template = template_for(task)
        for _ in range(200):
            word = "".join(rng.choices(alphabet, k=rng.randint(1, 15)))
            assert render_prompt(word, task) == template.replace(PLACEHOLDER, word)
    _passed(4, "rendered prompts are byte-exact template substitutions")


def test_criterion_5_normalization_total_idempotent_and_code_complete():
    rng = random.Random(505)
    printable = string.printable

    samples = ["".join(rng.choices(printable, k=rng.randint(0, 40))) for _ in range(1500)]
    for task in TASKS:
        codes = valid_codes(task)
        samples.extend(
            "".join(rng.choices(printable, k=rng.randint(0, 4)))
            + rng.choice(codes)
            + "".join(rng.choices(printable, k=rng.randint(0, 4)))
            for _ in range(250)
        )

    for task in TASKS:
        for raw in samples:
            outcome = normalize_response(raw, task)  # must never raise
            if outcome.ok:
                again = normalize_response(outcome.matched_code, task)
                assert again.ok
                assert again.category is outcome.category
            else:
                assert outcome.failure_reason

    def mixed_case(text: str) -> str:
        return "".join(
            ch.upper() if i % 2 else ch.lower() for i, ch in enumerate(text)
        )

    for task in TASKS:
        for cat in Category:
            code = code_for(cat, task)
            for variant in (code.lower(), code.upper(), mixed_case(code)):
                outcome = normalize_response(variant, task)
                assert outcome.ok, (task, variant)
                assert outcome.category is cat, (task, variant)
    _passed(5, "normalization is total, idempotent, and covers 7 codes x 2 tasks")


def test_criterion_6_cache_discipline_and_backoff(tmp_path):
    words = [f"word{i:02d}" for i in range(50)]
    config = ExperimentConfig(task=KN, temperature=0.7)

    def reply_for(body: dict) -> str:
        word = body["messages"][0]["content"].rsplit("The word is ", 1)[1][:-1]
        return "en" if len(word) % 2 == 0 else "kn"

    cache_path = tmp_path / "cache.jsonl"
    with StubChatServer(reply_for) as server:
        def live_backend():
            transport = ChatTransport(base_url=server.base_url, api_key="k")
            return LiveBackend(cache=ResponseCache(cache_path), transport=transport)

        first, first_hits = live_backend().classify_words(words, config)
        assert server.request_count == 50
        assert not any(first_hits)

        second, second_hits = live_backend().classify_words(words, config)
        assert server.request_count == 50
        assert all(second_hits)
        assert first == second

    delays: list[float] = []
    with StubChatServer(lambda body: "kn") as server:
        server.enqueue(429, {"error": "slow down"})
        server.enqueue(429, {"error": "slow down"})
        transport = ChatTransport(
            base_url=server.base_url,
            api_key="k",
            retry=RetryPolicy(),
            sleep=delays.append,
        )
        content = transport.complete(
            ChatRequest(
                model_id="gpt-3.5-turbo",
                temperature=0.7,
                max_output_tokens=16,
                user_message=render_prompt("mane", KN),
            )
        )
        assert content == "kn"
        assert transport.requests_sent == 3
        assert server.request_count == 3
    assert delays == [1.0, 2.0]
    _passed(6, "cache turns 50 live calls into 0 on rerun; 429-429-200 lands on attempt 3")


SURFACE_ALPHABET = string.ascii_letters + string.digits + "%*=;@!?-_/"


def random_corpus_text(rng: random.Random) -> tuple[TaskLanguage, str]:
    task = rng.choice(TASKS)
    codes = valid_codes(task)
    lines = []
    for _ in range(rng.randint(1, 40)):
        kind = rng.random()
        if kind < 0.1:
            lines.append("# " + "".join(rng.choices(SURFACE_ALPHABET, k=6)))
        elif kind < 0.25:
            lines.append(rng.choice(["", " ", "\t"]))
        else:
            word = "".join(
                rng.choices(SURFACE_ALPHABET, k=rng.randint(1, 12))
            )
            if rng.random() < 0.7:
                lines.append(f"{word}\t{rng.choice(codes)}")
            else:
                lines.append(word)
    return task, "\n".join(lines) + rng.choice(["\n", ""])


def test_criterion_7_corpus_round_trip():
    for task in TASKS:
        ds = parse_corpus_file(smoke_corpus_path(task), task)
        again = parse_corpus(serialize_corpus(ds), task)
        assert conftest.token_rows(again) == conftest.token_rows(ds)

    rng = random.Random(707)
    for _ in range(200):
        task, text = random_corpus_text(rng)
        ds = parse_corpus(text, task)
        again = parse_corpus(serialize_corpus(ds), task)
        assert conftest.token_rows(again) == conftest.token_rows(ds)

    with pytest.raises(CorpusParseError, match="line 5") as excinfo:
        parse_corpus("# header\nhello\ten\n\nworld\nbad\ten\tx\n", KN)
    assert excinfo.value.line_number == 5
    _passed(7, "parse/serialize round-trips; 3-field line rejected with line number")


def test_criterion_8_suite_is_offline_and_time_budgeted():
    assert "LI_API_BASE" not in os.environ
    assert "LI_API_KEY" not in os.environ

    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        with pytest.raises(RuntimeError, match="non-local host"):
            probe.connect(("198.51.100.1", 443))
    finally:
        probe.close()

    # The < 60 s wall-clock budget is enforced at session end by conftest.
    assert conftest.SUITE_BUDGET_SECONDS == 60.0
    assert hasattr(conftest, "pytest_sessionfinish")
    _passed(8, "suite runs with no credentials, no network, under a 60 s budget")
