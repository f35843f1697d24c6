#!/usr/bin/env python3
"""Regenerate the bundled test fixtures from scratch.

Writes, per task: the 30-word smoke corpus, the recorded-response replay
JSONL covering every smoke word at temperatures 0.7/0.8/0.9, and the
golden report frozen from the 0.7 replay run. Everything here is fully
deterministic, so rerunning the script must reproduce the committed files
byte for byte (the script fails loudly if coverage degrades).

Raw-response styles are cycled per word so the fixture exercises every
normalization path: bare codes, cased/punctuated codes, code-first
sentences, category-name sentences, and a handful of unparseable replies.
A few words per temperature answer with a deliberately wrong code so the
golden reports have off-diagonal confusion cells, with more errors at
higher temperatures.
"""

from __future__ import annotations

import sys
from pathlib import Path

from dravlid.backends import ReplayBackend
from dravlid.cache import make_record
from dravlid.corpus import compute_stats, parse_corpus
from dravlid.fixtures import (
    golden_report_path,
    replay_fixture_path,
    smoke_corpus_path,
)
from dravlid.metrics import report_to_json
from dravlid.prompting import DEFAULT_MODEL_ID, ExperimentConfig, render_prompt
from dravlid.runner import evaluate_run, run_experiment
from dravlid.taxonomy import Category, TaskLanguage, code_for, valid_codes

FIXED_TIMESTAMP = "2026-01-01T00:00:00Z"
TEMPERATURES = (0.7, 0.8, 0.9)

# (surface, code) rows; None marks a sentence boundary.
SMOKE_KANNADA = [
    ("hello", "en"), ("John", "name"), ("mane", "kn"), ("bega", "kn"), ("%", "sym"),
    None,
    ("book", "en"), ("bookalli", "mixed"), ("Bangalore", "location"), (";", "sym"), ("123", "other"),
    None,
    ("run", "en"), ("schoolige", "mixed"), ("Mysore", "location"), ("Priya", "name"), ("oota", "kn"),
    None,
    ("good", "en"), ("busalli", "mixed"), ("India", "location"), ("*", "sym"), ("2024", "other"),
    None,
    ("movie", "en"), ("officeinda", "mixed"), ("Taj Mahal", "location"), ("Infosys", "name"), ("chennagide", "kn"),
    None,
    ("=", "sym"), ("xyzzy", "other"), ("Ramesh", "name"), ("hosa", "kn"), ("qwerty", "other"),
]

SMOKE_TAMIL = [
    ("hello", "en"), ("Kumar", "name"), ("vanakkam", "tm"), ("nalla", "tm"), ("%", "sym"),
    None,
    ("water", "en"), ("bookoda", "tmen"), ("Chennai", "location"), (";", "sym"), ("456", "other"),
    None,
    ("school", "en"), ("schoolkku", "tmen"), ("Madurai", "location"), ("Meena", "name"), ("saapadu", "tm"),
    None,
    ("phone", "en"), ("buslaam", "tmen"), ("India", "location"), ("*", "sym"), ("789", "other"),
    None,
    ("happy", "en"), ("officenga", "tmen"), ("Taj Mahal", "location"), ("John", "name"), ("veedu", "tm"),
    None,
    ("=", "sym"), ("asdfgh", "other"), ("Infosys", "name"), ("romba", "tm"), ("qqq", "other"),
]

# Word indices (corpus order) answering with the next code in the taxonomy
# instead of gold, and indices answering unparseably, per temperature.
WRONG_AT = {0.7: {3, 12, 22}, 0.8: {5, 12, 17, 25}, 0.9: {1, 7, 12, 19, 26}}
UNRECOGNIZED_AT = {0.7: {29}, 0.8: {8, 29}, 0.9: {14, 29}}
UNRECOGNIZED_TEXTS = ("???", "I cannot tell.")

HEADER = {
    TaskLanguage.KANNADA: "# Kannada-English code-mixed smoke corpus\n",
    TaskLanguage.TAMIL: "# Tamil-English code-mixed smoke corpus\n",
}


def corpus_text(rows, task: TaskLanguage) -> str:
    lines = [HEADER[task].rstrip("\n")]
    for row in rows:
        lines.append("" if row is None else f"{row[0]}\t{row[1]}")
    return "\n".join(lines) + "\n"


def category_display_name(category: Category, task: TaskLanguage) -> str:
    if category is Category.DRAVIDIAN:
        return "Kannada" if task is TaskLanguage.KANNADA else "Tamil"
    return category.value


def styled_response(code: str, display_name: str, style: int) -> str:
    if style == 0:
        return code
    if style == 1:
        return f" {code.upper()}. "
    if style == 2:
        return f"{code}, going by the spelling"
    if style == 3:
        return f"The word is in {display_name}."
    return f"Category: {code}"


def response_for(word_index: int, gold_code: str, task: TaskLanguage, temperature: float) -> str:
    if word_index in UNRECOGNIZED_AT[temperature]:
        return UNRECOGNIZED_TEXTS[word_index % len(UNRECOGNIZED_TEXTS)]
    codes = valid_codes(task)
    code = gold_code
    if word_index in WRONG_AT[temperature]:
        code = codes[(codes.index(gold_code) + 1) % len(codes)]
    category = next(c for c in Category if code_for(c, task) == code)
    temp_shift = 3 * TEMPERATURES.index(temperature)
    style = (word_index + temp_shift) % 5
    return styled_response(code, category_display_name(category, task), style)


def build_replay_lines(rows, task: TaskLanguage) -> tuple[list[str], dict]:
    words = [row[0] for row in rows if row is not None]
    codes = [row[1] for row in rows if row is not None]
    lines = []
    style_coverage: set[int] = set()
    dravidian_name_sentence = False
    for temperature in TEMPERATURES:
        for i, (word, gold_code) in enumerate(zip(words, codes)):
            raw = response_for(i, gold_code, task, temperature)
            if i not in UNRECOGNIZED_AT[temperature]:
                style_coverage.add((i + 3 * TEMPERATURES.index(temperature)) % 5)
                if raw.startswith("The word is in ") and gold_code in ("kn", "tm"):
                    dravidian_name_sentence = True
            prompt = render_prompt(word, task)
            record = make_record(
                DEFAULT_MODEL_ID, temperature, prompt, raw, created_at=FIXED_TIMESTAMP
            )
            lines.append(record.to_json_line())
    audit = {
        "styles": style_coverage,
        "dravidian_name_sentence": dravidian_name_sentence,
    }
    return lines, audit


def main() -> int:
    for task, rows in ((TaskLanguage.KANNADA, SMOKE_KANNADA), (TaskLanguage.TAMIL, SMOKE_TAMIL)):
        text = corpus_text(rows, task)
        ds = parse_corpus(text, task, source_path=str(smoke_corpus_path(task)))
        stats = compute_stats(ds)
        assert stats.total == 30, f"{task}: expected 30 tokens, got {stats.total}"
        assert stats.unlabeled == 0
        low = {c.value: n for c, n in stats.per_category.items() if n < 3}
        assert not low, f"{task}: categories below 3 gold instances: {low}"
        smoke_corpus_path(task).write_text(text, encoding="utf-8")

        lines, audit = build_replay_lines(rows, task)
        assert audit["styles"] == {0, 1, 2, 3, 4}, f"{task}: styles missing: {audit}"
        assert audit["dravidian_name_sentence"], f"{task}: no language-name reply"
        replay_fixture_path(task).write_text("\n".join(lines) + "\n", encoding="utf-8")

        backend = ReplayBackend.from_jsonl(replay_fixture_path(task))
        config = ExperimentConfig(task=task, model_id=DEFAULT_MODEL_ID, temperature=0.7)
        result = run_experiment(ds, config, backend, failure_policy="map_to_other")
        expected_unparseable = len(UNRECOGNIZED_AT[0.7])
        assert result.manifest.unparseable_count == expected_unparseable
        report = evaluate_run(ds, result.predictions, run_label=config.run_label)
        assert 0.0 < report.accuracy < 1.0, "golden run should be neither perfect nor hopeless"
        golden_report_path(task).write_text(report_to_json(report), encoding="utf-8")
        print(
            f"{task.value}: corpus 30 tokens, {len(lines)} replay records, "
            f"golden accuracy {report.accuracy:.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
