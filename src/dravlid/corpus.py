"""Tab-separated token/label corpus parsing, serialization, and statistics.

File format: one `<word>\\t<code>` or bare `<word>` per line, UTF-8, LF or
CRLF; a blank line is a sentence boundary; lines starting with `#` are
comments. Surfaces are never case-folded or trimmed beyond the line
terminator, so symbol tokens survive byte-exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from dravlid.errors import CorpusParseError, UnknownLabelCodeError
from dravlid.taxonomy import Category, TaskLanguage, code_for, parse_gold_label


@dataclass(frozen=True)
class LabeledToken:
    """A surface word with optional gold category and its corpus position."""

    surface: str
    gold: Category | None
    sentence_index: int
    token_index: int

    def __post_init__(self) -> None:
        if not self.surface or not self.surface.strip():
            raise ValueError("token surface must be non-empty")
        if "\t" in self.surface or "\n" in self.surface or "\r" in self.surface:
            raise ValueError(f"token surface contains tab or newline: {self.surface!r}")
        if self.sentence_index < 0 or self.token_index < 0:
            raise ValueError("token indices must be non-negative")


@dataclass(frozen=True)
class Dataset:
    """An ordered token sequence for one task. Token order is load-bearing."""

    task: TaskLanguage
    tokens: tuple[LabeledToken, ...]
    source_path: str = "<memory>"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        positions = [(t.sentence_index, t.token_index) for t in self.tokens]
        if len(set(positions)) != len(positions):
            raise ValueError("duplicate (sentence_index, token_index) in dataset")

    def __len__(self) -> int:
        return len(self.tokens)

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    def gold_categories(self) -> list[Category]:
        """Gold labels in token order; raises if any token is unlabeled."""
        missing = [t.surface for t in self.tokens if t.gold is None]
        if missing:
            raise ValueError(
                f"{len(missing)} token(s) have no gold label (first: {missing[0]!r})"
            )
        return [t.gold for t in self.tokens]  # type: ignore[misc]


@dataclass(frozen=True)
class DatasetStats:
    total: int
    per_category: dict[Category, int] = field(default_factory=dict)
    unlabeled: int = 0


def parse_corpus(
    text: str | Iterable[str], task: TaskLanguage, source_path: str = "<memory>"
) -> Dataset:
    """Parse corpus text (a string or line iterable) into a Dataset.

    Tokens appear in file order. A labeled line yields a gold token, a bare
    line an unlabeled one; a blank line increments the sentence index and
    resets the token index. Raises CorpusParseError with the 1-based line
    number on malformed lines or unknown label codes.
    """
    # Split on LF only (the documented format): splitlines() would also
    # break on control characters that are legal inside a surface.
    lines = text.split("\n") if isinstance(text, str) else text
    tokens: list[LabeledToken] = []
    sentence_index = 0
    token_index = 0

    for line_number, line in enumerate(lines, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            sentence_index += 1
            token_index = 0
            continue
        if line.startswith("#"):
            continue

        fields = line.split("\t")
        if len(fields) > 2:
            raise CorpusParseError(
                f"expected at most 2 tab-separated fields, found {len(fields)}",
                line_number=line_number,
            )
        surface = fields[0]
        gold: Category | None = None
        if len(fields) == 2:
            try:
                gold = parse_gold_label(fields[1], task)
            except UnknownLabelCodeError as exc:
                raise CorpusParseError(str(exc), line_number=line_number) from None
        try:
            tokens.append(
                LabeledToken(
                    surface=surface,
                    gold=gold,
                    sentence_index=sentence_index,
                    token_index=token_index,
                )
            )
        except ValueError as exc:
            raise CorpusParseError(str(exc), line_number=line_number) from None
        token_index += 1

    return Dataset(task=task, tokens=tuple(tokens), source_path=source_path)


def parse_corpus_file(path: str | Path, task: TaskLanguage) -> Dataset:
    path = Path(path)
    return parse_corpus(
        path.read_text(encoding="utf-8"), task, source_path=str(path)
    )


def serialize_corpus(ds: Dataset) -> str:
    """Render a Dataset in the tab-separated format.

    Emits one blank line per sentence-index step so that re-parsing yields
    an identical token sequence, including runs of consecutive blanks.
    """
    lines: list[str] = []
    current_sentence = 0
    for token in ds.tokens:
        lines.extend("" for _ in range(token.sentence_index - current_sentence))
        current_sentence = token.sentence_index
        if token.gold is None:
            lines.append(token.surface)
        else:
            lines.append(f"{token.surface}\t{code_for(token.gold, ds.task)}")
    text = "\n".join(lines)
    if lines:
        text += "\n"
    return text


def detect_task(text: str) -> TaskLanguage:
    """Guess which task a raw corpus belongs to from its label codes.

    Only `kn`/`mixed` vs `tm`/`tmen` disambiguate; the remaining codes are
    shared. A file using codes from both tasks is an error; a file using
    only shared codes defaults to Kannada, where the stats are identical
    under either reading.
    """
    kannada_only = {"kn", "mixed"}
    tamil_only = {"tm", "tmen"}
    seen_kn = False
    seen_tm = False
    for line in text.split("\n"):
        line = line.rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            continue
        code = fields[1].strip().lower()
        seen_kn = seen_kn or code in kannada_only
        seen_tm = seen_tm or code in tamil_only
    if seen_kn and seen_tm:
        raise CorpusParseError(
            "corpus mixes Kannada-task and Tamil-task label codes; pass the task explicitly"
        )
    return TaskLanguage.TAMIL if seen_tm else TaskLanguage.KANNADA


def compute_stats(ds: Dataset) -> DatasetStats:
    """Exact per-category and unlabeled counts; total equals len(ds)."""
    counts: Counter[Category] = Counter()
    unlabeled = 0
    for token in ds.tokens:
        if token.gold is None:
            unlabeled += 1
        else:
            counts[token.gold] += 1
    per_category = {cat: counts.get(cat, 0) for cat in Category}
    return DatasetStats(total=len(ds.tokens), per_category=per_category, unlabeled=unlabeled)
