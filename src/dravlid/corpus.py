"""Tab-separated token/label corpus parsing, serialization, and statistics.

File format: one `<word>\\t<code>` or bare `<word>` per line, UTF-8 (a file's
leading byte-order mark is dropped), LF or CRLF: a line ends at LF only, and
one CR before it is dropped. A blank line is a sentence boundary; lines
starting with `#` are comments. Surfaces are never case-folded or trimmed
beyond the line terminator, so symbol tokens survive byte-exact.

A corpus repeats a small vocabulary, so read_lines (the predictions file's
reader too) decodes each distinct line once into columns: surfaces, gold
labels, sentence breaks. A run factorizes the surfaces once more, into a
table of distinct words and an index column, and works per distinct word.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable

from dravlid.errors import CorpusParseError, UnknownLabelCodeError
from dravlid.taxonomy import Category, TaskLanguage, code_for, parse_gold_label, valid_codes


_member_name = attrgetter("_name_")


def _check_surface(surface: str) -> None:
    if not surface or not surface.strip():
        raise ValueError("token surface must be non-empty")
    if "\t" in surface or "\n" in surface or "\r" in surface:
        raise ValueError(f"token surface contains tab or newline: {surface!r}")


class Dataset:
    """An ordered token sequence for one task. Token order is load-bearing.

    Held as columns: `surfaces()` gives the words and `golds` the gold label
    of each (None where unlabeled). `breaks` holds one offset per blank line,
    the number of tokens before it, so runs of blank lines are kept. `words`
    (the distinct surfaces in first-occurrence order), `index` (one id
    into `words` per token) and `gold_words` (the (gold, word id) pair
    counts a run is scored from) are built on first use: only a run pays
    for them.
    """

    def __init__(
        self,
        task: TaskLanguage,
        surfaces: Iterable[str],
        golds: Iterable[Category | None],
        breaks: Iterable[int] = (),
        source_path: str = "<memory>",
    ) -> None:
        self.task = task
        self._surfaces = tuple(surfaces)
        self.golds = tuple(golds)
        self.breaks = tuple(breaks)
        self.source_path = source_path
        if len(self.golds) != len(self._surfaces):
            raise ValueError("surfaces and golds differ in length")

    @cached_property
    def words(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self._surfaces))

    @cached_property
    def index(self) -> array:
        ids = dict(zip(self.words, range(len(self.words))))
        return array("I", list(map(ids.__getitem__, self._surfaces)))

    @cached_property
    def gold_words(self) -> dict[Category, dict[int, int]]:
        """For each gold label, how many of its tokens each word id has.

        Raises, as gold_categories does, if any token is unlabeled.
        """
        # Counting member names hashes str in C, not through Enum.__hash__.
        pairs = Counter(zip(map(_member_name, self.gold_categories()), self.index))
        by_name: dict[str, dict[int, int]] = {}
        for (name, word), count in pairs.items():
            by_name.setdefault(name, {})[word] = count
        return {Category[name]: words for name, words in by_name.items()}

    def __len__(self) -> int:
        return len(self._surfaces)

    def surfaces(self) -> list[str]:
        return list(self._surfaces)

    def gold_categories(self) -> list[Category]:
        """Gold labels in token order; raises if any token is unlabeled."""
        missing = self.golds.count(None)
        if missing:
            first = self._surfaces[self.golds.index(None)]
            raise ValueError(
                f"{missing} token(s) have no gold label (first: {first!r})"
            )
        return list(self.golds)  # type: ignore[arg-type]


@dataclass(frozen=True)
class DatasetStats:
    total: int
    per_category: dict[Category, int] = field(default_factory=dict)
    unlabeled: int = 0


# What a line decoder returns for a line that holds no token.
BREAK = "sentence break"
SKIP = "no token"


def read_lines(
    lines: Iterable[str], decode: Callable[[str, int], tuple[str, object] | str]
) -> tuple[list[str], list, list[int]]:
    """Surfaces, labels and sentence-break offsets of a token file.

    `decode(line, line_number)` gives a (surface, label) pair, BREAK or SKIP,
    or raises naming the 1-based line number. Each distinct line is decoded
    once, so a bad line raises where it first occurs.
    """
    decoded: dict[str, tuple[str, object] | str] = {}
    surfaces, labels, breaks = [], [], []
    for line_number, line in enumerate(lines, start=1):
        entry = decoded.get(line)
        if entry is None:
            entry = decoded[line] = decode(line, line_number)
        if entry is BREAK:
            breaks.append(len(surfaces))
        elif entry is not SKIP:
            surfaces.append(entry[0])
            labels.append(entry[1])
    return surfaces, labels, breaks


def _parse_line(
    line: str, task: TaskLanguage, line_number: int
) -> tuple[str, Category | None] | str:
    """(surface, gold) of one corpus line, BREAK if blank, SKIP if a comment.

    Raises CorpusParseError naming line_number if the line is malformed.
    """
    line = line.removesuffix("\n").removesuffix("\r")
    if not line.strip():
        return BREAK
    if line.startswith("#"):
        return SKIP

    fields = line.split("\t")
    if len(fields) > 2:
        raise CorpusParseError(
            f"expected at most 2 tab-separated fields, found {len(fields)}",
            line_number=line_number,
        )
    surface = fields[0]
    gold: Category | None = None
    try:
        if len(fields) == 2:
            gold = parse_gold_label(fields[1], task)
        _check_surface(surface)
    except (UnknownLabelCodeError, ValueError) as exc:
        raise CorpusParseError(str(exc), line_number=line_number) from None
    return surface, gold


@contextmanager
def naming_bad_bytes(path: str | Path):
    """Turn a UTF-8 decode failure in the block into a CorpusParseError naming
    the line and file offset of the first bad byte. Only this error path reads
    the file again: a text stream's error gives an offset within one chunk."""
    try:
        yield
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_number = data.count(b"\n", 0, exc.start) + 1
            raise CorpusParseError(str(exc), line_number=line_number) from None
        raise  # the file changed between the reads: keep the first error


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text, a leading BOM dropped, its line ends as they are:
    lines split at '\\n' only, so a lone '\\r' stays inside its line."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return fh.read()


def parse_corpus(
    text: str | Iterable[str], task: TaskLanguage, source_path: str = "<memory>"
) -> Dataset:
    """Parse corpus text (a string or line iterable) into a Dataset.

    Tokens appear in file order. A labeled line yields a gold token, a bare
    line an unlabeled one; a blank line increments the sentence index and
    resets the token index. Raises CorpusParseError with the 1-based line
    number of the first malformed line or unknown label code.
    """
    # Split on LF only (the documented format): splitlines() would also
    # break on control characters that are legal inside a surface.
    lines = text.split("\n") if isinstance(text, str) else text
    surfaces, golds, breaks = read_lines(
        lines, lambda line, line_number: _parse_line(line, task, line_number)
    )
    return Dataset(task, surfaces, golds, breaks, source_path)


def parse_corpus_file(path: str | Path, task: TaskLanguage) -> Dataset:
    path = Path(path)
    with naming_bad_bytes(path):
        text = read_text(path)
    return parse_corpus(text, task, source_path=str(path))


def serialize_corpus(ds: Dataset) -> str:
    """Render a Dataset in the tab-separated format.

    Writes one blank line per sentence break before the token it precedes,
    so that re-parsing yields an identical token sequence, runs of blanks
    included. Breaks after the last token write nothing.
    """
    breaks = Counter(ds.breaks)
    lines: list[str] = []
    for i, (surface, gold) in enumerate(zip(ds._surfaces, ds.golds)):
        lines.extend([""] * breaks[i])
        lines.append(surface if gold is None else f"{surface}\t{code_for(gold, ds.task)}")
    text = "\n".join(lines)
    if lines:
        text += "\n"
    return text


def detect_task(text: str) -> TaskLanguage:
    """Guess which task a raw corpus belongs to from its label codes.

    Only `kn`/`mixed` vs `tm`/`tmen` disambiguate; the remaining codes are
    shared. A file using codes from both tasks is an error; a file using
    only shared codes defaults to Kannada, where the stats are identical
    under either reading. Each distinct line is looked at once.
    """
    kannada = set(valid_codes(TaskLanguage.KANNADA))
    tamil = set(valid_codes(TaskLanguage.TAMIL))
    kannada_only, tamil_only = kannada - tamil, tamil - kannada
    seen_kn = False
    seen_tm = False
    for line in set(text.split("\n")):
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
    counts: Counter[Category | None] = Counter(ds.golds)
    unlabeled = counts.pop(None, 0)
    per_category = {cat: counts.get(cat, 0) for cat in Category}
    return DatasetStats(total=len(ds), per_category=per_category, unlabeled=unlabeled)
