"""Deterministic rule-based word classifier over the shared taxonomy.

Exists as an offline comparison point and network-free test substrate, not
as a competitive system. First matching rule wins; the order is part of the
contract (see classify_baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

from dravlid.corpus import naming_bad_bytes, read_text
from dravlid.errors import CorpusParseError
from dravlid.taxonomy import Category, TaskLanguage

_DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class LexiconSet:
    """Word lists backing the rules, each held once in the form the rules
    read it: names exactly as given, the other lists lower-cased. A word may
    appear in several lists; rule order resolves the overlap."""

    english_words: frozenset[str]
    dravidian_stems: frozenset[str]
    name_gazetteer: frozenset[str]
    location_gazetteer: frozenset[str]
    dravidian_suffixes: tuple[str, ...]

    def __post_init__(self) -> None:
        for field in fields(self):
            entries = getattr(self, field.name)
            if field.name != "name_gazetteer":
                entries = map(str.lower, entries)
            held = tuple(entries) if field.name == "dravidian_suffixes" else frozenset(entries)
            if "" in held:
                raise ValueError(f"{field.name} contains an empty entry")
            object.__setattr__(self, field.name, held)


def load_wordlist(path: str | Path) -> list[str]:
    """One entry per line, UTF-8 (a leading BOM is dropped), '#' comments and
    blank lines skipped. Lines end at '\\n' only, as corpus lines do. A byte
    that is not UTF-8 is a ValueError naming the file and its line."""
    try:
        with naming_bad_bytes(path):
            text = read_text(path)
    except (UnicodeDecodeError, CorpusParseError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    entries = (line.strip() for line in text.split("\n"))
    return [entry for entry in entries if entry and not entry.startswith("#")]


def _read_lexicons(directory: Path, prefix: str = "") -> LexiconSet:
    """Read the five word lists from one directory. The stems and suffixes
    file names carry `prefix` ("kannada_stems.txt" in the bundled data)."""
    names = (
        "english_words.txt",
        f"{prefix}stems.txt",
        "names.txt",
        "locations.txt",
        f"{prefix}suffixes.txt",
    )
    missing = [name for name in names if not (directory / name).is_file()]
    if missing:
        raise FileNotFoundError(
            f"lexicon directory {directory} is missing: {', '.join(missing)}"
        )
    return LexiconSet(*(load_wordlist(directory / name) for name in names))


@lru_cache(maxsize=None)
def default_lexicons(task: TaskLanguage) -> LexiconSet:
    """Small bundled lists, adequate for tests and smoke runs."""
    return _read_lexicons(_DATA_DIR, prefix=f"{task.value}_")


def lexicons_from_dir(directory: str | Path) -> LexiconSet:
    """Build a LexiconSet from user-supplied word lists in one directory.

    Expects english_words.txt, stems.txt, names.txt, locations.txt, and
    suffixes.txt (one entry per line, '#' comments). The directory is
    task-specific by construction: stems and suffixes belong to whichever
    language the run targets.
    """
    return _read_lexicons(Path(directory))


def _strips_to(word: str, suffixes: tuple[str, ...], vocabulary: frozenset[str]) -> bool:
    """True when stripping some suffix leaves a non-empty residue in vocabulary."""
    for suffix in suffixes:
        if len(word) > len(suffix) and word.endswith(suffix):
            if word[: -len(suffix)] in vocabulary:
                return True
    return False


def classify_baseline(
    word: str, task: TaskLanguage, lex: LexiconSet | None = None
) -> Category:
    """Classify one word; rules apply in this exact order:

      1. no letters or digits at all           -> Symbol
      2. digits only                           -> Other
      3. in the location gazetteer (any case)  -> Location
      4. in the name gazetteer                 -> Name
      5. English word that also strips to an
         English residue via a suffix          -> Mixed
      6. English word                          -> English
      7. Dravidian stem, bare or suffixed      -> Dravidian
      8. suffix strips to an English residue   -> Mixed
      9. anything else                         -> Other
    """
    if not word:
        raise ValueError("cannot classify an empty word")
    if lex is None:
        lex = default_lexicons(task)

    if not any(map(str.isalnum, word)):
        return Category.SYMBOL
    if word.isdigit():
        return Category.OTHER
    lowered = word.lower()
    if lowered in lex.location_gazetteer:
        return Category.LOCATION
    if word in lex.name_gazetteer:
        return Category.NAME
    in_english = lowered in lex.english_words
    strips_to_english = _strips_to(lowered, lex.dravidian_suffixes, lex.english_words)
    if in_english and strips_to_english:
        return Category.MIXED
    if in_english:
        return Category.ENGLISH
    if lowered in lex.dravidian_stems or _strips_to(
        lowered, lex.dravidian_suffixes, lex.dravidian_stems
    ):
        return Category.DRAVIDIAN
    if strips_to_english:
        return Category.MIXED
    return Category.OTHER
