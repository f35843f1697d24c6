"""Deterministic rule-based word classifier over the shared taxonomy.

Exists as an offline comparison point and network-free test substrate, not
as a competitive system. First matching rule wins; the order is part of the
contract (see classify_baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable

from dravlid.taxonomy import Category, TaskLanguage

_DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class LexiconSet:
    """Word lists backing the rules. A word may appear in several lists;
    rule order resolves the overlap."""

    english_words: frozenset[str]
    dravidian_stems: frozenset[str]
    name_gazetteer: frozenset[str]
    location_gazetteer: frozenset[str]
    dravidian_suffixes: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "english_words", frozenset(w.lower() for w in self.english_words)
        )
        object.__setattr__(
            self, "dravidian_stems", frozenset(w.lower() for w in self.dravidian_stems)
        )
        object.__setattr__(
            self,
            "dravidian_suffixes",
            tuple(s.lower() for s in self.dravidian_suffixes),
        )
        object.__setattr__(self, "name_gazetteer", frozenset(self.name_gazetteer))
        object.__setattr__(
            self, "location_gazetteer", frozenset(self.location_gazetteer)
        )
        for group_name in (
            "english_words",
            "dravidian_stems",
            "name_gazetteer",
            "location_gazetteer",
            "dravidian_suffixes",
        ):
            if any(not entry for entry in getattr(self, group_name)):
                raise ValueError(f"{group_name} contains an empty entry")
        # Location matching is case-insensitive; precompute the folded set.
        object.__setattr__(
            self,
            "_locations_folded",
            frozenset(w.lower() for w in self.location_gazetteer),
        )


def load_wordlist(path: str | Path) -> list[str]:
    """One entry per line, UTF-8 (a leading BOM is dropped), '#' comments and
    blank lines skipped."""
    entries = []
    for line in Path(path).read_text(encoding="utf-8-sig").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


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
    english, stems, people, places, suffixes = (
        load_wordlist(directory / name) for name in names
    )
    return LexiconSet(
        english_words=frozenset(english),
        dravidian_stems=frozenset(stems),
        name_gazetteer=frozenset(people),
        location_gazetteer=frozenset(places),
        dravidian_suffixes=tuple(suffixes),
    )


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


def _strips_to(word: str, suffixes: Iterable[str], vocabulary: frozenset[str]) -> bool:
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

    if all(not c.isalnum() for c in word):
        return Category.SYMBOL
    if all(c.isdigit() for c in word):
        return Category.OTHER
    lowered = word.lower()
    if lowered in lex._locations_folded:  # type: ignore[attr-defined]
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
