"""Seeded inputs for the benchmark's three workloads, and why each exists.

Everything here is a pure function of the seed: the corpora, their gold
labels, the model replies the stub serves and the warm cache holds, and the
code each reply is meant to produce. The benchmark's correctness gate
compares the program's output with these intended codes, never with the
program's own normalization.

Corpora are Zipf-like: a vocabulary is built from the bundled lexicons
(English words, stems, stem+suffix, English+suffix, names, locations,
symbols, digits) followed by a long tail (spelling variants of those words,
junk strings, numbers), shuffled, and sampled with P(rank r) ~ 1/(r+2.7)^s.
Each word's gold label follows from how it was built.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from dravlid.cache import make_record
from dravlid.prompting import DEFAULT_MODEL_ID, render_prompt
from dravlid.taxonomy import TaskLanguage

TEMPERATURES = (0.7, 0.8, 0.9)
MAX_WORKERS = 2
# The CLI's default rate; transport.rate_floor_s is reported against it.
DEFAULT_RATE_PER_MINUTE = 60.0
# High enough that the real TokenBucket never makes a worker wait.
NON_BINDING_RATE_PER_MINUTE = 6_000_000.0
RETRY_BASE_DELAY_S = 0.001
STUB_LATENCY_MS = 2.0
STUB_FAIL_EVERY = 50
CACHE_CREATED_AT = "2026-01-01T00:00:00Z"

SYMBOLS = ("!", "?", ".", ",", "...", "!!", "?!", ":)", ":(", "-", "&", "%",
           "*", "@", "+", "=", "/", "~", "<3", "!!!")

# Wire code -> spelled-out category name, per task. Kept here rather than
# read from dravlid.taxonomy so that the gate does not trust the code table
# it is checking.
CODES = {
    "kn": ("en", "kn", "mixed", "name", "location", "sym", "other"),
    "tm": ("en", "tm", "tmen", "name", "location", "sym", "other"),
}
CATEGORY_NAMES = {
    "kn": dict(zip(CODES["kn"], ("English", "Kannada", "Mixed", "Name",
                                 "Location", "Symbol", "Other"))),
    "tm": dict(zip(CODES["tm"], ("English", "Tamil", "Mixed", "Name",
                                 "Location", "Symbol", "Other"))),
}
TASKS = {"kn": TaskLanguage.KANNADA, "tm": TaskLanguage.TAMIL}
LANGUAGE_FILES = {"kn": "kannada", "tm": "tamil"}

# The reply styles of the bundled replay fixtures. Each one reaches a
# different normalization rule: exact code, code after stripping case and
# punctuation, first code token, spelled-out category name.
REPLY_STYLES = (
    lambda code, name: code,
    lambda code, name: f" {code.upper()}. ",
    lambda code, name: f"Category: {code}",
    lambda code, name: f"The word is in {name}.",
    lambda code, name: f"{code}, going by the spelling",
)
UNPARSEABLE_REPLIES = ("I cannot tell.", "???")


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    tokens: int
    vocabulary: int
    zipf_s: float
    backend: str


WORKLOADS = {
    w.name: w
    for w in (
        # classify --backend baseline, then evaluate: the CPU-bound offline
        # path, with no cache and no network. Shows corpus parse (twice), the
        # rule baseline, classifiers and taxonomy, the runner's JSONL write
        # and read, and metrics. About 16% of tokens are unique surfaces, so
        # deduplicating before the backend (ROADMAP 1a) shows here. It never
        # renders a prompt: prompting, cache and transport changes should
        # leave it unchanged.
        Workload("baseline-zipf-kn", "kn", tokens=200_000, vocabulary=54_000,
                 zipf_s=1.0, backend="baseline"),
        # sweep --backend live at 0.7, 0.8 and 0.9 against a cache that
        # holds every reply: the rerun path users hit most. Shows the
        # cache-file load (in setup_s), prompt render plus cache key, cache
        # hits pushed through the thread pool (ROADMAP 1b), every
        # normalization rule, the Tamil template and code table. It must
        # send no request; transport changes should leave it unchanged.
        Workload("warm-sweep-tm", "tm", tokens=100_000, vocabulary=26_000,
                 zipf_s=1.0, backend="live-warm"),
        # classify --backend live with an empty cache against the
        # out-of-process stub (2 ms latency, every 50th request 503), the
        # real TokenBucket at a rate that does not bind, a 1 ms retry base
        # delay. The only workload that uses transport and retries, and it
        # writes the cache. About 98% of tokens are unique, so deduplication
        # should leave it unchanged, and so should corpus-parse speed-ups.
        Workload("cold-live-kn", "kn", tokens=3_000, vocabulary=120_000,
                 zipf_s=0.0, backend="live-cold"),
    )
}


@dataclass(frozen=True)
class Corpus:
    task: str
    words: tuple[str, ...]
    gold: tuple[str, ...]
    sentence_lengths: tuple[int, ...]

    def unique_words(self) -> dict[str, str]:
        """Each distinct surface with its gold code, in first-seen order."""
        return dict(zip(self.words, self.gold))

    def to_tsv(self) -> str:
        lines, position = [], 0
        for length in self.sentence_lengths:
            for word, code in zip(self.words[position:position + length],
                                  self.gold[position:position + length]):
                lines.append(f"{word}\t{code}")
            lines.append("")
            position += length
        return "\n".join(lines)


@dataclass(frozen=True)
class Lexicons:
    """The bundled word lists, read from the data files without dravlid's
    loader, so that the reference below does not share code with the rule
    baseline it checks."""

    english: frozenset[str]
    stems: frozenset[str]
    suffixes: tuple[str, ...]
    names: frozenset[str]
    locations: frozenset[str]

    @classmethod
    def load(cls, data_dir: Path, task: str) -> "Lexicons":
        def words(name: str) -> list[str]:
            lines = (data_dir / name).read_text(encoding="utf-8").splitlines()
            return [w.strip() for w in lines if w.strip() and not w.strip().startswith("#")]

        language = LANGUAGE_FILES[task]
        return cls(
            english=frozenset(w.lower() for w in words("english_words.txt")),
            stems=frozenset(w.lower() for w in words(f"{language}_stems.txt")),
            suffixes=tuple(w.lower() for w in words(f"{language}_suffixes.txt")),
            names=frozenset(words("names.txt")),
            locations=frozenset(words("locations.txt")),
        )

    @functools.cached_property
    def locations_folded(self) -> frozenset[str]:
        return frozenset(p.lower() for p in self.locations)

    def _strips_to(self, word: str, vocabulary: frozenset[str]) -> bool:
        return any(len(word) > len(x) and word.endswith(x) and word[:-len(x)] in vocabulary
                   for x in self.suffixes)

    def reference_baseline(self, word: str, task: str) -> str:
        """The rule baseline's documented rules, in order, as a wire code."""
        lowered = word.lower()
        if not any(c.isalnum() for c in word):
            return "sym"
        if word.isdigit():
            return "other"
        if lowered in self.locations_folded:
            return "location"
        if word in self.names:
            return "name"
        english = lowered in self.english
        strips_to_english = self._strips_to(lowered, self.english)
        if english:
            return CODES[task][2] if strips_to_english else "en"
        if lowered in self.stems or self._strips_to(lowered, self.stems):
            return CODES[task][1]
        return CODES[task][2] if strips_to_english else "other"


def _lexicon_entries(lex: Lexicons, task: str) -> list[tuple[str, str]]:
    """(surface, gold code) for every word the bundled lexicons can build."""
    dravidian, mixed = CODES[task][1], CODES[task][2]
    english = sorted(lex.english)
    stems = sorted(lex.stems)
    entries = [(w, "en") for w in english]
    entries += [(s, dravidian) for s in stems]
    entries += [(s + x, dravidian) for s in stems for x in lex.suffixes]
    entries += [(w + x, mixed) for w in english for x in lex.suffixes]
    entries += [(n, "name") for n in sorted(lex.names)]
    entries += [(p, "location") for p in sorted(lex.locations)]
    entries += [(s, "sym") for s in SYMBOLS]
    entries += [(str(n), "other") for n in range(100)]
    return entries


def _tail_entry(rng: random.Random, head: list[tuple[str, str]]) -> tuple[str, str]:
    roll = rng.random()
    if roll < 0.45:
        word, code = head[rng.randrange(len(head))]
        if code in ("sym", "other"):
            return word + word[-1] * rng.randint(2, 6), code
        if rng.random() < 0.7:  # elongation, as in "superrr"
            return word + word[-1] * rng.randint(1, 4), code
        return (word.upper() if rng.random() < 0.5 else word.capitalize()), code
    if roll < 0.8:
        letters = "abcdefghijklmnopqrstuvwxyz"
        return "".join(rng.choice(letters) for _ in range(rng.randint(5, 10))), "other"
    return str(rng.randrange(100, 10_000_000)), "other"


def build_vocabulary(lex: Lexicons, task: str, size: int,
                     rng: random.Random) -> list[tuple[str, str]]:
    """The lexicon-built words in shuffled rank order, then a long tail."""
    head, seen = [], set()
    for word, code in _lexicon_entries(lex, task):
        if word not in seen:
            seen.add(word)
            head.append((word, code))
    rng.shuffle(head)
    vocab = list(head)
    while len(vocab) < size:
        word, code = _tail_entry(rng, head)
        if word not in seen:
            seen.add(word)
            vocab.append((word, code))
    return vocab


def generate_corpus(workload: Workload, lex: Lexicons, seed: int) -> Corpus:
    rng = random.Random(f"{workload.name}:{seed}")
    vocab = build_vocabulary(lex, workload.task, workload.vocabulary, rng)
    cum, total = [], 0.0
    for rank in range(1, len(vocab) + 1):
        total += 1.0 / (rank + 2.7) ** workload.zipf_s
        cum.append(total)
    draws = rng.choices(range(len(vocab)), cum_weights=cum, k=workload.tokens)
    lengths, remaining = [], workload.tokens
    while remaining:
        length = min(remaining, rng.randint(4, 14))
        lengths.append(length)
        remaining -= length
    return Corpus(
        task=workload.task,
        words=tuple(vocab[i][0] for i in draws),
        gold=tuple(vocab[i][1] for i in draws),
        sentence_lengths=tuple(lengths),
    )


def model_reply(word: str, temperature: float, gold: str, task: str) -> tuple[str, str]:
    """The simulated model's reply for one request, and the code it intends.

    One reply in 32 is unparseable and must come out as "other". Otherwise
    the intended code is the gold code four times in five, and the reply
    rotates through the fixture styles.
    """
    digest = hashlib.blake2b(f"{word}\0{temperature!r}".encode(), digest_size=8).digest()
    h = int.from_bytes(digest, "big")
    if h % 32 == 0:
        return UNPARSEABLE_REPLIES[(h >> 5) % 2], "other"
    intended = gold if (h >> 8) % 5 else CODES[task][(h >> 12) % 7]
    style = REPLY_STYLES[(h >> 16) % len(REPLY_STYLES)]
    return style(intended, CATEGORY_NAMES[task][intended]), intended


def write_warm_cache(corpus: Corpus, path: Path) -> int:
    """One cache record per (unique word, sweep temperature); returns the count."""
    task = TASKS[corpus.task]
    lines = []
    for word, gold in corpus.unique_words().items():
        prompt = render_prompt(word, task)
        for t in TEMPERATURES:
            reply, _ = model_reply(word, t, gold, corpus.task)
            record = make_record(DEFAULT_MODEL_ID, t, prompt, reply, CACHE_CREATED_AT)
            lines.append(record.to_json_line() + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    return len(lines)
