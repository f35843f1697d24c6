"""Rule-based classifier: rule order, lexicon handling, determinism."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dravlid.baseline import (
    LexiconSet,
    classify_baseline,
    default_lexicons,
    lexicons_from_dir,
    load_wordlist,
)
from dravlid.taxonomy import Category, TaskLanguage

KN = TaskLanguage.KANNADA
TM = TaskLanguage.TAMIL


def make_lex(**overrides) -> LexiconSet:
    base = dict(
        english_words=frozenset({"book", "school", "run"}),
        dravidian_stems=frozenset({"mane", "oota"}),
        name_gazetteer=frozenset({"John", "Infosys"}),
        location_gazetteer=frozenset({"Bangalore", "Taj Mahal"}),
        dravidian_suffixes=("alli", "ige"),
    )
    base.update(overrides)
    return LexiconSet(**base)


class TestRuleLadder:
    def test_rule1_symbol(self):
        assert classify_baseline("#", KN) is Category.SYMBOL
        assert classify_baseline(";", KN) is Category.SYMBOL
        assert classify_baseline("@!%", TM) is Category.SYMBOL

    def test_rule2_digits_are_other(self):
        assert classify_baseline("123", KN) is Category.OTHER
        assert classify_baseline("2024", TM) is Category.OTHER

    def test_mixed_alphanumeric_is_not_symbol(self):
        # "a1" has an alphanumeric, so rule 1 passes it along.
        lex = make_lex()
        assert classify_baseline("a1", KN, lex) is Category.OTHER

    def test_rule3_location_case_insensitive(self):
        lex = make_lex()
        assert classify_baseline("Bangalore", KN, lex) is Category.LOCATION
        assert classify_baseline("bangalore", KN, lex) is Category.LOCATION
        assert classify_baseline("BANGALORE", KN, lex) is Category.LOCATION
        assert classify_baseline("Taj Mahal", KN, lex) is Category.LOCATION

    def test_rule4_name_exact_case(self):
        lex = make_lex()
        assert classify_baseline("John", KN, lex) is Category.NAME
        # Lowercase misses the gazetteer and nothing else matches.
        assert classify_baseline("john", KN, lex) is Category.OTHER

    def test_rule5_english_word_that_also_strips_is_mixed(self):
        lex = make_lex(
            english_words=frozenset({"book", "bookalli"}),
        )
        assert classify_baseline("bookalli", KN, lex) is Category.MIXED

    def test_rule6_plain_english(self):
        lex = make_lex()
        assert classify_baseline("book", KN, lex) is Category.ENGLISH
        assert classify_baseline("RUN", KN, lex) is Category.ENGLISH

    def test_rule7_dravidian_bare_and_suffixed(self):
        lex = make_lex()
        assert classify_baseline("mane", KN, lex) is Category.DRAVIDIAN
        assert classify_baseline("manealli", KN, lex) is Category.DRAVIDIAN

    def test_rule8_english_stem_with_suffix_is_mixed(self):
        lex = make_lex()
        assert classify_baseline("bookalli", KN, lex) is Category.MIXED
        assert classify_baseline("schoolige", KN, lex) is Category.MIXED

    def test_rule9_fallback_other(self):
        lex = make_lex()
        assert classify_baseline("zzz", KN, lex) is Category.OTHER

    def test_suffix_must_leave_nonempty_residue(self):
        # The whole word equals a suffix: nothing to strip against.
        lex = make_lex(english_words=frozenset({"a"}))
        assert classify_baseline("alli", KN, lex) is Category.OTHER

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            classify_baseline("", KN)


class TestRuleOrderSoundness:
    def test_location_unaffected_by_later_rules(self):
        lex = make_lex()
        widened = make_lex(
            name_gazetteer=frozenset({"John", "Bangalore"}),
            english_words=frozenset({"book", "bangalore"}),
        )
        assert classify_baseline("Bangalore", KN, lex) is Category.LOCATION
        assert classify_baseline("Bangalore", KN, widened) is Category.LOCATION

    def test_name_unaffected_by_english_entry(self):
        widened = make_lex(english_words=frozenset({"book", "john"}))
        assert classify_baseline("John", KN, widened) is Category.NAME

    def test_symbol_unaffected_by_any_lexicon(self):
        loaded = make_lex(
            name_gazetteer=frozenset({"#"}), location_gazetteer=frozenset({"#"})
        )
        assert classify_baseline("#", KN, loaded) is Category.SYMBOL


class TestDeterminismAndTotality:
    @given(
        st.text(
            alphabet=st.characters(codec="utf-8", exclude_categories=["Cs"]),
            min_size=1,
            max_size=16,
        )
    )
    def test_total_and_stable_over_arbitrary_words(self, word):
        lex = make_lex()
        first = classify_baseline(word, KN, lex)
        assert isinstance(first, Category)
        assert classify_baseline(word, KN, lex) is first

    def test_bundled_lexicons_give_stable_smoke_predictions(self):
        words = ["hello", "bookalli", "mane", "Bangalore", "John", "%", "qwerty"]
        first = [classify_baseline(w, KN) for w in words]
        second = [classify_baseline(w, KN) for w in words]
        assert first == second
        assert first == [
            Category.ENGLISH,
            Category.MIXED,
            Category.DRAVIDIAN,
            Category.LOCATION,
            Category.NAME,
            Category.SYMBOL,
            Category.OTHER,
        ]


class TestLexicons:
    def test_default_lexicons_cached_per_task(self):
        assert default_lexicons(KN) is default_lexicons(KN)
        assert default_lexicons(KN) is not default_lexicons(TM)

    def test_entries_case_folded_on_construction(self):
        lex = make_lex(english_words=frozenset({"BoOk"}))
        assert "book" in lex.english_words
        assert classify_baseline("BOOK", KN, lex) is Category.ENGLISH

    def test_locations_held_lower_cased_and_names_as_given(self):
        lex = make_lex()
        assert lex.location_gazetteer == {"bangalore", "taj mahal"}
        assert lex.name_gazetteer == {"John", "Infosys"}

    def test_empty_entry_rejected(self):
        with pytest.raises(ValueError):
            make_lex(english_words=frozenset({""}))

    def test_load_wordlist_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("# heading\n\nalpha\n  beta  \n# tail\n", encoding="utf-8")
        assert load_wordlist(path) == ["alpha", "beta"]

    def test_load_wordlist_drops_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_bytes(b"\xef\xbb\xbfalpha\nbeta\n")
        assert load_wordlist(path) == ["alpha", "beta"]

    def test_load_wordlist_splits_lines_at_newline_only(self, tmp_path):
        # Corpus lines end at "\n" only, so these characters stay inside a
        # surface; a list entry must keep them too, or it can never match.
        inner = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
        path = tmp_path / "names.txt"
        path.write_text("".join(f"Ra{c}ma\n" for c in inner), encoding="utf-8")
        assert load_wordlist(path) == [f"Ra{c}ma" for c in inner]

    def test_lexicons_from_dir(self, tmp_path):
        files = {
            "english_words.txt": "book\n",
            "stems.txt": "mane\n",
            "names.txt": "John\n",
            "locations.txt": "Bangalore\n",
            "suffixes.txt": "alli\n",
        }
        for name, content in files.items():
            (tmp_path / name).write_text(content, encoding="utf-8")
        lex = lexicons_from_dir(tmp_path)
        assert classify_baseline("bookalli", KN, lex) is Category.MIXED

    def test_name_holding_a_line_separator_matches(self, tmp_path):
        files = {"english_words.txt": "book\n", "stems.txt": "mane\n",
                 "names.txt": "Ra\u2028ma\n", "locations.txt": "Bangalore\n",
                 "suffixes.txt": "alli\n"}
        for name, content in files.items():
            (tmp_path / name).write_text(content, encoding="utf-8")
        lex = lexicons_from_dir(tmp_path)
        assert classify_baseline("Ra\u2028ma", KN, lex) is Category.NAME

    def test_lexicons_from_dir_missing_file(self, tmp_path):
        (tmp_path / "english_words.txt").write_text("book\n", encoding="utf-8")
        with pytest.raises(FileNotFoundError, match="stems.txt"):
            lexicons_from_dir(tmp_path)
