"""Label space, code tables, and response normalization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dravlid.errors import UnknownLabelCodeError
from dravlid.taxonomy import (
    Category,
    NormalizationOutcome,
    TaskLanguage,
    code_for,
    normalize_response,
    parse_gold_label,
    parse_task,
    valid_codes,
)

KN = TaskLanguage.KANNADA
TM = TaskLanguage.TAMIL
BOTH_TASKS = (KN, TM)


class TestCodeTables:
    def test_seven_categories(self):
        assert len(Category) == 7

    def test_kannada_codes_in_order(self):
        assert valid_codes(KN) == ("en", "kn", "mixed", "name", "location", "sym", "other")

    def test_tamil_codes_in_order(self):
        assert valid_codes(TM) == ("en", "tm", "tmen", "name", "location", "sym", "other")

    @pytest.mark.parametrize(
        "cat,task,code",
        [
            (Category.DRAVIDIAN, KN, "kn"),
            (Category.MIXED, TM, "tmen"),
            (Category.SYMBOL, KN, "sym"),
        ],
    )
    def test_code_for_known_pairs(self, cat, task, code):
        assert code_for(cat, task) == code

    @pytest.mark.parametrize("task", BOTH_TASKS)
    def test_bijection_per_task(self, task):
        for cat in Category:
            assert parse_gold_label(code_for(cat, task), task) is cat

    def test_codes_are_lowercase_ascii(self):
        for task in BOTH_TASKS:
            for code in valid_codes(task):
                assert code == code.lower()
                assert code.isascii()


class TestParseTask:
    @pytest.mark.parametrize(
        "alias,expected",
        [("kn", KN), ("tm", TM), ("kannada", KN), ("tamil", TM), (" Tamil ", TM)],
    )
    def test_aliases(self, alias, expected):
        assert parse_task(alias) is expected

    def test_passthrough(self):
        assert parse_task(KN) is KN

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="malayalam"):
            parse_task("malayalam")


class TestParseGoldLabel:
    def test_tamil_dravidian(self):
        assert parse_gold_label("tm", TM) is Category.DRAVIDIAN

    def test_case_insensitive_trimmed(self):
        assert parse_gold_label("Location", TM) is Category.LOCATION
        assert parse_gold_label("  SYM  ", KN) is Category.SYMBOL

    def test_foreign_code_rejected(self):
        # "kn" belongs to the Kannada table only.
        with pytest.raises(UnknownLabelCodeError) as excinfo:
            parse_gold_label("kn", TM)
        assert "kn" in str(excinfo.value)
        assert "tamil" in str(excinfo.value)

    def test_garbage_rejected(self):
        with pytest.raises(UnknownLabelCodeError):
            parse_gold_label("xx", KN)


class TestNormalizeExamples:
    def test_exact_code(self):
        outcome = normalize_response("kn", KN)
        assert outcome.ok
        assert outcome.category is Category.DRAVIDIAN
        assert outcome.code == "kn"

    def test_code_inside_sentence_after_punctuation(self):
        outcome = normalize_response("The word is in the category: en.", KN)
        assert outcome.ok
        assert outcome.category is Category.ENGLISH

    def test_unrecognized(self):
        outcome = normalize_response("I cannot determine this", KN)
        assert outcome == (Category.OTHER, "other", False)

    def test_surrounding_junk_stripped(self):
        assert normalize_response(' "EN." ', KN).category is Category.ENGLISH
        assert normalize_response("\tsym,\n", TM).category is Category.SYMBOL

    def test_first_code_token_wins(self):
        # Both "en" and "kn" are present; the leftmost code decides.
        outcome = normalize_response("en or maybe kn", KN)
        assert outcome.category is Category.ENGLISH

    def test_code_beats_category_name(self):
        # "english" appears first but "kn" is a code; codes take priority.
        outcome = normalize_response("english text? no: kn", KN)
        assert outcome.category is Category.DRAVIDIAN

    def test_category_name_fallback(self):
        assert normalize_response("That looks like English.", KN).category is Category.ENGLISH
        assert normalize_response("It is a Symbol", TM).category is Category.SYMBOL

    @pytest.mark.parametrize("task", BOTH_TASKS)
    def test_both_language_names_mean_dravidian(self, task):
        assert normalize_response("kannada", task).category is Category.DRAVIDIAN
        assert normalize_response("tamil", task).category is Category.DRAVIDIAN

    def test_task_codes_do_not_cross(self):
        assert not normalize_response("tmen", KN).ok
        assert normalize_response("tmen", TM).category is Category.MIXED
        assert normalize_response("kn", TM).ok is False
        # "mixed" is not a Tamil code but it is a category name.
        assert normalize_response("mixed", TM).category is Category.MIXED

    def test_empty_string_fails_cleanly(self):
        assert normalize_response("", KN) == (Category.OTHER, "other", False)


class TestNormalizeProperties:
    @given(st.text(max_size=80))
    def test_totality_never_raises(self, raw):
        for task in BOTH_TASKS:
            outcome = normalize_response(raw, task)
            assert isinstance(outcome, NormalizationOutcome)
            assert outcome.code == code_for(outcome.category, task)
            assert outcome.ok or outcome.category is Category.OTHER

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=60))
    def test_case_insensitive_on_ascii(self, raw):
        for task in BOTH_TASKS:
            upper = normalize_response(raw.upper(), task)
            base = normalize_response(raw, task)
            assert upper == base

    @pytest.mark.parametrize("task", BOTH_TASKS)
    def test_idempotence_over_all_codes(self, task):
        for code in valid_codes(task):
            first = normalize_response(code, task)
            assert first.ok
            again = normalize_response(first.code, task)
            assert again.ok
            assert again.category is first.category

    @pytest.mark.parametrize("task", BOTH_TASKS)
    @pytest.mark.parametrize("shape", ["lower", "upper", "title"])
    def test_all_codes_all_cases(self, task, shape):
        for code in valid_codes(task):
            variant = getattr(code, shape)()
            outcome = normalize_response(variant, task)
            assert outcome.ok, (variant, task)
            assert outcome.category is parse_gold_label(code, task)

    @given(st.text(max_size=60))
    def test_success_round_trips_through_matched_code(self, raw):
        for task in BOTH_TASKS:
            outcome = normalize_response(raw, task)
            if outcome.ok:
                again = normalize_response(outcome.code, task)
                assert again.ok
                assert again.category is outcome.category

