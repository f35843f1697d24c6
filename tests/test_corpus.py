"""Corpus parsing, serialization round-trips, and stats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import token_rows
from dravlid.corpus import (
    Dataset,
    compute_stats,
    detect_task,
    parse_corpus,
    parse_corpus_file,
    serialize_corpus,
)
from dravlid.errors import CorpusParseError
from dravlid.fixtures import smoke_corpus_path
from dravlid.taxonomy import Category, TaskLanguage, valid_codes

KN = TaskLanguage.KANNADA
TM = TaskLanguage.TAMIL


class TestParsing:
    def test_labeled_and_bare_lines(self):
        ds = parse_corpus("hello\ten\nmane\n", KN)
        assert len(ds) == 2
        assert ds.golds[0] is Category.ENGLISH
        assert ds.golds[1] is None
        assert ds.surfaces()[1] == "mane"

    def test_sentence_boundaries_reset_token_index(self):
        ds = parse_corpus("a\ten\nb\ten\n\nc\tkn\n", KN)
        positions = [row[2:] for row in token_rows(ds)]
        assert positions == [(0, 0), (0, 1), (1, 0)]

    def test_comments_skipped(self):
        ds = parse_corpus("# header\nword\ten\n", KN)
        assert len(ds) == 1

    def test_crlf_accepted(self):
        unix = parse_corpus("a\ten\n\nb\tkn\n", KN)
        dos = parse_corpus("a\ten\r\n\r\nb\tkn\r\n", KN)
        assert token_rows(dos) == token_rows(unix)

    def test_surface_with_space_survives(self):
        ds = parse_corpus("Taj Mahal\tlocation\n", KN)
        assert ds.surfaces()[0] == "Taj Mahal"

    def test_surfaces_never_case_folded(self):
        ds = parse_corpus("BangaLORE\tlocation\n", KN)
        assert ds.surfaces() == ["BangaLORE"]

    def test_three_fields_rejected_with_line_number(self):
        text = "ok\ten\nbad\ten\textra\n"
        with pytest.raises(CorpusParseError) as excinfo:
            parse_corpus(text, KN)
        assert excinfo.value.line_number == 2
        assert "line 2" in str(excinfo.value)

    def test_unknown_code_rejected_with_line_number(self):
        with pytest.raises(CorpusParseError) as excinfo:
            parse_corpus("x\ten\n\ny\tzz\n", KN)
        assert excinfo.value.line_number == 3

    def test_tamil_codes_rejected_under_kannada(self):
        with pytest.raises(CorpusParseError):
            parse_corpus("veedu\ttm\n", KN)
        assert parse_corpus("veedu\ttm\n", TM).golds[0] is Category.DRAVIDIAN

    @pytest.mark.parametrize("bad", ["bad\ten\textra", "bad\tzz"])
    def test_repeated_malformed_line_reports_its_first_occurrence(self, bad):
        lines = ["a\ten", "b\ten", bad, "a\ten", "", "c\tkn", bad]
        with pytest.raises(CorpusParseError) as excinfo:
            parse_corpus("\n".join(lines) + "\n", KN)
        assert excinfo.value.line_number == 3
        assert "line 3" in str(excinfo.value)

    @pytest.mark.parametrize(
        "line, message",
        [("a\rb\ten", "tab or newline"), ("  \ten", "non-empty"), ("\tkn", "non-empty")],
    )
    def test_bad_surface_rejected_with_line_number(self, line, message):
        with pytest.raises(CorpusParseError, match=message) as excinfo:
            parse_corpus(f"ok\ten\n\n{line}\n", KN)
        assert excinfo.value.line_number == 3
        assert "line 3" in str(excinfo.value)

    def test_file_with_byte_order_mark_parses_like_one_without(self, tmp_path):
        text = "# header\nhello\ten\n\nmane\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert token_rows(parse_corpus_file(marked, KN)) == token_rows(
            parse_corpus_file(plain, KN)
        )

    def test_whitespace_only_line_is_sentence_break(self):
        ds = parse_corpus("a\ten\n   \nb\ten\n", KN)
        assert token_rows(ds)[1][2] == 1


class TestDataset:
    def test_gold_categories_requires_full_labels(self):
        ds = parse_corpus("a\ten\nb\n", KN)
        with pytest.raises(ValueError, match="gold label"):
            ds.gold_categories()

    def test_built_from_columns(self):
        ds = Dataset(KN, ["a", "b", "c"], [Category.ENGLISH, None, Category.SYMBOL], [0, 2, 2])
        assert ds.surfaces() == ["a", "b", "c"]
        assert token_rows(ds) == [
            ("a", Category.ENGLISH, 1, 0),
            ("b", None, 1, 1),
            ("c", Category.SYMBOL, 3, 0),
        ]
        assert serialize_corpus(ds) == "\na\ten\nb\n\n\nc\tsym\n"

    def test_column_lengths_must_match(self):
        with pytest.raises(ValueError, match="differ in length"):
            Dataset(KN, ["a", "b"], [None])


def _reparse(ds: Dataset, task: TaskLanguage) -> Dataset:
    return parse_corpus(serialize_corpus(ds), task, source_path=ds.source_path)


class TestRoundTrip:
    def test_serialized_bytes(self):
        # A leading blank, a run of blanks, a whitespace-only line, CRLF
        # endings and trailing blanks: blanks before a token are kept one for
        # one as LF lines, blanks after the last token are dropped.
        text = "\r\nhello\ten\r\n\r\n\r\nmane\r\n \t \r\nBangalore\tlocation\r\n\r\n  \r\n"
        ds = parse_corpus(text, KN)
        assert serialize_corpus(ds) == "\nhello\ten\n\n\nmane\n\nBangalore\tlocation\n"

    @pytest.mark.parametrize("task", [KN, TM])
    def test_smoke_corpus_round_trip_identity(self, task):
        ds = parse_corpus_file(smoke_corpus_path(task), task)
        again = _reparse(ds, task)
        assert token_rows(again) == token_rows(ds)
        # Serialization itself is a fixed point after one pass.
        assert serialize_corpus(again) == serialize_corpus(ds)

    @given(
        data=st.lists(
            st.one_of(
                st.none(),  # sentence break
                st.tuples(
                    st.text(
                        alphabet=st.characters(
                            codec="utf-8", exclude_characters="\t\n\r"
                        ),
                        min_size=1,
                        max_size=12,
                    ).filter(lambda w: w.strip() and not w.startswith("#")),
                    st.sampled_from(list(valid_codes(KN)) + [None]),
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_random_corpora_round_trip(self, data):
        lines = []
        for row in data:
            if row is None:
                lines.append("")
            elif row[1] is None:
                lines.append(row[0])
            else:
                lines.append(f"{row[0]}\t{row[1]}")
        text = "\n".join(lines) + "\n"
        ds = parse_corpus(text, KN)
        again = _reparse(ds, KN)
        assert token_rows(again) == token_rows(ds)


class TestStats:
    def test_totals_equal_token_count(self):
        ds = parse_corpus_file(smoke_corpus_path(KN), KN)
        stats = compute_stats(ds)
        assert stats.total == len(ds)
        assert sum(stats.per_category.values()) + stats.unlabeled == stats.total

    def test_counts_by_category(self):
        ds = parse_corpus("a\ten\nb\ten\nc\tkn\nd\n", KN)
        stats = compute_stats(ds)
        assert stats.per_category[Category.ENGLISH] == 2
        assert stats.per_category[Category.DRAVIDIAN] == 1
        assert stats.per_category[Category.SYMBOL] == 0
        assert stats.unlabeled == 1

    @given(
        st.lists(st.sampled_from(sorted(valid_codes(KN))), min_size=1, max_size=50)
    )
    def test_stats_conservation_property(self, codes):
        text = "\n".join(f"w{i}\t{code}" for i, code in enumerate(codes)) + "\n"
        stats = compute_stats(parse_corpus(text, KN))
        assert stats.total == len(codes)
        assert sum(stats.per_category.values()) == len(codes)


class TestDetectTask:
    def test_kannada_codes_detected(self):
        assert detect_task("a\ten\nb\tkn\n") is KN

    def test_tamil_codes_detected(self):
        assert detect_task("a\ttmen\n") is TM

    def test_shared_codes_default_to_kannada(self):
        assert detect_task("a\ten\nb\tname\n") is KN

    def test_conflicting_codes_rejected(self):
        with pytest.raises(CorpusParseError):
            detect_task("a\tkn\nb\ttm\n")

    @pytest.mark.parametrize("task", [KN, TM])
    def test_smoke_corpora_detected(self, task):
        text = smoke_corpus_path(task).read_text(encoding="utf-8")
        assert detect_task(text) is task
