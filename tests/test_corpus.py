"""Corpus loading and mention queries."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplescore.corpus import (
    ABSTRACT,
    FULL_PAGE,
    PageRecord,
    _phrase_pattern,
    _search,
    first_mentioned,
    load_corpus,
    mentions,
    surface_form,
)
from triplescore.errors import DuplicatePersonError, MalformedRecordError


def write_corpus(tmp_path, records, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


def record(abstract="", page="", entities=()):
    return PageRecord(
        person="x", linked_entities=tuple(entities),
        abstract_text=abstract, page_text=page,
    )


class TestLoad:
    def test_single_record_preserves_entity_order(self, tmp_path):
        path = write_corpus(tmp_path, [{
            "person": "albert_einstein",
            "entities": ["physicist", "nobel prize in physics", "germany", "eth zurich"],
            "abstract": "a", "page": "b",
        }])
        corpus = load_corpus(path)
        assert len(corpus) == 1
        rec = corpus.get("Albert Einstein")
        assert rec.linked_entities == (
            "physicist", "nobel prize in physics", "germany", "eth zurich"
        )

    def test_empty_entity_list_is_valid(self, tmp_path):
        corpus = load_corpus(write_corpus(tmp_path, [
            {"person": "a", "entities": [], "abstract": "", "page": ""}
        ]))
        assert corpus.get("a").linked_entities == ()

    def test_duplicate_person(self, tmp_path):
        path = write_corpus(tmp_path, [
            {"person": "Ada", "entities": [], "abstract": "", "page": ""},
            {"person": "ada", "entities": [], "abstract": "", "page": ""},
        ])
        with pytest.raises(DuplicatePersonError) as err:
            load_corpus(path)
        assert err.value.key == "ada"

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"person": "a", "entities": [], "abstract": "", "page": ""}\nnot json\n')
        with pytest.raises(MalformedRecordError) as err:
            load_corpus(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("missing", ["person", "entities", "abstract", "page"])
    def test_missing_field(self, tmp_path, missing):
        rec = {"person": "a", "entities": [], "abstract": "", "page": ""}
        del rec[missing]
        with pytest.raises(MalformedRecordError):
            load_corpus(write_corpus(tmp_path, [rec]))

    def test_entities_must_be_strings(self, tmp_path):
        rec = {"person": "a", "entities": [1], "abstract": "", "page": ""}
        with pytest.raises(MalformedRecordError):
            load_corpus(write_corpus(tmp_path, [rec]))

    def test_absent_person_is_none(self, tmp_path):
        corpus = load_corpus(write_corpus(tmp_path, [
            {"person": "a", "entities": [], "abstract": "", "page": ""}
        ]))
        assert corpus.get("zzz") is None


class TestMentions:
    def test_word_inside_phrase_matches(self):
        rec = record(page="He was a theoretical physicist in Bern.")
        assert mentions(rec, "physicist", FULL_PAGE)

    def test_absent_phrase(self):
        rec = record(page="Aristotle wrote on many subjects.")
        assert not mentions(rec, "basketball player", FULL_PAGE)

    def test_token_boundary_blocks_substring(self):
        rec = record(page="The Artemis temple stood tall.")
        assert not mentions(rec, "art", FULL_PAGE)

    def test_scope_selects_text(self):
        rec = record(abstract="a coder", page="a poet")
        assert mentions(rec, "coder", ABSTRACT)
        assert not mentions(rec, "coder", FULL_PAGE)
        assert mentions(rec, "poet", FULL_PAGE)
        assert not mentions(rec, "poet", ABSTRACT)

    def test_bad_scope(self):
        with pytest.raises(ValueError):
            mentions(record(), "x", "footnotes")

    def test_underscore_key_matches_spaced_text(self):
        rec = record(page="She is a basketball player today.")
        assert mentions(rec, "basketball_player", FULL_PAGE)

    def test_multiple_spaces_in_text(self):
        rec = record(page="a basketball   player")
        assert mentions(rec, "basketball player", FULL_PAGE)

    def test_empty_object_never_matches(self):
        assert not mentions(record(page="anything"), "", FULL_PAGE)

    def test_punctuation_is_boundary(self):
        rec = record(page="poet, coder; pilot.")
        for obj in ("poet", "coder", "pilot"):
            assert mentions(rec, obj, FULL_PAGE)

    def test_underscore_in_text_is_boundary(self):
        # letters and digits are word characters; underscore is not
        assert mentions(record(page="a snake_case word"), "case", FULL_PAGE)
        assert not mentions(record(page="a lowercase word"), "case", FULL_PAGE)

    @given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Zs")), max_size=60))
    @settings(max_examples=60)
    def test_case_insensitive(self, text):
        rec_lower = record(page=text.lower())
        rec_upper = record(page=text.upper())
        for obj in ("poet", "the", "a"):
            assert mentions(rec_lower, obj, FULL_PAGE) == mentions(rec_upper, obj, FULL_PAGE)


# ASCII letters in both cases, with the non-ASCII characters that match or
# lower to ASCII ones under IGNORECASE (long s, Kelvin sign, dotted and
# dotless i), a few other letters, and word boundaries.
PREFILTER_CHARS = "aAbBkKsSiItT1 _-.\t\nſKİıéß"


class TestSearchPrefilter:
    """_search skips the regex only where the bare regex cannot match."""

    @given(st.text(PREFILTER_CHARS, min_size=1, max_size=12),
           st.text(PREFILTER_CHARS, max_size=30), st.text(PREFILTER_CHARS, max_size=30),
           st.data())
    @settings(max_examples=500)
    def test_same_match_as_bare_regex(self, obj, before, after, data):
        phrase = surface_form(obj)
        if not phrase:
            return
        # plant the phrase half the time, in mixed case with whitespace runs
        planted = ""
        if data.draw(st.booleans()):
            for tok in phrase.split():
                cased = "".join(c.upper() if data.draw(st.booleans()) else c for c in tok)
                planted += cased + data.draw(st.sampled_from([" ", "  ", "\t", " \n "]))
        text = before + planted + after
        got = _search(phrase, text, text.lower())
        want = _phrase_pattern(phrase).search(text)
        assert (got and got.span()) == (want and want.span())

    @pytest.mark.parametrize("obj, text", [("sun", "\u017fun"), ("kin", "\u212ain"),
                                           ("in", "\u0130n"), ("\u017fun", "SUN"),
                                           ("Sun", "SUN")])
    def test_non_ascii_phrase_or_text_is_searched(self, obj, text):
        assert mentions(record(page=text), obj, FULL_PAGE) == (
            _phrase_pattern(surface_form(obj)).search(text) is not None)

    def test_absent_token_compiles_nothing(self):
        _phrase_pattern.cache_clear()
        assert not mentions(record(page="a poet and sailor"), "Film Director", FULL_PAGE)
        assert first_mentioned(record(abstract="a poet"), ["painter", "chess player"]) is None
        assert _phrase_pattern.cache_info().misses == 0
        assert mentions(record(page="a Poet and sailor"), "poet", FULL_PAGE)
        assert _phrase_pattern.cache_info().misses == 1


class TestFirstMentioned:
    def test_earliest_offset_wins(self):
        rec = record(abstract="an author and politician")
        assert first_mentioned(rec, ["politician", "author"]) == "author"

    def test_none_mentioned(self):
        rec = record(abstract="an engineer")
        assert first_mentioned(rec, ["author", "politician"]) is None

    def test_longer_match_wins_at_same_offset(self):
        rec = record(abstract="a physicist turned writer.")
        got = first_mentioned(rec, ["physicist", "physicist turned writer"])
        assert got == "physicist_turned_writer"

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            first_mentioned(record(abstract="x"), [])

    def test_searches_abstract_not_page(self):
        rec = record(abstract="a sailor at heart", page="a poet at heart")
        assert first_mentioned(rec, ["poet", "sailor"]) == "sailor"

    def test_result_is_always_mentioned(self, micro):
        corpus = micro["corpus"]
        candidates = list(micro["universe"].objects)
        for person in ("ada", "ben", "cyd"):
            rec = corpus.get(person)
            got = first_mentioned(rec, candidates)
            if got is not None:
                assert mentions(rec, got, ABSTRACT)

    def test_returns_normalized_key(self):
        rec = record(abstract="a basketball player")
        assert first_mentioned(rec, ["Basketball Player"]) == "basketball_player"


class TestSurfaceForm:
    def test_underscores_become_spaces(self):
        assert surface_form("basketball_player") == "basketball player"
        assert surface_form("United States") == "united states"
