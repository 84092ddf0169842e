"""Corpus loading and mention queries."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplescore.corpus import (
    PageRecord,
    _phrase_pattern,
    _search,
    first_mentioned,
    load_corpus,
    mentions,
    surface_form,
)
from triplescore.embeddings import normalize_key
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

    @pytest.mark.parametrize("name", ["", "   ", "\t"])
    def test_entity_with_an_empty_name_is_named(self, tmp_path, name):
        path = write_corpus(tmp_path, [
            {"person": "a", "entities": ["b"], "abstract": "", "page": ""},
            {"person": "c", "entities": ["d", name, "e"], "abstract": "", "page": ""},
        ])
        with pytest.raises(MalformedRecordError) as err:
            load_corpus(path)
        assert err.value.line_no == 2
        assert str(err.value) == f"{path}:2: 'entities' must hold non-empty names, got {name!r}"

    def test_absent_person_is_none(self, tmp_path):
        corpus = load_corpus(write_corpus(tmp_path, [
            {"person": "a", "entities": [], "abstract": "", "page": ""}
        ]))
        assert corpus.get("zzz") is None


class TestMentions:
    def test_word_inside_phrase_matches(self):
        rec = record(page="He was a theoretical physicist in Bern.")
        assert mentions(rec, "physicist")

    def test_absent_phrase(self):
        rec = record(page="Aristotle wrote on many subjects.")
        assert not mentions(rec, "basketball player")

    def test_token_boundary_blocks_substring(self):
        rec = record(page="The Artemis temple stood tall.")
        assert not mentions(rec, "art")

    def test_scope_selects_text(self):
        rec = record(abstract="a coder", page="a poet")
        assert first_mentioned(rec, ["coder"]) == "coder"
        assert not mentions(rec, "coder")
        assert mentions(rec, "poet")
        assert first_mentioned(rec, ["poet"]) is None

    def test_underscore_key_matches_spaced_text(self):
        rec = record(page="She is a basketball player today.")
        assert mentions(rec, "basketball_player")

    def test_multiple_spaces_in_text(self):
        rec = record(page="a basketball   player")
        assert mentions(rec, "basketball player")

    def test_empty_object_never_matches(self):
        assert not mentions(record(page="anything"), "")

    def test_punctuation_is_boundary(self):
        rec = record(page="poet, coder; pilot.")
        for obj in ("poet", "coder", "pilot"):
            assert mentions(rec, obj)

    def test_underscore_in_text_is_boundary(self):
        # letters and digits are word characters; underscore is not
        assert mentions(record(page="a snake_case word"), "case")
        assert not mentions(record(page="a lowercase word"), "case")

    @given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Zs")), max_size=60))
    @settings(max_examples=60)
    def test_case_insensitive(self, text):
        rec_lower = record(page=text.lower())
        rec_upper = record(page=text.upper())
        for obj in ("poet", "the", "a"):
            assert mentions(rec_lower, obj) == mentions(rec_upper, obj)


# ASCII letters in both cases, with the non-ASCII characters that match or
# lower to ASCII ones under IGNORECASE (long s, Kelvin sign, dotted and
# dotless i), a few other letters, and word boundaries.
PREFILTER_CHARS = "aAbBkKsSiItT1 _-.\t\nſKİıéß"


class TestSearchPrefilter:
    """_search finds the bare regex's match, with or without the regex."""

    @given(st.text(PREFILTER_CHARS, min_size=1, max_size=12),
           st.text(PREFILTER_CHARS, max_size=30), st.text(PREFILTER_CHARS, max_size=30),
           st.data())
    @settings(max_examples=500)
    def test_same_match_as_bare_regex(self, obj, before, after, data):
        phrase = surface_form(normalize_key(obj))
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
        assert got == (want and want.span())

    @pytest.mark.parametrize("obj, text", [("sun", "\u017fun"), ("kin", "\u212ain"),
                                           ("in", "\u0130n"), ("\u017fun", "SUN"),
                                           ("Sun", "SUN")])
    def test_non_ascii_phrase_or_text_is_searched(self, obj, text):
        assert mentions(record(page=text), obj) == (
            _phrase_pattern(surface_form(normalize_key(obj))).search(text) is not None)

    def test_absent_token_compiles_nothing(self):
        # ASCII phrases in ASCII text never reach the regex, matched or not
        _phrase_pattern.cache_clear()
        assert not mentions(record(page="a poet and sailor"), "Film Director")
        assert first_mentioned(record(abstract="a poet"), ["painter", "chess_player"]) is None
        assert mentions(record(page="a Poet and sailor"), "poet")
        assert first_mentioned(record(abstract="a sailor, a poet"), ["poet", "sailor"]) == "sailor"
        assert _phrase_pattern.cache_info().misses == 0
        assert mentions(record(page="a Poet and sailor, caf\u00e9"), "poet")
        assert _phrase_pattern.cache_info().misses == 1


# Every ASCII whitespace character (the ones str.isspace() and the regex's
# \s accept), and characters that are boundaries or word characters.
ASCII_SPACE = "\t\n\x0b\x0c\r \x1c\x1d\x1e\x1f"
ASCII_WORD = "abcABC019_-."


class TestAsciiMatcher:
    """The regex-free ASCII path of _search against the compiled pattern."""

    @given(st.lists(st.text(ASCII_WORD, min_size=1, max_size=4), min_size=1, max_size=3),
           st.text(ASCII_WORD + ASCII_SPACE, max_size=24),
           st.text(ASCII_WORD + ASCII_SPACE, max_size=24), st.data())
    @settings(max_examples=1000)
    def test_same_span_as_compiled_pattern(self, tokens, before, after, data):
        phrase = " ".join(tokens)
        planted = ""
        if data.draw(st.integers(0, 3)):
            # mixed case, whitespace runs between tokens, and neighbours on
            # either side that are a word character, a boundary or nothing
            runs = [data.draw(st.text(ASCII_SPACE, min_size=1, max_size=3))
                    for _ in tokens[1:]]
            cased = ["".join(c.swapcase() if data.draw(st.booleans()) else c for c in tok)
                     for tok in tokens]
            planted = cased[0] + "".join(run + tok for run, tok in zip(runs, cased[1:]))
            neighbour = st.sampled_from(["", "a", "Z", "7", "_", "-", " ", "\x1f"])
            planted = data.draw(neighbour) + planted + data.draw(neighbour)
        text = before + planted + after
        calls = _phrase_pattern.cache_info()
        got = _search(phrase, text, text.lower())
        assert _phrase_pattern.cache_info()[:2] == calls[:2]
        want = _phrase_pattern(phrase).search(text)
        assert got == (want and want.span())

    @pytest.mark.parametrize("phrase, text, span", [
        ("art", "The Artemis temple; ART.", (20, 23)),
        ("basketball player", "a Basketball\x1c\t player", (2, 21)),
        ("case", "a lowercase snake_case", (18, 22)),
        ("1-2", "x1-2 1-2", (5, 8)),
        ("a b", "a  bb a\x0bB", (6, 9)),
        ("a-a", "ba-a-a", (3, 6)),  # starts inside a candidate refused for its left side
        ("poet", "poetry", None),
    ])
    def test_known_spans(self, phrase, text, span):
        assert _search(phrase, text, text.lower()) == span
        want = _phrase_pattern(phrase).search(text)
        assert (want and want.span()) == span


class TestFirstMentioned:
    def test_earliest_offset_wins(self):
        rec = record(abstract="an author and politician")
        assert first_mentioned(rec, ["politician", "author"]) == "author"

    def test_none_mentioned(self):
        rec = record(abstract="an engineer")
        assert first_mentioned(rec, ["author", "politician"]) is None

    def test_longer_match_wins_at_same_offset(self):
        rec = record(abstract="a physicist turned writer.")
        got = first_mentioned(rec, ["physicist", "physicist_turned_writer"])
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
                assert first_mentioned(rec, [got]) == got

    def test_returns_normalized_key(self):
        rec = record(abstract="a basketball player")
        assert first_mentioned(rec, ["basketball_player"]) == "basketball_player"


class TestSurfaceForm:
    def test_underscores_become_spaces(self):
        assert surface_form("basketball_player") == "basketball player"
        assert surface_form("united_states") == "united states"
