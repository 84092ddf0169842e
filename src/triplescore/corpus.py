"""Preprocessed per-person page corpus: linked entities and mention queries.

The corpus file carries precomputed page links and text so runs are
reproducible and offline; no live wiki access happens here.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .embeddings import normalize_key
from .errors import DuplicatePersonError, MalformedRecordError, text_lines


@dataclass(frozen=True)
class PageRecord:
    """One person's page: linked entities in document order, plus text."""

    person: str
    linked_entities: tuple[str, ...]
    abstract_text: str = ""
    page_text: str = ""

    @cached_property
    def linked_keys(self) -> tuple[str, ...]:
        """Normalized keys of the linked entities, computed with
        `normalize_key` on first use: in a run, when `KeyPlan` numbers the
        keys of the records its entities reach."""
        return tuple(map(normalize_key, self.linked_entities))


@dataclass(frozen=True)
class Corpus:
    """Immutable map from normalized person key to PageRecord."""

    records: dict[str, PageRecord] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def get(self, person: str) -> PageRecord | None:
        return self.records.get(normalize_key(person))


def load_corpus(path) -> Corpus:
    """Load a line-delimited JSON corpus.

    Each line is an object with fields "person" (string), "entities"
    (array of strings, document order), "abstract" and "page" (strings).
    The person and each linked entity must have a non-empty normalized key.
    """
    records: dict[str, PageRecord] = {}
    for line_no, line in text_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecordError(path, line_no, f"invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise MalformedRecordError(path, line_no, "record must be a JSON object")
        try:
            person = obj["person"]
            entities = obj["entities"]
            abstract = obj["abstract"]
            page = obj["page"]
        except KeyError as exc:
            raise MalformedRecordError(path, line_no, f"missing field {exc.args[0]!r}") from None
        if not isinstance(person, str) or not person.strip():
            raise MalformedRecordError(path, line_no, "'person' must be a non-empty string")
        if not isinstance(entities, list) or any(not isinstance(e, str) for e in entities):
            raise MalformedRecordError(path, line_no, "'entities' must be an array of strings")
        if not all(map(str.strip, entities)):
            empty = next(e for e in entities if not e.strip())
            raise MalformedRecordError(path, line_no,
                                       f"'entities' must hold non-empty names, got {empty!r}")
        if not isinstance(abstract, str) or not isinstance(page, str):
            raise MalformedRecordError(path, line_no, "'abstract' and 'page' must be strings")
        key = normalize_key(person)
        if key in records:
            raise DuplicatePersonError(key, path)
        records[key] = PageRecord(
            person=key,
            linked_entities=tuple(entities),
            abstract_text=abstract,
            page_text=page,
        )
    return Corpus(records)


def surface_form(key: str) -> str:
    """Matching form of a normalized object key: underscores become spaces."""
    return key.replace("_", " ")


@lru_cache(maxsize=4096)
def _phrase_pattern(phrase: str) -> re.Pattern:
    # Letters/digits are word characters; anything else is a boundary, so
    # "art" does not match inside "Artemis". Whitespace in the phrase
    # matches any whitespace run.
    body = r"\s+".join(re.escape(tok) for tok in phrase.split())
    return re.compile(rf"(?<![^\W_]){body}(?![^\W_])", re.IGNORECASE | re.UNICODE)


def _search(phrase: str, text: str, lowered: str) -> tuple[int, int] | None:
    """(start, end) of the first match of the phrase's pattern in text, or None.

    A phrase without words (the surface form of a key made only of
    underscores) is found in no text; this is the one place that decides it.
    lowered is text.lower(). When phrase and text are both ASCII, the match
    is found without the re module, over lowered: under IGNORECASE an ASCII
    letter matches only its own two cases among ASCII characters, `\\s`
    matches exactly the characters for which str.isspace() holds, and
    `[^\\W_]` exactly those for which str.isalnum() holds. ('s' also matches
    'ſ' and 'k' the Kelvin sign, which is why the text must be ASCII too.)
    Any other phrase or text is searched with the compiled pattern.
    """
    tokens = phrase.lower().split()
    if not tokens:
        return None
    if not (phrase.isascii() and text.isascii()):
        match = _phrase_pattern(phrase).search(text)
        return match.span() if match else None
    first, rest, n = tokens[0], tokens[1:], len(lowered)
    start = lowered.find(first)
    while start >= 0:
        if start == 0 or not lowered[start - 1].isalnum():
            end = start + len(first)
            for tok in rest:
                gap = end
                while gap < n and lowered[gap].isspace():
                    gap += 1
                if gap == end or not lowered.startswith(tok, gap):
                    break
                end = gap + len(tok)
            else:
                if end == n or not lowered[end].isalnum():
                    return start, end
        start = lowered.find(first, start + 1)
    return None


def mentions(record: PageRecord, obj: str) -> bool:
    """Whether the object name's surface form occurs in the record's page text.

    Case-insensitive whole-phrase match, token-boundary delimited.
    """
    phrase, text = surface_form(normalize_key(obj)), record.page_text
    return _search(phrase, text, text.lower()) is not None


def first_mentioned(record: PageRecord, keys: list[str]) -> str | None:
    """Normalized key whose earliest abstract occurrence starts first, or None.

    Offset ties go to the longer match, then to the lexicographically
    smaller key, so the result is deterministic.
    """
    if not keys:
        raise ValueError("candidates must be non-empty")
    best = None  # (start, -match_len, key)
    text = record.abstract_text
    lowered = text.lower()
    for key in keys:
        span = _search(surface_form(key), text, lowered)
        if span is None:
            continue
        rank = (span[0], span[0] - span[1], key)
        if best is None or rank < best:
            best = rank
    return None if best is None else best[2]
