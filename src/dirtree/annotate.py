"""Shallow entity annotation over group text.

Annotation is deliberately lightweight: regular expressions for surface
patterns (emails, phones, dates, amounts, numbers, postcodes) plus a
case-insensitive phrase gazetteer for the vocabulary-driven labels.  No
statistical NER is involved, so recall is bounded by the gazetteer.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from importlib import resources

from .visual import VisualPage, group_text


class AnnotationLabel(str, Enum):
    ORG = "ORG"
    PERSON = "PERSON"
    ROLE = "ROLE"
    ADDRESS_TYPE = "ADDRESS_TYPE"
    GPE = "GPE"
    POSTCODE = "POSTCODE"
    CARDINAL = "CARDINAL"
    FAC = "FAC"
    CURRENCY = "CURRENCY"
    DATE = "DATE"
    EMAIL = "EMAIL"
    PHONE = "PHONE"


#: Labels whose co-occurrence in a group marks it as a probable address block.
ADDRESS_INDICATOR_LABELS = frozenset(
    {AnnotationLabel.GPE, AnnotationLabel.POSTCODE, AnnotationLabel.CARDINAL}
)

EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")

# A phone is a run of at least 7 digits, allowing +, parentheses, hyphens and
# spaces between them.  Must start and end on +/digit so punctuation around
# the number is not swallowed.
PHONE_RE = re.compile(r"\+?(?:\d[ ()\-]*){6,}\d")

_MONTHS = (
    "January|February|March|April|May|June|July|August|September|October|"
    "November|December|Jan|Feb|Mar|Apr|Jun|Jul|Aug|Sep|Sept|Oct|Nov|Dec"
)
DATE_RE = re.compile(
    r"\b\d{1,2}[/.-]\d{1,2}[/.-]\d{2,4}\b"
    r"|\b\d{4}-\d{2}-\d{2}\b"
    rf"|\b(?:{_MONTHS})\.?\s+\d{{1,2}}(?:st|nd|rd|th)?,?\s+\d{{4}}\b"
    rf"|\b\d{{1,2}}(?:st|nd|rd|th)?\s+(?:{_MONTHS})\.?,?\s+\d{{4}}\b"
)

CURRENCY_RE = re.compile(
    r"(?:[$€£¥]|\b(?:USD|EUR|GBP|CHF|JPY|HKD|SGD|AUD|CAD)\b)"
    r"\s?\d[\d,]*(?:\.\d+)?"
)

# Standalone integer tokens.  Digits glued to letters, decimals, slashes or
# dashes ("4th", "9/11", "L-2449") do not count.
CARDINAL_RE = re.compile(r"(?<![\w./\-–])\d+(?![\w./\-–])")

POSTCODE_RE = re.compile(
    r"\b[A-Z]{1,2}[\-–]\d{3,5}\b|(?<![\w./\-–])\d{5}(?![\w./\-–])"
)


@dataclass(frozen=True)
class Annotation:
    label: AnnotationLabel
    start: int
    end: int
    surface: str


def _phrase_regex(phrases: tuple[str, ...]) -> "re.Pattern | None":
    """One alternation over all phrases, longest first so the scanner prefers
    the longest match at any position.  Word-boundary guarded, case-insensitive,
    and tolerant of run-together whitespace inside a phrase."""
    if not phrases:
        return None
    parts = []
    for p in sorted(phrases, key=len, reverse=True):
        parts.append(r"\s+".join(re.escape(tok) for tok in p.split()))
    return re.compile(r"(?<!\w)(?:" + "|".join(parts) + r")(?!\w)", re.IGNORECASE)


class GazetteerError(ValueError):
    pass


@dataclass(frozen=True)
class Gazetteer:
    """Phrase lists backing the vocabulary-driven labels.

    ``persons`` and ``fac`` are optional extension points; the bundled
    default leaves them empty.
    """

    roles: tuple[str, ...] = ()
    address_types: tuple[str, ...] = ()
    orgs: tuple[str, ...] = ()
    org_suffixes: tuple[str, ...] = ()
    gpe: tuple[str, ...] = ()
    persons: tuple[str, ...] = ()
    fac: tuple[str, ...] = ()

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            phrases = getattr(self, name)
            cleaned = []
            seen = set()
            for p in phrases:
                if not isinstance(p, str) or not p.strip():
                    raise GazetteerError(f"{name}: phrases must be non-empty strings")
                key = " ".join(p.split()).lower()
                if key in seen:
                    continue
                seen.add(key)
                cleaned.append(p.strip())
            object.__setattr__(self, name, tuple(cleaned))

    @classmethod
    def from_json(cls, data: "bytes | str | dict") -> "Gazetteer":
        if isinstance(data, (bytes, str)):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise GazetteerError("gazetteer file must be a JSON object")
        kwargs = {}
        for name in (f.name for f in fields(cls)):
            value = data.get(name, [])
            if not isinstance(value, list):
                raise GazetteerError(f"{name}: expected a list of phrases")
            kwargs[name] = tuple(value)
        return cls(**kwargs)

    @cached_property
    def patterns(self) -> "dict[str, re.Pattern | None]":
        """One phrase regex per list, compiled on first use."""
        return {f.name: _phrase_regex(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def load(cls, path: str) -> "Gazetteer":
        with open(path, "rb") as f:
            return cls.from_json(f.read())

    @classmethod
    def default(cls) -> "Gazetteer":
        data = resources.files("dirtree").joinpath("data/gazetteer.json").read_bytes()
        return cls.from_json(data)


# Lowercase connective tokens allowed inside a capitalized organization name.
_ORG_LINKERS = frozenset(
    {"of", "de", "du", "des", "der", "den", "van", "von", "la", "le", "les",
     "the", "and", "&", "di", "da", "dos", "for"}
)


def _token_qualifies(token: str) -> bool:
    stripped = token.strip("(),.;:'\"")
    if stripped.lower() in _ORG_LINKERS:
        return True
    for ch in token:
        if ch.isalpha():
            return ch.isupper()
    return False


def _is_linker(token: str) -> bool:
    return token.strip("(),.;:'\"").lower() in _ORG_LINKERS


def _suffix_orgs(text: str, suffix_re: "re.Pattern | None") -> list[tuple[int, int]]:
    """Spans of capitalized runs that terminate in an organization suffix."""
    if suffix_re is None:
        return []
    tokens = [(m.start(), m.end(), m.group()) for m in re.finditer(r"\S+", text)]
    spans = []
    for m in suffix_re.finditer(text):
        i = 0
        while i < len(tokens) and tokens[i][1] <= m.start():
            i += 1
        if i >= len(tokens) or i == 0:
            continue
        j = i - 1
        while j >= 0 and _token_qualifies(tokens[j][2]):
            j -= 1
        k = j + 1
        while k < i and _is_linker(tokens[k][2]):
            k += 1
        if k >= i:
            continue  # no name tokens before the suffix
        spans.append((tokens[k][0], m.end()))
    return spans


def _dedupe_longest(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    chosen: list[tuple[int, int]] = []
    for start, end in sorted(spans, key=lambda s: (-(s[1] - s[0]), s[0])):
        if all(end <= c0 or start >= c1 for c0, c1 in chosen):
            chosen.append((start, end))
    return sorted(chosen)


def _regex_spans(pattern: "re.Pattern | None", text: str) -> list[tuple[int, int]]:
    if pattern is None:
        return []
    return [(m.start(), m.end()) for m in pattern.finditer(text)]


def _annotate_text(text: str, patterns: "dict[str, re.Pattern | None]") -> list[Annotation]:
    out: list[Annotation] = []

    def emit(label: AnnotationLabel, spans: list[tuple[int, int]]):
        for start, end in _dedupe_longest(spans):
            out.append(Annotation(label, start, end, text[start:end]))

    org_spans = _regex_spans(patterns["orgs"], text) + _suffix_orgs(text, patterns["org_suffixes"])
    emit(AnnotationLabel.ORG, org_spans)
    emit(AnnotationLabel.PERSON, _regex_spans(patterns["persons"], text))
    emit(AnnotationLabel.ROLE, _regex_spans(patterns["roles"], text))
    emit(AnnotationLabel.ADDRESS_TYPE, _regex_spans(patterns["address_types"], text))
    emit(AnnotationLabel.GPE, _regex_spans(patterns["gpe"], text))
    emit(AnnotationLabel.FAC, _regex_spans(patterns["fac"], text))
    emit(AnnotationLabel.POSTCODE, _regex_spans(POSTCODE_RE, text))
    emit(AnnotationLabel.CARDINAL, _regex_spans(CARDINAL_RE, text))
    emit(AnnotationLabel.CURRENCY, _regex_spans(CURRENCY_RE, text))
    emit(AnnotationLabel.DATE, _regex_spans(DATE_RE, text))
    emit(AnnotationLabel.EMAIL, _regex_spans(EMAIL_RE, text))
    emit(AnnotationLabel.PHONE, _regex_spans(PHONE_RE, text))
    out.sort(key=lambda a: (a.start, a.end, a.label.value))
    return out


def annotate(page: VisualPage, gaz: Gazetteer) -> "list[list[Annotation]]":
    """Annotate every group of a page (furniture groups included): one list
    per group, in group order."""
    return [_annotate_text(group_text(g), gaz.patterns) for g in page.groups]


def is_address_candidate(annotations: "list[Annotation]") -> bool:
    """True when at least two distinct address-indicator labels occur."""
    labels = {a.label for a in annotations if a.label in ADDRESS_INDICATOR_LABELS}
    return len(labels) >= 2
