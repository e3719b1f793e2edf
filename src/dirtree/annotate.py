"""Shallow entity annotation over group text.

Annotation is deliberately lightweight: regular expressions for surface
patterns (emails, phones, dates, amounts, numbers, postcodes) plus a
case-insensitive phrase gazetteer for the vocabulary-driven labels.  No
statistical NER is involved, so recall is bounded by the gazetteer.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from enum import Enum
from functools import cache, cached_property
from typing import NamedTuple

from .jsonin import SchemaError, items, json_path, load_json, string, top
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


# A surface regex is scanned over every group whose label is read, so each
# is written so that ``re`` rejects most positions at their first
# character: a boundary test on the character before a match is made after
# the match's first character (``\d(?<!X\d)`` rather than ``(?<!X)\d``),
# and a boundary shared by every alternative is tested once.

EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")

# A phone is a run of at least 7 digits, allowing +, parentheses, hyphens and
# spaces between them.  Must start and end on +/digit so punctuation around
# the number is not swallowed.
PHONE_RE = re.compile(r"(?:\+\d|\d)[ ()\-]*(?:\d[ ()\-]*){5,}\d")

_MONTHS = (
    "January|February|March|April|May|June|July|August|September|October|"
    "November|December|Jan|Feb|Mar|Apr|Jun|Jul|Aug|Sep|Sept|Oct|Nov|Dec"
)


def _words_after_boundary(words: str, after: str) -> str:
    r"""The regex ``\b(?:words)after``, written as one alternative per first
    letter that begins with its letter: ``_words_after_boundary("Ab|Cd|Ce",
    "X")`` gives ``A(?<!\wA)(?:b)X|C(?<!\wC)(?:d|e)X``.  Each word begins
    with a word character, so the lookbehind is the boundary.  Words of two
    groups never match at one position, so only the order within a group
    can matter, and it is kept."""
    tails: "dict[str, list[str]]" = {}
    for word in words.split("|"):
        tails.setdefault(word[0], []).append(re.escape(word[1:]))
    return "|".join(
        rf"{re.escape(c)}(?<!\w{re.escape(c)})(?:{'|'.join(rest)}){after}"
        for c, rest in tails.items()
    )


# The three digit-led forms, in their order, share the leading digit; a
# month name begins the fourth.
DATE_RE = re.compile(
    r"\d(?<!\w\d)(?:\d?[/.-]\d{1,2}[/.-]\d{2,4}\b"
    r"|\d{3}-\d{2}-\d{2}\b"
    rf"|\d?(?:st|nd|rd|th)?\s+(?:{_MONTHS})\.?,?\s+\d{{4}}\b)|"
    + _words_after_boundary(_MONTHS, r"\.?\s+\d{1,2}(?:st|nd|rd|th)?,?\s+\d{4}\b")
)

# A symbol, or a code (USD, EUR, GBP, CHF, CAD, JPY, HKD, SGD, AUD) as a
# whole word, then an amount.  One leading class holds the symbols and each
# code's first letter, so ``re`` skips to candidates in C; a lookbehind then
# tells which character the class matched, and that no word character comes
# before a code.
CURRENCY_RE = re.compile(
    r"[$€£¥UEGCJHSA](?:(?<=[$€£¥])|(?:(?<=\bU)SD|(?<=\bE)UR|(?<=\bG)BP|(?<=\bC)(?:HF|AD)"
    r"|(?<=\bJ)PY|(?<=\bH)KD|(?<=\bS)GD|(?<=\bA)UD)\b)\s?\d[\d,]*(?:\.\d+)?"
)

# Standalone integer tokens.  Digits glued to letters, decimals, slashes or
# dashes ("4th", "9/11", "L-2449") do not count.
CARDINAL_RE = re.compile(r"\d(?<![\w./\-–]\d)\d*(?![\w./\-–])")

POSTCODE_RE = re.compile(
    r"[A-Z](?<!\w[A-Z])[A-Z]?[\-–]\d{3,5}\b|\d(?<![\w./\-–]\d)\d{4}(?![\w./\-–])"
)


class Annotation(NamedTuple):
    label: AnnotationLabel
    start: int
    end: int
    surface: str


_LEADING_WORD_RE = re.compile(r"\w+")
_TOKEN_RE = re.compile(r"\S+")


def _phrase_pattern(phrase: str) -> str:
    """A phrase's regex, tolerant of run-together whitespace between its
    tokens."""
    return r"\s+".join(re.escape(tok) for tok in phrase.split())


def _ascii_key(phrase: str) -> "str | None":
    """The phrase's leading word (or its first character, when that is a
    symbol) as the lowercase ASCII text that ``re.IGNORECASE`` equates with
    it, or None when no ASCII text does: ``ſ`` folds to ``s`` and ``K``
    (Kelvin) to ``k``, but ``é`` to nothing."""
    m = _LEADING_WORD_RE.match(phrase)
    lead = m.group() if m else phrase[0]
    key = []
    for ch in lead:
        if not ch.isascii():
            ch = _ascii_char(ch)
            if ch is None:
                return None
        key.append(ch.lower())
    return "".join(key)


@cache
def _ascii_char(ch: str) -> "str | None":
    """An ASCII character that ``re.IGNORECASE`` equates with ch, or None."""
    ch_re = re.compile(re.escape(ch), re.IGNORECASE)
    return next((a for a in map(chr, range(128)) if ch_re.fullmatch(a)), None)


class _PhraseIndex:
    """Every phrase of a gazetteer, filed under its first word, in the spirit
    of Aho & Corasick, "Efficient string matching" (CACM 1975).

    ``find`` gives, per phrase list, the spans that one ``finditer`` of the
    list's longest-first alternation would give.  One regex pass finds where
    a phrase may start, each place not after a word character: a whole
    word, a non-ASCII character that is not a word character, or an ASCII
    symbol that leads a phrase.  The keys are each phrase's leading word (or
    symbol) as the lowercase ASCII text that ``re.IGNORECASE`` equates with
    it, and a word or symbol that has such a text is looked up by it.  No
    phrase filed elsewhere can match there, because ``re.IGNORECASE``
    equates an ASCII word character only with word characters and an ASCII
    symbol only with itself, so a phrase that matches at such a whole word
    has that word as its leading word.  Anything else is looked up by its
    first character in a bucket of the phrases with no key whose first
    character ``re.IGNORECASE`` equates with it, filled on first use.  The
    one exception is a word that U+0345 follows: ``re.IGNORECASE`` equates
    that non-word character with ``ι``, so a phrase whose leading word runs
    on with ``ι`` may match there, and the word is looked up by its key and
    by its first character both.

    A key's phrases of one list are tried by one word-boundary guarded,
    case-insensitive alternation, longest first: ``re`` tries alternatives
    left to right, so the first that matches is the longest.  Each list
    keeps its own next allowed position, so a list's matches never overlap.

    Building the index compiles only the word-start pattern, whose size
    does not grow with the gazetteer: each bucket's alternations are
    compiled when a pass first finds its key, so a process pays only for
    the phrases its text can reach.
    """

    def __init__(self, lists: "dict[str, tuple[str, ...]]"):
        self.names = tuple(lists)
        # Key -> {list: its phrases under that key, longest first}.
        self._keyed: "dict[str, dict[int, list[str]]]" = {}
        # Per list: its phrases with no key (and those holding U+0345), longest first.
        self._unkeyed: "list[list[str]]" = [[] for _ in self.names]
        # Per list: all its phrases, longest first.
        self._longest_first = [sorted(phrases, key=len, reverse=True) for phrases in lists.values()]
        for slot, phrases in enumerate(self._longest_first):
            for phrase in phrases:
                key = _ascii_key(phrase)
                if key is not None:
                    self._keyed.setdefault(key, {}).setdefault(slot, []).append(phrase)
                # U+0345 is the one non-word character that re.IGNORECASE
                # equates with word characters (ι, Ι): after a keyed leading
                # word it may match inside a longer text word with no key.
                if key is None or "\u0345" in phrase:
                    self._unkeyed[slot].append(phrase)
        # The buckets of (list, alternation) pairs, each compiled on its first hit.
        self._by_key: "dict[str, tuple[tuple[int, re.Pattern], ...]]" = {}
        self._by_char: "dict[str, tuple[tuple[int, re.Pattern], ...]]" = {}
        self._by_run_on: "dict[tuple[str, str], tuple[tuple[int, re.Pattern], ...]]" = {}
        # A symbol key is an ASCII symbol but "_": the class holds at most 31.
        symbols = "".join(re.escape(k) for k in self._keyed if not _LEADING_WORD_RE.match(k))
        self._start_re = re.compile(
            r"(?<!\w)(?:\w+|[^\x00-\x7f]" + (f"|[{symbols}]" if symbols else "") + ")")

    def _unkeyed_from(self, ch: str) -> "dict[int, list[str]]":
        """Per list, its unkeyed phrases whose first character may be ch."""
        bucket: "dict[int, list[str]]" = {}
        for slot, phrases in enumerate(self._unkeyed):
            for phrase in phrases:
                if re.fullmatch(re.escape(phrase[0]), ch, re.IGNORECASE):
                    bucket.setdefault(slot, []).append(phrase)
        return bucket

    def _char_candidates(self, ch: str) -> "tuple[tuple[int, re.Pattern], ...]":
        """The bucket of unkeyed phrases whose first character may be ch."""
        found = self._by_char.get(ch)
        if found is None:
            found = self._by_char[ch] = _compile_bucket(self._unkeyed_from(ch))
        return found

    def _run_on_candidates(self, key: str, ch: str) -> "tuple[tuple[int, re.Pattern], ...]":
        """The bucket at a word with a key, first character ch, that U+0345
        runs on: a phrase's leading word may run on through it (as ``ι``), so
        the unkeyed phrases of ch join the key's, each list longest first."""
        found = self._by_run_on.get((key, ch))
        if found is None:
            unkeyed, keyed = self._unkeyed_from(ch), self._keyed.get(key, {})
            bucket = {}
            for slot, phrases in enumerate(self._longest_first):
                picked = {*unkeyed.get(slot, ()), *keyed.get(slot, ())}
                if picked:
                    bucket[slot] = [p for p in phrases if p in picked]
            found = self._by_run_on[key, ch] = _compile_bucket(bucket)
        return found

    def find(self, text: str) -> "dict[str, list[tuple[int, int]]]":
        spans: "list[list[tuple[int, int]]]" = [[] for _ in self.names]
        next_allowed = [0] * len(self.names)
        by_key, keyed = self._by_key, self._keyed
        for m in self._start_re.finditer(text):
            word = m[0]
            key = word.lower() if word.isascii() else _ascii_key(word)
            if key is None:
                candidates = self._char_candidates(word[0])
            elif text.startswith("\u0345", m.end()):
                candidates = self._run_on_candidates(key, word[0])
            else:
                candidates = by_key.get(key)
                if candidates is None:
                    if key not in keyed:
                        continue
                    candidates = by_key[key] = _compile_bucket(keyed[key])
            pos = m.start()
            for slot, pattern in candidates:
                if pos >= next_allowed[slot]:
                    hit = pattern.match(text, pos)
                    if hit:
                        spans[slot].append((pos, hit.end()))
                        next_allowed[slot] = hit.end()
        return dict(zip(self.names, spans))


def _compile_bucket(bucket: "dict[int, list[str]]") -> "tuple[tuple[int, re.Pattern], ...]":
    return tuple(
        (slot, re.compile(r"(?<!\w)(?:" + "|".join(map(_phrase_pattern, phrases)) + r")(?!\w)",
                          re.IGNORECASE))
        for slot, phrases in bucket.items())


_WHERE = ("gazetteer: $",)
# The packaged gazetteer, installed as a plain file beside this module.
_DEFAULT_PATH = os.path.join(os.path.dirname(__file__), "data", "gazetteer.json")


#: The longest first word a phrase may have, a documented limit of the
#: gazetteer format.
MAX_FIRST_WORD = 100


class Gazetteer:
    """Phrase lists backing the vocabulary-driven labels, one tuple per name
    in ``_fields``.  Each list is cleaned on construction: phrases are
    stripped and a repeat (up to case and spacing) is dropped.  The lists
    cannot be reassigned, and two gazetteers with the same lists are equal
    and hash alike.

    ``persons`` and ``fac`` are optional extension points; the bundled
    default leaves them empty.
    """

    _fields = ("roles", "address_types", "orgs", "org_suffixes", "gpe", "persons", "fac")

    def __init__(self, roles=(), address_types=(), orgs=(), org_suffixes=(), gpe=(),
                 persons=(), fac=()):
        lists = (roles, address_types, orgs, org_suffixes, gpe, persons, fac)
        for name, phrases in zip(self._fields, lists):
            cleaned = []
            seen = set()
            for i, p in enumerate(phrases):
                if not isinstance(p, str) or not p.strip():
                    raise SchemaError(json_path(_WHERE + (name, i)), "must be a non-empty string")
                first = _LEADING_WORD_RE.match(p.strip())
                if first and len(first[0]) > MAX_FIRST_WORD:
                    raise SchemaError(json_path(_WHERE + (name, i)), "a phrase's first word "
                                      f"is over {MAX_FIRST_WORD} characters long")
                key = " ".join(p.split()).lower()
                if key in seen:
                    continue
                seen.add(key)
                cleaned.append(p.strip())
            object.__setattr__(self, name, tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Gazetteer.{name}")

    def _lists(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._lists() == other._lists()

    def __hash__(self):
        return hash(self._lists())

    @classmethod
    def from_json(cls, data: "bytes | str | dict") -> "Gazetteer":
        data = top(data, _WHERE)
        return cls(**{name: tuple(items(string, data, name, _WHERE, ())) for name in cls._fields})

    @cached_property
    def phrase_index(self) -> _PhraseIndex:
        """The index of every phrase list, built on first use."""
        return _PhraseIndex(dict(zip(self._fields, self._lists())))

    @classmethod
    def load(cls, path: str) -> "Gazetteer":
        return cls.from_json(load_json(path))

    @classmethod
    def default(cls) -> "Gazetteer":
        # Not through ``load``: a timer around both would count the read twice.
        return cls.from_json(load_json(_DEFAULT_PATH))


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


def _suffix_orgs(text: str, suffix_spans: "list[tuple[int, int]]") -> list[tuple[int, int]]:
    """Spans of capitalized runs that terminate in an organization suffix.

    The walk back from a suffix reads the tokens before it, nearest first,
    from a reversed copy of the text: a run of non-space characters reads
    the same either way.  It stops at the token before the previous suffix,
    whose run's first name token is remembered under the token's start, so
    each token is tested once and no token after the last suffix is read.
    """
    if not suffix_spans:
        return []
    n = len(text)
    rev = text[::-1]
    # start of a token before a suffix -> start of the first name token of
    # the qualifying run that ends there, or None when the run has none
    name_start: "dict[int, int | None]" = {}
    spans = []
    for start, end in suffix_spans:
        pos = n - start
        own = _TOKEN_RE.match(rev, pos)  # the suffix's token, before the suffix
        if own:
            pos = own.end()
        before = name = None
        for m in _TOKEN_RE.finditer(rev, pos):
            token_start = n - m.end()
            if before is None:
                before = token_start
            if token_start in name_start:
                if name_start[token_start] is not None:
                    name = name_start[token_start]
                break
            token = m[0][::-1]
            if not _token_qualifies(token):
                break
            if not _is_linker(token):
                name = token_start
        if before is None:
            continue  # no token before the suffix's
        name_start[before] = name
        if name is not None:
            spans.append((name, end))
    return spans


def _dedupe_longest(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Keep the longest of overlapping non-empty spans (the leftmost among
    equals), in start order."""
    starts: list[int] = []
    ends: list[int] = []  # disjoint spans sorted by start are sorted by end too
    for start, end in sorted(spans, key=lambda s: (-(s[1] - s[0]), s[0])):
        i = bisect_left(starts, end)  # spans before i start before this ends
        if i and ends[i - 1] > start:
            continue
        starts.insert(i, start)
        ends.insert(i, end)
    return list(zip(starts, ends))


_SURFACE_RES = (
    (AnnotationLabel.POSTCODE, POSTCODE_RE),
    (AnnotationLabel.CARDINAL, CARDINAL_RE),
    (AnnotationLabel.CURRENCY, CURRENCY_RE),
    (AnnotationLabel.DATE, DATE_RE),
    (AnnotationLabel.PHONE, PHONE_RE),
)


# Every surface label's regex: the five of the table above, and EMAIL.
_SURFACE_SCANS = {**dict(_SURFACE_RES), AnnotationLabel.EMAIL: EMAIL_RE}


# The labels the phrase pass finds, all in one pass.
_PHRASE_LABELS = frozenset(AnnotationLabel).difference(_SURFACE_SCANS)


class GroupAnnotations:
    """One group's annotations, held as each label's spans.

    A label's spans are found the first time something reads it, and kept:
    a surface label's by its regex, a phrase label's by the phrase pass,
    which finds all six phrase labels at once.
    ``spans_of`` and ``has`` read one label, and ``has`` may stop at the
    first match; ``select`` builds the ``Annotation``s of the labels it is
    given, so ``select(*AnnotationLabel)`` is the group's full list.
    """

    __slots__ = ("text", "_gaz", "_spans")

    def __init__(self, text: str, gaz: Gazetteer):
        self.text = text
        self._gaz = gaz
        # label -> its spans, for each label read so far
        self._spans: "dict[AnnotationLabel, list[tuple[int, int]]]" = {}
        if "@" not in text:
            self._spans[AnnotationLabel.EMAIL] = []  # an email needs an "@"

    def spans_of(self, label: AnnotationLabel) -> "list[tuple[int, int]]":
        """The label's (start, end) spans, in order."""
        spans = self._spans.get(label)
        if spans is None:
            if label in _PHRASE_LABELS:
                self._spans.update(_phrase_spans(self.text, self._gaz.phrase_index))
                spans = self._spans[label]
            else:
                spans = self._spans[label] = [
                    m.span() for m in _SURFACE_SCANS[label].finditer(self.text)]
        return spans

    def has(self, label: AnnotationLabel) -> bool:
        """Whether the label occurs.  A surface label whose spans have not
        been read is tested by a search that stops at the first match."""
        spans = self._spans.get(label)
        if spans is not None:
            return bool(spans)
        if label in _PHRASE_LABELS:
            return bool(self.spans_of(label))
        if _SURFACE_SCANS[label].search(self.text):
            return True
        self._spans[label] = []
        return False

    def select(self, *labels: AnnotationLabel) -> "list[Annotation]":
        """The annotations of these labels, sorted by (start, end, label),
        with their surfaces."""
        text = self.text
        found = [(start, end, label) for label in labels for start, end in self.spans_of(label)]
        found.sort()  # a label compares as its value, being a str
        return [Annotation(label, start, end, text[start:end]) for start, end, label in found]


def _phrase_spans(text: str, index: _PhraseIndex) -> "dict[AnnotationLabel, list[tuple[int, int]]]":
    """The phrase labels' spans, each found by a pass of its own because
    labels may overlap one another."""
    phrases = index.find(text)
    # A phrase list's spans, like one regex's, are sorted and disjoint; only
    # ORG, which has two sources, needs the longest of overlapping spans kept.
    orgs = phrases["orgs"]
    suffixed = _suffix_orgs(text, phrases["org_suffixes"])
    if suffixed:
        orgs = _dedupe_longest(orgs + suffixed)
    return {
        AnnotationLabel.ORG: orgs,
        AnnotationLabel.PERSON: phrases["persons"],
        AnnotationLabel.ROLE: phrases["roles"],
        AnnotationLabel.ADDRESS_TYPE: phrases["address_types"],
        AnnotationLabel.GPE: phrases["gpe"],
        AnnotationLabel.FAC: phrases["fac"],
    }


def annotate(page: VisualPage, gaz: Gazetteer) -> "list[GroupAnnotations]":
    """Annotate every group of a page (furniture groups included): one
    ``GroupAnnotations`` per group, in group order.  Nothing is scanned
    here: a group runs the phrase pass when something first reads a phrase
    label, and scans a surface label when something first reads that
    label, so a reader pays only for the labels it asks for.  The
    gazetteer's phrase index is built by the first phrase pass."""
    return [GroupAnnotations(group_text(g), gaz) for g in page.groups]


def is_address_candidate(annotations: GroupAnnotations) -> bool:
    """True when at least two of GPE, POSTCODE and CARDINAL occur: the
    group is a probable address block.

    The labels are asked one by one, GPE (from the phrase pass) first, and
    the test stops once the answer is known: POSTCODE is searched for only
    when it would decide."""
    gpe = annotations.has(AnnotationLabel.GPE)
    if annotations.has(AnnotationLabel.CARDINAL):
        return gpe or annotations.has(AnnotationLabel.POSTCODE)
    return gpe and annotations.has(AnnotationLabel.POSTCODE)
