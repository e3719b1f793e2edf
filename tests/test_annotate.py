import importlib
import random
import re
import sys
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from dirtree.annotate import (
    EMAIL_RE as _EMAIL_RE,
    _SURFACE_RES,
    GroupAnnotations,
    Annotation,
    AnnotationLabel,
    Gazetteer,
    _dedupe_longest,
    _is_linker,
    _suffix_orgs,
    _token_qualifies,
    annotate,
    is_address_candidate,
)
from dirtree.jsonin import SchemaError

from conftest import address_candidate_reference, parse_page, text_group

# The package exports the function ``annotate`` under the module's name.
annotate_module = importlib.import_module("dirtree.annotate")

GAZ = Gazetteer.default()
_L = AnnotationLabel


def ann(text, gaz=GAZ):
    page = parse_page(text_group(text, 0, 0, 590, 10))
    (group,) = annotate(page, gaz)
    return group


def spans(text, label, gaz=GAZ):
    return [a.surface for a in ann(text, gaz).select(label)]


# --- regex labels ---

def test_email():
    assert spans("Contact info@fund.lu today", AnnotationLabel.EMAIL) == ["info@fund.lu"]
    assert spans("not a@b here", AnnotationLabel.EMAIL) == []


def test_phone_needs_seven_digits():
    assert spans("Tel: +352 26 12 34 56", AnnotationLabel.PHONE) == ["+352 26 12 34 56"]
    assert spans("call 1234567 now", AnnotationLabel.PHONE) == ["1234567"]
    assert spans("room 12 345", AnnotationLabel.PHONE) == []
    # surrounding parentheses are not swallowed
    assert spans("(1234567)", AnnotationLabel.PHONE) == ["1234567"]


def test_dates():
    assert spans("as of 12/31/2021 the", AnnotationLabel.DATE) == ["12/31/2021"]
    assert spans("dated 2021-12-31", AnnotationLabel.DATE) == ["2021-12-31"]
    assert spans("on 1 January 2021", AnnotationLabel.DATE) == ["1 January 2021"]
    assert spans("on January 1, 2021", AnnotationLabel.DATE) == ["January 1, 2021"]
    assert spans("on Jan. 1st, 2021", AnnotationLabel.DATE) == ["Jan. 1st, 2021"]
    # a bare month/day fraction is not a date
    assert spans("Bahnhofquai 9/11, Zurich", AnnotationLabel.DATE) == []


def test_currency_requires_amount():
    assert spans("a fee of EUR 1,000 per year", AnnotationLabel.CURRENCY) == ["EUR 1,000"]
    assert spans("pay €50 now", AnnotationLabel.CURRENCY) == ["€50"]
    assert spans("USD amounts vary", AnnotationLabel.CURRENCY) == []
    assert spans("costs $1.5 less", AnnotationLabel.CURRENCY) == ["$1.5"]


def test_cardinal_standalone_only():
    assert spans("39, Avenue Kennedy", AnnotationLabel.CARDINAL) == ["39"]
    assert spans("L – 1115 Luxemburg", AnnotationLabel.CARDINAL) == ["1115"]
    assert spans("4th Floor", AnnotationLabel.CARDINAL) == []
    assert spans("Bahnhofquai 9/11, Zurich", AnnotationLabel.CARDINAL) == []
    assert spans("L-2449 Luxembourg", AnnotationLabel.CARDINAL) == []


def test_postcodes():
    assert spans("14, boulevard Royal L-2449 LUXEMBOURG", AnnotationLabel.POSTCODE) == ["L-2449"]
    assert spans("Kennedy, L–1855 Luxembourg", AnnotationLabel.POSTCODE) == ["L–1855"]
    assert spans("CH-8023 Zurich", AnnotationLabel.POSTCODE) == ["CH-8023"]
    assert spans("75440 Paris Cedex 09", AnnotationLabel.POSTCODE) == ["75440"]
    assert spans("code 123456 is long", AnnotationLabel.POSTCODE) == []
    assert spans("spaced L – 1115 form", AnnotationLabel.POSTCODE) == []
    assert spans("lowercase l-2449", AnnotationLabel.POSTCODE) == []


# --- gazetteer phrase matching ---

def test_gpe_case_insensitive_surface_preserved():
    assert spans("14, boulevard Royal L-2449 LUXEMBOURG", AnnotationLabel.GPE) == ["LUXEMBOURG"]


def test_word_boundary_guards():
    assert spans("the Parish register", AnnotationLabel.GPE) == []
    assert spans("in Paris today", AnnotationLabel.GPE) == ["Paris"]


def test_longest_phrase_wins():
    assert spans("Grand Duchy of Luxembourg", AnnotationLabel.GPE) == ["Grand Duchy of Luxembourg"]
    assert spans("Sub-Investment Manager", AnnotationLabel.ROLE) == ["Sub-Investment Manager"]


def test_phrase_matches_across_extra_whitespace():
    assert spans("Grand  Duchy of Luxembourg", AnnotationLabel.GPE) == ["Grand  Duchy of Luxembourg"]


def test_roles_and_address_types():
    assert spans("Administrator of the Fund", AnnotationLabel.ROLE) == ["Administrator"]
    assert spans("THE ADMINISTRATOR", AnnotationLabel.ROLE) == ["ADMINISTRATOR"]
    assert spans("Registered Office of the Fund", AnnotationLabel.ADDRESS_TYPE) == ["Registered Office"]


# --- suffix-driven organization spans ---

def test_org_from_suffix_extends_left():
    assert spans("Oddo Asset Management SA", AnnotationLabel.ORG) == ["Oddo Asset Management SA"]


def test_org_stops_at_lowercase_token():
    assert spans("managed daily by Acme Capital S.A. since", AnnotationLabel.ORG) == ["Acme Capital S.A."]


def test_org_crosses_linkers_and_parentheses():
    assert spans("Banque de Commerce S.A.", AnnotationLabel.ORG) == ["Banque de Commerce S.A."]
    assert spans("Deutsche Bank (Suisse) S.A.", AnnotationLabel.ORG) == ["Deutsche Bank (Suisse) S.A."]


def test_org_leading_linker_trimmed():
    assert spans("and Banque Internationale S.A.", AnnotationLabel.ORG) == ["Banque Internationale S.A."]


def test_org_requires_name_tokens():
    assert spans("managed by the S.A. branch", AnnotationLabel.ORG) == []
    assert spans("S.A.", AnnotationLabel.ORG) == []


def test_org_multiword_suffix():
    got = spans("BANQUE DE LUXEMBOURG Société anonyme (public limited company)", AnnotationLabel.ORG)
    assert got == ["BANQUE DE LUXEMBOURG Société anonyme"]


def test_org_and_gpe_coexist():
    out = ann("KPMG Luxembourg Société Coopérative").select(*AnnotationLabel)
    assert [a.surface for a in out if a.label == AnnotationLabel.ORG] == [
        "KPMG Luxembourg Société Coopérative"
    ]
    assert [a.surface for a in out if a.label == AnnotationLabel.GPE] == ["Luxembourg"]


def test_gazetteer_org_list_merges_with_suffix_spans():
    gaz = Gazetteer(orgs=("Acme Capital",), org_suffixes=("S.A.",))
    # the longer suffix-extended span wins over the bare gazetteer hit
    assert spans("Acme Capital S.A.", AnnotationLabel.ORG, gaz) == ["Acme Capital S.A."]
    assert spans("Acme Capital offices", AnnotationLabel.ORG, gaz) == ["Acme Capital"]


# --- page annotation ---

def test_annotations_sorted_by_position():
    out = ann("Custodian Acme Capital S.A. in Luxembourg L-2449").select(*AnnotationLabel)
    keys = [(a.start, a.end, a.label.value) for a in out]
    assert keys == sorted(keys)
    for a in out:
        assert a.surface == "Custodian Acme Capital S.A. in Luxembourg L-2449"[a.start:a.end]


def test_annotate_covers_furniture_groups():
    page = parse_page(
        text_group("Luxembourg Fund", 0, 0, 100, 10),
        text_group("Page 4", 0, 700, 50, 710, footer=True),
    )
    out = annotate(page, GAZ)
    assert len(out) == 2
    assert [(a.label, a.surface) for a in out[1].select(*AnnotationLabel)] == [
        (AnnotationLabel.CARDINAL, "4")]


def test_annotation_is_an_immutable_value():
    a = Annotation(AnnotationLabel.ORG, 3, 9, "KPMG S.A.")
    assert (a.label, a.start, a.end, a.surface) == (AnnotationLabel.ORG, 3, 9, "KPMG S.A.")
    twin = Annotation(label=AnnotationLabel.ORG, start=3, end=9, surface="KPMG S.A.")
    assert twin == a and hash(twin) == hash(a) == hash((a.label, a.start, a.end, a.surface))
    for name in ("label", "start", "end", "surface"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)


def test_is_address_candidate():
    assert is_address_candidate(ann("14, boulevard Royal L-2449 LUXEMBOURG"))
    assert is_address_candidate(ann("L – 1115 Luxemburg"))  # cardinal + gpe
    assert is_address_candidate(ann("75440 Paris"))  # postcode + gpe
    assert not is_address_candidate(ann("Luxembourg"))
    assert not is_address_candidate(ann("room 14 on floor 3"))  # cardinals alone
    assert not is_address_candidate(ann("plain prose with no places"))


def test_fig1a_group_annotations(fig1a_page):
    out = annotate(fig1a_page, GAZ)
    labels0 = {a.label for a in out[0].select(*AnnotationLabel)}
    assert AnnotationLabel.ORG not in labels0 and AnnotationLabel.PERSON not in labels0
    assert [a.surface for a in out[7].select(AnnotationLabel.ROLE)] == [
        "Legal Counsel"
    ]
    body_counts = sum(1 for anns in out if is_address_candidate(anns))
    assert body_counts == 6


# --- gazetteer loading ---

def test_gazetteer_validation():
    with pytest.raises(SchemaError):
        Gazetteer(roles=("", "Custodian"))
    with pytest.raises(SchemaError):
        Gazetteer.from_json({"roles": "Custodian"})
    with pytest.raises(SchemaError):
        Gazetteer.from_json({"roles": [1]})
    with pytest.raises(SchemaError):
        Gazetteer.from_json([1, 2])


def test_gazetteer_dedupes_case_insensitively():
    gaz = Gazetteer(roles=("Custodian", "custodian", " Custodian "))
    assert gaz.roles == ("Custodian",)


def test_gazetteer_is_a_value():
    # Equal after cleaning: equal, one dict key, and the lists stay put.
    a = Gazetteer(roles=("Custodian", " custodian"), gpe=("Luxembourg",))
    b = Gazetteer(("Custodian",), gpe=("Luxembourg", "LUXEMBOURG"))
    assert a == b and hash(a) == hash(b) and len({a: 1, b: 2}) == 1
    assert a != Gazetteer(roles=("Custodian",))
    assert a != tuple(getattr(a, name) for name in Gazetteer._fields)
    for name in Gazetteer._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, ())
    assert a.phrase_index is a.phrase_index


def test_gazetteer_unknown_keys_ignored():
    gaz = Gazetteer.from_json({"roles": ["Custodian"], "comment": "x"})
    assert gaz.roles == ("Custodian",)


def test_gazetteer_load_and_default(tmp_path):
    p = tmp_path / "g.json"
    p.write_text('{"gpe": ["Atlantis"]}')
    gaz = Gazetteer.load(str(p))
    assert gaz.gpe == ("Atlantis",)
    assert gaz.roles == ()

    default = Gazetteer.default()
    assert "Custodian" in default.roles
    assert "Luxembourg" in default.gpe
    assert default.persons == () and default.fac == ()


# --- the phrase index against the alternation scan it replaced ---
#
# Reference copy of the scan ``_annotate_text`` ran before phrases were found
# through a first-word index: the surface regexes as first written, one
# longest-first alternation per phrase list, suffix organisations found by
# rescanning tokens from the start, and every label's spans deduplicated by
# testing each against every kept span.

EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
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
CARDINAL_RE = re.compile(r"(?<![\w./\-–])\d+(?![\w./\-–])")
POSTCODE_RE = re.compile(
    r"\b[A-Z]{1,2}[\-–]\d{3,5}\b|(?<![\w./\-–])\d{5}(?![\w./\-–])"
)


def _phrase_regex_reference(phrases):
    if not phrases:
        return None
    parts = []
    for p in sorted(phrases, key=len, reverse=True):
        parts.append(r"\s+".join(re.escape(tok) for tok in p.split()))
    return re.compile(r"(?<!\w)(?:" + "|".join(parts) + r")(?!\w)", re.IGNORECASE)


def _suffix_orgs_reference(text, suffix_re):
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
            continue
        spans.append((tokens[k][0], m.end()))
    return spans


def _dedupe_longest_reference(spans):
    chosen = []
    for start, end in sorted(spans, key=lambda s: (-(s[1] - s[0]), s[0])):
        if all(end <= c0 or start >= c1 for c0, c1 in chosen):
            chosen.append((start, end))
    return sorted(chosen)


def _regex_spans_reference(pattern, text):
    if pattern is None:
        return []
    return [(m.start(), m.end()) for m in pattern.finditer(text)]


def _annotate_text_reference(text, gaz):
    patterns = {name: _phrase_regex_reference(getattr(gaz, name)) for name in gaz._fields}
    out = []

    def emit(label, spans):
        for start, end in _dedupe_longest_reference(spans):
            out.append(Annotation(label, start, end, text[start:end]))

    org_spans = (_regex_spans_reference(patterns["orgs"], text)
                 + _suffix_orgs_reference(text, patterns["org_suffixes"]))
    emit(AnnotationLabel.ORG, org_spans)
    emit(AnnotationLabel.PERSON, _regex_spans_reference(patterns["persons"], text))
    emit(AnnotationLabel.ROLE, _regex_spans_reference(patterns["roles"], text))
    emit(AnnotationLabel.ADDRESS_TYPE, _regex_spans_reference(patterns["address_types"], text))
    emit(AnnotationLabel.GPE, _regex_spans_reference(patterns["gpe"], text))
    emit(AnnotationLabel.FAC, _regex_spans_reference(patterns["fac"], text))
    emit(AnnotationLabel.POSTCODE, _regex_spans_reference(POSTCODE_RE, text))
    emit(AnnotationLabel.CARDINAL, _regex_spans_reference(CARDINAL_RE, text))
    emit(AnnotationLabel.CURRENCY, _regex_spans_reference(CURRENCY_RE, text))
    emit(AnnotationLabel.DATE, _regex_spans_reference(DATE_RE, text))
    emit(AnnotationLabel.EMAIL, _regex_spans_reference(EMAIL_RE, text))
    emit(AnnotationLabel.PHONE, _regex_spans_reference(PHONE_RE, text))
    out.sort(key=lambda a: (a.start, a.end, a.label.value))
    return out


# Characters that re.IGNORECASE equates although str.lower or str.casefold
# tells them apart (or the reverse: it never equates ß with "ss"), and one
# that is not a word character but is equated with one (U+0345 with ι).
_FOLDS = ("sSſ", "kKK", "iIıİ", "µΜμ", "ßẞ", "ιΙͅ")

# Phrase words share first words ("Alpha", "Sub", "Co"), lead with
# punctuation ("(Lux)", "&", "-Fund"), and hold the characters above.
_PHRASE_WORDS = [
    "Alpha", "Beta", "Limited", "S.A.", "SA", "Co.", "(Lux)", "&", "-Fund",
    "of", "de", "the", "Sub", "Sub-Fund", "Kasse", "Sigma", "Iris", "µ-Cap",
    "Straße", "Strasse", "Zürich", "Coöp", "ſ", "ı", "ιota", "Luxembourg",
    "Custodian",
]
_TEXT_WORDS = _PHRASE_WORDS + [
    "by", "12", "2021", "4th", "12.5", "1,000", "12345", "75440", "L-2449",
    "L–1115", "CH-8023", "EUR 5", "USD 12.50", "$5", "€1,000", "info@fund.lu",
    "+352 26 12 34 56", "+ 1234567", "+123456", "L1234567", "(12) 345-678",
    "1 January 2021", "Jan. 1st, 2021", "12/31/2021", "2021-12-31", "9/11",
    "–", ",", ".", "(", ")", "?",
]
_GAPS = [" ", "  ", "\t", "\n", "\xa0"]
# "" runs words together; the rest are whitespace, punctuation and a
# non-ASCII dash.
_SEPARATORS = ["", " ", " ", "  ", "\t", "\n", "\xa0", ", ", "–", "(", "."]
_CHARACTERS = "".join(_FOLDS) + "Alpha Beta Limited S.A.(&)-–,?+/\xa0 1234567"


def _variants(c):
    for group in _FOLDS:
        if c in group:
            return group
    return c + c.swapcase() if len(c.swapcase()) == 1 else c


def _respell(text, choice):
    """``text`` with each character one of those re.IGNORECASE equates with
    it and each space one of several whitespace runs, chosen by ``choice``
    (0 keeps the text as it is)."""
    if not choice:
        return text
    rng = random.Random(choice)
    return "".join(rng.choice(_GAPS) if c == " " else rng.choice(_variants(c)) for c in text)


def _respelled(texts):
    return st.tuples(st.sampled_from(texts), st.integers(0, 2**32)).map(lambda t: _respell(*t))


@st.composite
def _gazetteer_and_text(draw):
    """A gazetteer of random phrases, and a text either of random characters
    or of words, respelled phrases of the gazetteer, and separators."""
    lists = {
        name: [" ".join(draw(st.lists(st.sampled_from(_PHRASE_WORDS), min_size=1, max_size=3)))
               for _ in range(draw(st.integers(0, 3)))]
        for name in Gazetteer._fields
    }
    gaz = Gazetteer(**{name: tuple(_respell(p, draw(st.integers(0, 2**32))) for p in phrases)
                       for name, phrases in lists.items()})
    if draw(st.integers(0, 4)) == 0:
        return gaz, draw(st.text(alphabet=_CHARACTERS, max_size=60))
    pieces = _respelled(_TEXT_WORDS)
    phrases = sorted({p for phrases in lists.values() for p in phrases})
    if phrases:
        pieces = st.one_of(pieces, _respelled(phrases))
    return gaz, draw(_prose(pieces))


def _prose(pieces):
    return st.lists(st.tuples(pieces, st.sampled_from(_SEPARATORS)), max_size=25).map(
        lambda items: "".join(word + sep for word, sep in items))


@settings(max_examples=300)
@given(case=_gazetteer_and_text())
@example(case=(Gazetteer(roles=("Adminiſtrator",), gpe=("Zürich", "Zurich")),
               "ADMINISTRATOR in ZÜRICH, Zurich and Zürich–Zurich"))
@example(case=(Gazetteer(orgs=("Alpha Beta",), org_suffixes=("Limited", "Beta Limited")),
               "Alpha Beta Limited Alpha Beta LimitedAlpha Beta  Limited"))
@example(case=(Gazetteer(gpe=("ı", "İ", "i"), roles=("(Lux)", "(Lux) Fund")),
               "I i ı İ (Lux)(LUX) Fund (lux)\tfund"))
@example(case=(Gazetteer(fac=("ιota",), gpe=("Co", "Coöp")), "ͅota ͅOTA xͅota ΙOTA COÖP"))
@example(case=(Gazetteer(gpe=("Rich", "Sigma")), "Zürich ΣSigma ſigma"))
@example(case=(Gazetteer(gpe=("someι",)), "some\u0345 x"))
def test_annotate_text_matches_alternation_scan(case):
    gaz, text = case
    assert GroupAnnotations(text, gaz).select(*_L) == _annotate_text_reference(text, gaz)


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 8)).map(lambda s: (s[0], s[0] + s[1]))))
def test_dedupe_longest_matches_all_pairs(spans):
    assert _dedupe_longest(spans) == _dedupe_longest_reference(spans)


@settings(max_examples=300)
@given(text=st.one_of(_prose(_respelled(_TEXT_WORDS)), st.text(alphabet=_CHARACTERS)))
def test_surface_labels_match_alternation_scan(text):
    gaz = Gazetteer(roles=("Custodian",), org_suffixes=("Limited", "S.A."))
    assert GroupAnnotations(text, gaz).select(*_L) == _annotate_text_reference(text, gaz)


# CURRENCY_RE as it was before it began with one character class: an
# alternative per symbol class and per code's first letter, each letter's
# boundary tested after the letter.
_CURRENCY_RE_PER_LETTER = re.compile(
    r"(?:[$€£¥]|U(?<!\wU)(?:SD)\b|E(?<!\wE)(?:UR)\b|G(?<!\wG)(?:BP)\b|C(?<!\wC)(?:HF|AD)\b"
    r"|J(?<!\wJ)(?:PY)\b|H(?<!\wH)(?:KD)\b|S(?<!\wS)(?:GD)\b|A(?<!\wA)(?:UD)\b)"
    r"\s?\d[\d,]*(?:\.\d+)?"
)
# Codes, near-codes and code letters, symbols, amounts, and characters that
# are word characters (or not) on either side of a code.
_CURRENCY_WORDS = [
    "USD", "EUR", "GBP", "CHF", "JPY", "HKD", "SGD", "AUD", "CAD", "US", "CHFX", "xEUR",
    "ÉUR", "_", "$", "€", "£", "¥", "12", "1,000", "0.5", ".5", "S", "A", "U", "C", "é",
]


@settings(max_examples=500)
@given(text=st.one_of(_prose(st.sampled_from(_CURRENCY_WORDS)),
                      st.text(alphabet="$€£¥UEGCJHSADPYBRFKé_ 1,.x\xa0")))
@example(text="USD 5 xUSD 5 _EUR5 €5 CHF1,000.5 CAD 12 ÉUR 3 SGD\xa05 $ 7")
def test_currency_spans_match_per_letter_alternation(text):
    got = [m.span() for m in annotate_module.CURRENCY_RE.finditer(text)]
    assert got == [m.span() for m in _CURRENCY_RE_PER_LETTER.finditer(text)]


def test_ascii_case_classes():
    """The phrase index files an ASCII word only under ASCII keys.  That holds
    because re.IGNORECASE equates an ASCII word character only with word
    characters, and an ASCII non-word character only with itself."""
    everything = "".join(chr(c) for c in range(0x110000) if not 0xD800 <= c < 0xE000)
    word = re.compile(r"\w")
    for a in map(chr, range(128)):
        equal = set(re.compile("[" + re.escape(a) + "]", re.IGNORECASE).findall(everything))
        if word.fullmatch(a):
            assert all(word.fullmatch(c) for c in equal), repr(a)
        else:
            assert equal == {a}, repr(a)


# --- work grows linearly with group length ---

def _calls_annotating(text):
    """Python and builtin calls, by name, made while annotating a one-group
    page, with "all" their total."""
    annotate(parse_page(text_group("warm up", 0, 0, 590, 10)), GAZ)
    page = parse_page(text_group(text, 0, 0, 590, 10))
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code.co_name] += 1
        elif event == "c_call":
            counts[arg.__name__] += 1

    sys.setprofile(profile)
    try:
        annotate(page, GAZ)
    finally:
        sys.setprofile(None)
    counts["all"] = sum(counts.values())
    return counts


# One group of numbers made the ORG/label dedupe quadratic (each span was
# tested against every kept one); repeated suffixed names made the walk back
# from each suffix rescan every earlier token.
@pytest.mark.parametrize("group,n", [
    (lambda n: " ".join(map(str, range(1, n + 1))), 1000),
    (lambda n: "Alpha Beta Limited " * n, 300),
], ids=["numbers", "suffixed_names"])
def test_annotation_calls_linear_in_group_length(group, n):
    small, large = _calls_annotating(group(n)), _calls_annotating(group(2 * n))
    # _token_qualifies: the suffix walk; bisect_left: dedupe overlap probes;
    # match: per-phrase checks.
    for name in ("all", "_token_qualifies", "bisect_left", "match"):
        assert large[name] <= 2.1 * small[name] + 20, (name, small[name], large[name])


# --- count-first annotation against the eager scan it replaced ---
#
# Reference copies of ``_annotate_text`` and ``_suffix_orgs`` as they were
# before annotation became count-first: every group's spans were built into
# sorted ``Annotation`` tuples at once, and the walk back from each suffix
# read tokens from a forward tokenization up to the last suffix.

def _suffix_orgs_forward(text, suffix_spans):
    if not suffix_spans:
        return []
    tokens = [m.span() for m in re.compile(r"\S+").finditer(text, 0, suffix_spans[-1][0] + 1)]
    ends = [end for _, end in tokens]
    run_start = {}
    name_start = {}
    spans = []
    for start, end in suffix_spans:
        i = bisect_right(ends, start)
        if i == 0:
            continue
        j = i - 1
        while j >= 0 and j not in run_start and _token_qualifies(text[slice(*tokens[j])]):
            j -= 1
        r = 0 if j < 0 else run_start.get(j, j + 1)
        run_start[i - 1] = r
        k = name_start.get(r, r)
        while k < i and _is_linker(text[slice(*tokens[k])]):
            k += 1
        name_start[r] = k
        if k >= i:
            continue
        spans.append((tokens[k][0], end))
    return spans


def _annotate_text_eager(text, index):
    phrases = index.find(text)
    by_label = (
        (AnnotationLabel.ORG, _dedupe_longest(
            phrases["orgs"] + _suffix_orgs_forward(text, phrases["org_suffixes"]))),
        (AnnotationLabel.PERSON, phrases["persons"]),
        (AnnotationLabel.ROLE, phrases["roles"]),
        (AnnotationLabel.ADDRESS_TYPE, phrases["address_types"]),
        (AnnotationLabel.GPE, phrases["gpe"]),
        (AnnotationLabel.FAC, phrases["fac"]),
    )
    found = [(start, end, label) for label, spans in by_label for start, end in spans]
    for label, regex in _SURFACE_RES:
        found += [(*m.span(), label) for m in regex.finditer(text)]
    if "@" in text:
        found += [(*m.span(), AnnotationLabel.EMAIL) for m in _EMAIL_RE.finditer(text)]
    found.sort()
    return [Annotation(label, start, end, text[start:end]) for start, end, label in found]


# Capitalised names (some non-ASCII), linkers, lowercase words, suffixes
# (one of them two words long, one led by "&"), entities of every label,
# and text that reverses differently from itself.
_TOKEN_WORDS = [
    "Alpha", "Beta", "KPMG", "Zürich", "Ωmega", "Ärzte", "(Suisse)", "Deutsche", "Bank",
    "of", "de", "the", "and", "&", "van", "OF", "(the)",
    "managed", "by", "daily", "ßtraße", "ı",
    "S.A.", "SA", "Limited", "Ltd", "GmbH", "Société anonyme", "& Co.", "Co.",
    "Custodian", "Administrator", "Registered Office", "Luxembourg", "Jane Doe", "Tower",
    "info@fund.lu", "a@b", "@", "12", "2021", "L-2449", "EUR 1,000", "+352 26 12 34 56",
    "1 January 2021", "9/11", "4th",
]
# "" runs tokens together; the rest are ASCII and Unicode whitespace and
# punctuation.
_TOKEN_SEPARATORS = ["", " ", " ", "  ", " ", "　", "\x1c", "\t", "\n", "-", ",", "(", "."]
_TOKEN_GAZ = Gazetteer(
    orgs=("Alpha Beta", "KPMG", "Deutsche Bank"),
    org_suffixes=("S.A.", "SA", "Limited", "Ltd", "GmbH", "Société anonyme", "& Co.",
                  "Beta Limited"),
    roles=("Custodian", "Administrator"),
    address_types=("Registered Office",),
    gpe=("Luxembourg", "Zürich"),
    persons=("Jane Doe",),
    fac=("Tower",),
)


def _token_rich_text():
    words = st.one_of(st.sampled_from(_TOKEN_WORDS), st.text(
        alphabet="AZaz&.() 　\x1c 1@Ωß", min_size=1, max_size=4))
    return st.lists(st.tuples(words, st.sampled_from(_TOKEN_SEPARATORS)), max_size=30).map(
        lambda items: "".join(word + sep for word, sep in items))


@settings(max_examples=400)
@given(text=_token_rich_text())
@example(text="Alpha Beta Limited Alpha Beta LimitedAlpha Beta　Limited")
@example(text="and of the S.A. Alpha\x1cS.A. Beta-S.A. Co.,Co. & Co.")
def test_built_annotations_match_eager_scan(text):
    index = _TOKEN_GAZ.phrase_index
    suffixes = index.find(text)["org_suffixes"]
    assert _suffix_orgs(text, suffixes) == _suffix_orgs_forward(text, suffixes)
    got = GroupAnnotations(text, _TOKEN_GAZ)
    built = got.select(*_L)
    assert built == _annotate_text_eager(text, index)
    for label in _L:
        assert got.spans_of(label) == [(a.start, a.end) for a in built if a.label == label]


# One read of a GroupAnnotations: a label's presence or spans, the labels
# segmentation selects, the address test, or every label.
_READS = st.one_of(
    st.tuples(st.sampled_from(["has", "spans_of"]), st.sampled_from(list(_L))),
    st.tuples(st.just("select"), st.sampled_from(
        [(_L.ORG, _L.PERSON), (_L.ROLE, _L.ADDRESS_TYPE), (_L.CARDINAL, _L.POSTCODE, _L.GPE)])),
    st.tuples(st.sampled_from(["address", "all"]), st.none()),
)


@settings(max_examples=300)
@given(text=_token_rich_text(), reads=st.lists(_READS, max_size=8))
@example(text="L-2449 Luxembourg 12", reads=[("has", _L.POSTCODE), ("spans_of", _L.POSTCODE)])
@example(text="a@b 12", reads=[("has", _L.EMAIL), ("all", None)])
def test_reads_in_any_order_match_eager_scan(text, reads):
    index = _TOKEN_GAZ.phrase_index
    want = _annotate_text_eager(text, index)
    got = GroupAnnotations(text, _TOKEN_GAZ)
    assert isinstance(got, GroupAnnotations)
    for read, arg in reads:
        if read == "has":
            assert got.has(arg) == any(a.label == arg for a in want)
        elif read == "spans_of":
            assert got.spans_of(arg) == [(a.start, a.end) for a in want if a.label == arg]
        elif read == "select":
            assert got.select(*arg) == [a for a in want if a.label in arg]
        elif read == "address":
            assert is_address_candidate(got) == address_candidate_reference(want)
        else:
            assert got.select(*_L) == want
    assert got.select(*_L) == want


def test_phrase_index_compiles_phrases_on_first_hit(monkeypatch):
    compiled = []
    real = annotate_module._phrase_pattern

    def counting(phrase):
        compiled.append(phrase)
        return real(phrase)

    monkeypatch.setattr(annotate_module, "_phrase_pattern", counting)
    index = Gazetteer(roles=("Custodian", "Chief Custodian"), gpe=("Luxembourg", "Zürich")).phrase_index
    assert compiled == []
    assert index.find("The custodian in Zürich")["roles"] == [(4, 13)]
    # The "custodian" bucket, then the bucket of phrases led by "z" or "Z".
    assert compiled == ["Custodian", "Zürich"]
    index.find("Custodian, Zürich, custodian")
    assert compiled == ["Custodian", "Zürich"]


def test_phrase_index_tries_only_phrases_that_can_match_a_non_ascii_word(monkeypatch):
    # A phrase whose leading word has an ASCII key cannot match at a word
    # with an "é": "Société" may start only "Société ...", and "Coopérative"
    # no phrase of the default gazetteer.
    tried = []
    real = annotate_module._compile_bucket

    class Counting:
        def __init__(self, pattern):
            self.pattern = pattern

        def match(self, text, pos):
            hit = self.pattern.match(text, pos)
            tried.append(text[pos:hit.end()] if hit else None)
            return hit

    monkeypatch.setattr(annotate_module, "_compile_bucket", lambda bucket: tuple(
        (slot, Counting(pattern)) for slot, pattern in real(bucket)))
    found = Gazetteer.default().phrase_index.find("KPMG Luxembourg Société Coopérative")
    assert found["gpe"] == [(5, 15)] and found["org_suffixes"] == [(16, 35)]
    assert tried == ["Luxembourg", "Société Coopérative"]



def test_keyed_phrase_before_u0345_matches_inside_a_word_with_no_key():
    # U+0345 is not a word character but equates with ι, so "Aͅ Fund", keyed
    # by its leading word "A", matches at the text word "Aι", which has no key.
    gaz = Gazetteer(gpe=("Aͅ Fund",))
    for text in ("Aι fund", "aͅ FUND"):
        assert GroupAnnotations(text, gaz).select(*_L) == _annotate_text_reference(text, gaz) != []

def _synthetic_phrases(n):
    """n phrases with n distinct first words: ASCII words, words with a
    non-ASCII letter, and words led by an ASCII symbol."""
    phrases = []
    for i in range(n):
        word = "".join(chr(97 + int(d)) for d in str(i))
        lead = (f"Zü{word}", f"&{word}", f"({word})")[i % 3] if i % 10 == 0 else word.title()
        phrases.append(f"{lead} Capital Partners")
    return tuple(phrases)


@pytest.mark.parametrize("n", [30, 3000])
def test_phrase_index_build_compiles_nothing_that_grows(n, monkeypatch):
    # A pattern of every first word would grow with the gazetteer, and
    # re.compile takes time in proportion to a pattern's length.  The
    # word-start pattern, the longest built, is 79 characters when all 31
    # ASCII symbols that may lead a phrase do.
    compiled = []
    real = re.compile

    def recording(pattern, flags=0):
        compiled.append(pattern)
        return real(pattern, flags)

    monkeypatch.setattr(re, "compile", recording)
    gaz = Gazetteer(orgs=_synthetic_phrases(n), gpe=("Luxembourg", "Zürich"))
    index = gaz.phrase_index
    assert compiled and max(map(len, compiled)) <= 100, max(compiled, key=len)
    monkeypatch.setattr(re, "compile", real)
    text = f"{gaz.orgs[-1]}, {gaz.orgs[0]} and zürich"
    assert index.find(text)["orgs"] == [(0, len(gaz.orgs[-1])), (len(gaz.orgs[-1]) + 2,
                                        len(gaz.orgs[-1]) + 2 + len(gaz.orgs[0]))]
    assert index.find(text)["gpe"] == [(len(text) - 6, len(text))]
