import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dirtree.annotate import Annotation, AnnotationLabel, Gazetteer, annotate
from dirtree.segment import (
    _CONTACT_TOKENS,
    _HEADER_LABELS,
    _RULE_ORDER,
    _first_entity,
    _has_role_or_address,
    _span_geometry,
    EmptyPageError,
    LabeledSpan,
    RULE_COLON_DASH,
    RULE_DEFAULT_BODY,
    RULE_ENTITY_BODY,
    RULE_ENTITY_HEADER,
    RULE_PAGE_FURNITURE,
    RULE_ROLE_ADDRESS,
    RULE_STYLE_BOLD_ITALIC,
    RULE_STYLE_COLOR,
    RULE_STYLE_FAMILY,
    RULE_STYLE_SIZE,
    SpanLabel,
    page_style_stats,
    segment_page,
    size_bin,
    spans_to_json,
)
from dirtree.visual import group_layout, group_text, parse_document

from conftest import doc, group, line, page, parse_page, random_page_dict, seg, text_group

GAZ = Gazetteer.default()

# Plain filler that pins the page's majority style at Serif 10pt black.
BALLAST = text_group(
    "the quick brown prospectus text continues for quite a while longer here",
    0, 600, 580, 610,
)


def run_page(*groups):
    vp = parse_document(doc(page(*groups, BALLAST)))[0]
    return segment_page(vp, annotate(vp, GAZ))


def segment_one(g):
    """Spans of the first group, with ballast fixing the page style."""
    return [s for s in run_page(g) if s.group_index == 0]


def triples(spans):
    return [(s.label, s.fired_rule, s.text) for s in spans]


# --- style statistics ---

def test_stats_char_weighted():
    vp = parse_page(
        text_group("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", 0, 0, 300, 10, size=12.0),
        text_group("bbbbbbbbbb", 0, 20, 100, 30, size=10.0, family="Sans", color=255),
    )
    stats = page_style_stats(vp)
    assert stats.majority_font_size == 12.0
    assert stats.majority_font_family == "Serif"
    assert stats.predominant_color == 0


def test_stats_ties_break_low():
    vp = parse_page(
        text_group("aaaa", 0, 0, 40, 10, size=12.0, family="Times", color=255),
        text_group("bbbb", 0, 20, 40, 30, size=10.0, family="Arial", color=0),
    )
    stats = page_style_stats(vp)
    assert stats.majority_font_size == 10.0
    assert stats.majority_font_family == "Arial"
    assert stats.predominant_color == 0


def test_stats_exclude_furniture():
    vp = parse_page(
        text_group("body text here", 0, 0, 140, 10),
        text_group("a very long running page header banner", 0, 20, 400, 40, header=True, size=20.0),
    )
    assert page_style_stats(vp).majority_font_size == 10.0


def test_stats_empty_page():
    with pytest.raises(EmptyPageError):
        page_style_stats(parse_page(text_group("Page 1", 0, 0, 50, 10, footer=True)))
    with pytest.raises(EmptyPageError):
        page_style_stats(parse_document(doc(page(width=600, height=800)))[0])


def test_size_bin():
    assert size_bin(10.2) == 10.0
    assert size_bin(10.3) == 10.5
    assert size_bin(16.0) == 16.0


# --- cascade branches, one per rule ---

def test_rule_furniture_wins_over_everything():
    spans = segment_one(text_group("Acme Capital S.A.", 0, 0, 160, 10, footer=True))
    assert triples(spans) == [(SpanLabel.NEITHER, RULE_PAGE_FURNITURE, "Acme Capital S.A.")]


def test_rule_entity_body():
    spans = segment_one(text_group("Acme Capital S.A. 14, boulevard Royal", 0, 0, 370, 10))
    assert triples(spans) == [
        (SpanLabel.BODY, RULE_ENTITY_BODY, "Acme Capital S.A. 14, boulevard Royal")
    ]


def test_rule_entity_header():
    spans = segment_one(text_group("Acme Capital S.A.", 0, 0, 160, 10))
    assert triples(spans) == [(SpanLabel.HEADER, RULE_ENTITY_HEADER, "Acme Capital S.A.")]


def test_entity_midway_splits_group():
    spans = segment_one(text_group("123 main street Acme Capital S.A.", 0, 0, 330, 10))
    assert triples(spans) == [
        (SpanLabel.BODY, RULE_DEFAULT_BODY, "123 main street "),
        (SpanLabel.HEADER, RULE_ENTITY_HEADER, "Acme Capital S.A."),
    ]


def test_entity_beats_colon_rule():
    spans = segment_one(text_group("Acme Capital S.A. licensed office:", 0, 0, 340, 10))
    assert triples(spans) == [
        (SpanLabel.BODY, RULE_ENTITY_BODY, "Acme Capital S.A. licensed office:")
    ]


def test_rule_colon_and_dash():
    spans = segment_one(text_group("Fund Overview:", 0, 0, 140, 10))
    assert triples(spans) == [(SpanLabel.HEADER, RULE_COLON_DASH, "Fund Overview:")]
    spans = segment_one(text_group("Fund Overview -", 0, 0, 150, 10))
    assert triples(spans) == [(SpanLabel.HEADER, RULE_COLON_DASH, "Fund Overview -")]


def test_contact_tokens_fall_through():
    for text in ("Tel:", "Fax:", "Email:"):
        spans = segment_one(text_group(text, 0, 0, 60, 10))
        assert triples(spans) == [(SpanLabel.BODY, RULE_DEFAULT_BODY, text)]


def test_only_trailing_token_is_checked():
    spans = segment_one(text_group("Tel: numbers below:", 0, 0, 190, 10))
    assert triples(spans) == [(SpanLabel.HEADER, RULE_COLON_DASH, "Tel: numbers below:")]


def test_rule_role_and_address_type():
    spans = segment_one(text_group("Prime Broker", 0, 0, 120, 10))
    assert triples(spans) == [(SpanLabel.HEADER, RULE_ROLE_ADDRESS, "Prime Broker")]
    spans = segment_one(text_group("Registered Office", 0, 0, 170, 10))
    assert triples(spans) == [(SpanLabel.HEADER, RULE_ROLE_ADDRESS, "Registered Office")]
    # one on-trend mention anywhere in the run labels the whole run
    spans = segment_one(text_group("duties of the Custodian explained", 0, 0, 330, 10))
    assert spans[0].fired_rule == RULE_ROLE_ADDRESS


def test_colon_beats_role():
    spans = segment_one(text_group("Custodian:", 0, 0, 100, 10))
    assert triples(spans) == [(SpanLabel.HEADER, RULE_COLON_DASH, "Custodian:")]


def test_rule_style_color():
    spans = segment_one(text_group("Important Notice", 0, 0, 160, 10, color=255))
    assert triples(spans) == [(SpanLabel.HEADER, RULE_STYLE_COLOR, "Important Notice")]


def test_rule_style_bold_italic():
    spans = segment_one(text_group("Some Words", 0, 0, 100, 10, bold=True))
    assert spans[0].fired_rule == RULE_STYLE_BOLD_ITALIC
    spans = segment_one(text_group("Some Words", 0, 0, 100, 10, italic=True))
    assert spans[0].fired_rule == RULE_STYLE_BOLD_ITALIC


def test_color_checked_before_bold():
    spans = segment_one(text_group("Some Words", 0, 0, 100, 10, bold=True, color=255))
    assert spans[0].fired_rule == RULE_STYLE_COLOR


def test_rule_style_size_uses_half_point_bins():
    spans = segment_one(text_group("Some Words", 0, 0, 100, 10, size=14.0))
    assert spans[0].fired_rule == RULE_STYLE_SIZE
    # rounds into the majority bin: not distinctive
    spans = segment_one(text_group("Some Words", 0, 0, 100, 10, size=10.2))
    assert spans[0].fired_rule == RULE_DEFAULT_BODY
    spans = segment_one(text_group("Some Words", 0, 0, 100, 10, size=10.3))
    assert spans[0].fired_rule == RULE_STYLE_SIZE
    # smaller than the majority is not a header signal
    spans = segment_one(text_group("Some Words", 0, 0, 100, 10, size=8.0))
    assert spans[0].fired_rule == RULE_DEFAULT_BODY


def test_rule_style_family():
    spans = segment_one(text_group("Some Words", 0, 0, 100, 10, family="Sans"))
    assert triples(spans) == [(SpanLabel.HEADER, RULE_STYLE_FAMILY, "Some Words")]


def test_rule_default_body():
    spans = segment_one(text_group("nothing remarkable at all", 0, 0, 250, 10))
    assert triples(spans) == [(SpanLabel.BODY, RULE_DEFAULT_BODY, "nothing remarkable at all")]


# --- dominant style of mixed spans ---

def test_span_style_weighted_by_characters():
    g = group(line(
        seg("Bold", 0, 0, 30, 10, bold=True),
        seg("and quite a lot of plain text", 35, 0, 260, 10),
    ))
    spans = segment_one(g)
    assert triples(spans) == [
        (SpanLabel.BODY, RULE_DEFAULT_BODY, "Bold and quite a lot of plain text")
    ]

    g = group(line(
        seg("Mostly Bold Heading Text", 0, 0, 200, 10, bold=True),
        seg("tail", 205, 0, 230, 10),
    ))
    spans = segment_one(g)
    assert triples(spans) == [
        (SpanLabel.HEADER, RULE_STYLE_BOLD_ITALIC, "Mostly Bold Heading Text tail")
    ]


# --- whitespace handling ---

def test_trailing_whitespace_merges_left():
    g = group(line(
        seg("Acme Capital S.A.", 0, 0, 160, 10),
        seg("  ", 165, 0, 170, 10),
    ))
    spans = segment_one(g)
    assert triples(spans) == [(SpanLabel.HEADER, RULE_ENTITY_HEADER, "Acme Capital S.A.   ")]


def test_leading_whitespace_merges_right():
    g = group(line(
        seg(" ", 0, 0, 4, 10),
        seg("Acme Capital S.A.", 8, 0, 160, 10),
    ))
    spans = segment_one(g)
    assert len(spans) == 1
    assert spans[0].label is SpanLabel.HEADER
    assert spans[0].fired_rule == RULE_ENTITY_HEADER
    assert spans[0].start == 0


def test_whitespace_only_group_reads_as_body():
    spans = segment_one(text_group("   ", 0, 0, 30, 10))
    assert triples(spans) == [(SpanLabel.BODY, RULE_DEFAULT_BODY, "   ")]


# --- page-level behavior ---

def test_segment_page_raises_eagerly_on_empty_page():
    vp = parse_page(text_group("Page 1 of 2", 0, 0, 100, 10, footer=True))
    with pytest.raises(EmptyPageError):
        segment_page(vp, annotate(vp, GAZ))


def test_spans_to_json_shape():
    spans = segment_one(text_group("Fund Overview:", 0, 0, 140, 10))
    out = spans_to_json(3, spans)
    assert out["page"] == 3
    assert out["spans"][0] == {
        "group": 0,
        "start": 0,
        "end": 14,
        "label": "Header",
        "fired_rule": "colon_dash",
        "text": "Fund Overview:",
        "bbox": {"l": 0.0, "t": 0.0, "r": 140.0, "b": 10.0},
    }


def test_fixture_span_snapshot(fig1a_page):
    spans = segment_page(fig1a_page, annotate(fig1a_page, GAZ))
    got = [(s.group_index, s.label, s.fired_rule) for s in spans]
    assert got == [
        (0, SpanLabel.HEADER, RULE_STYLE_BOLD_ITALIC),
        (1, SpanLabel.HEADER, RULE_ROLE_ADDRESS),
        (2, SpanLabel.HEADER, RULE_ROLE_ADDRESS),
        (3, SpanLabel.BODY, RULE_ENTITY_BODY),
        (4, SpanLabel.BODY, RULE_ENTITY_BODY),
        (5, SpanLabel.HEADER, RULE_ROLE_ADDRESS),
        (6, SpanLabel.BODY, RULE_ENTITY_BODY),
        (7, SpanLabel.HEADER, RULE_ROLE_ADDRESS),
        (8, SpanLabel.HEADER, RULE_STYLE_BOLD_ITALIC),
        (9, SpanLabel.HEADER, RULE_STYLE_BOLD_ITALIC),
        (10, SpanLabel.BODY, RULE_DEFAULT_BODY),
        (11, SpanLabel.BODY, RULE_ENTITY_BODY),
        (12, SpanLabel.HEADER, RULE_STYLE_BOLD_ITALIC),
        (13, SpanLabel.BODY, RULE_ENTITY_BODY),
        (14, SpanLabel.NEITHER, RULE_PAGE_FURNITURE),
    ]


def assert_tiling(vp, spans):
    by_group = {}
    for s in spans:
        by_group.setdefault(s.group_index, []).append(s)
    assert set(by_group) == set(range(len(vp.groups)))
    for gi, g in enumerate(vp.groups):
        text = group_text(g)
        group_spans = sorted(by_group[gi], key=lambda s: s.start)
        assert group_spans[0].start == 0
        assert group_spans[-1].end == len(text)
        for a, b in zip(group_spans, group_spans[1:]):
            assert a.end == b.start
            assert a.label is not b.label  # runs are maximal
        for s in group_spans:
            assert s.start < s.end
            assert s.text == text[s.start:s.end]


def test_spans_tile_random_pages():
    for seed in range(120):
        rng = random.Random(seed)
        vp = parse_document(doc(random_page_dict(rng)))[0]
        try:
            spans = segment_page(vp, annotate(vp, GAZ))
        except EmptyPageError:
            continue
        assert_tiling(vp, spans)


# --- run-based cascade against the per-character reference ---
#
# The cascade used to keep a label and a rule per character: entity and
# gap rules painted characters, whitespace leftovers copied a neighbour's
# character, and spans were maximal same-label character runs whose rule
# was the per-character minimum in cascade order.  That design is kept here
# as the reference the run-based one must match on every span field.

def _reference_segment_page(vp, anns):
    stats = page_style_stats(vp)
    spans = []
    for gi, g in enumerate(vp.groups):
        spans.extend(_reference_segment_group(g, anns[gi], stats, gi))
    return spans


def _reference_segment_group(group, anns, stats, gi):
    text = group_text(group)
    layout = group_layout(group)
    n = len(text)
    labels = [None] * n
    rules = [None] * n

    def paint(start, end, label, rule):
        for i in range(start, end):
            if labels[i] is None:
                labels[i] = label
                rules[i] = rule

    if group.is_furniture:
        paint(0, n, SpanLabel.NEITHER, RULE_PAGE_FURNITURE)
    else:
        entity = _first_entity(anns)
        if entity is not None:
            if text[entity.end:].strip():
                paint(entity.start, n, SpanLabel.BODY, RULE_ENTITY_BODY)
            else:
                paint(entity.start, entity.end, SpanLabel.HEADER, RULE_ENTITY_HEADER)
        for start, end in _reference_unlabeled_runs(labels):
            chunk = text[start:end].strip()
            if not chunk:
                continue
            if chunk.endswith((":", "-")):
                if chunk.split()[-1].lower() not in _CONTACT_TOKENS:
                    paint(start, end, SpanLabel.HEADER, RULE_COLON_DASH)
                    continue
            if _has_role_or_address(anns.select(*_HEADER_LABELS), start, end):
                paint(start, end, SpanLabel.HEADER, RULE_ROLE_ADDRESS)
                continue
            _, style = _span_geometry(group, layout, start, end)
            if style.color != stats.predominant_color:
                paint(start, end, SpanLabel.HEADER, RULE_STYLE_COLOR)
            elif style.bold or style.italic:
                paint(start, end, SpanLabel.HEADER, RULE_STYLE_BOLD_ITALIC)
            elif size_bin(style.font_size) > stats.majority_font_size:
                paint(start, end, SpanLabel.HEADER, RULE_STYLE_SIZE)
            elif style.font_family != stats.majority_font_family:
                paint(start, end, SpanLabel.HEADER, RULE_STYLE_FAMILY)
            else:
                paint(start, end, SpanLabel.BODY, RULE_DEFAULT_BODY)
        for start, end in _reference_unlabeled_runs(labels):
            if start > 0:
                paint(start, end, labels[start - 1], rules[start - 1])
            elif end < n:
                paint(start, end, labels[end], rules[end])
        for start, end in _reference_unlabeled_runs(labels):
            paint(start, end, SpanLabel.BODY, RULE_DEFAULT_BODY)

    spans = []
    i = 0
    while i < n:
        j = i
        while j < n and labels[j] is labels[i]:
            j += 1
        rule = min((rules[k] for k in range(i, j)), key=lambda r: _RULE_ORDER[r])
        bbox, style = _span_geometry(group, layout, i, j)
        spans.append(LabeledSpan(
            group_index=gi, start=i, end=j, label=labels[i], text=text[i:j], bbox=bbox,
            style_summary=style, fired_rule=rule,
        ))
        i = j
    return spans


def _reference_unlabeled_runs(labels):
    runs = []
    i = 0
    while i < len(labels):
        if labels[i] is None:
            j = i
            while j < len(labels) and labels[j] is None:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    return runs


# Entity words, colon/dash endings, contact labels, role and address-type
# words, and bare whitespace, so every rule of the cascade gets to fire.
_WORDS = ["Acme", "Capital", "S.A.", "Office:", "Tel:", "email:", "Fax:", "Custodian",
          "Registered", "Agent", "-", "x-", "main", "street", "12,", "notes"]
_STYLES = [{}, {}, {"bold": True}, {"italic": True}, {"color": 255}, {"size": 14.0},
           {"size": 8.0}, {"family": "Sans"}]
_ENTITY_WORDS = ["Acme Capital S.A.", "Deutsche Bank (Suisse) S.A.", "KPMG Luxembourg"]


@st.composite
def _segment_text(draw):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from([" ", "  ", "   "]))
    words = draw(st.lists(st.sampled_from(_WORDS + _ENTITY_WORDS), min_size=1, max_size=4))
    text = " ".join(words)
    return text + draw(st.sampled_from(["", "", " ", "  "]))


@st.composite
def _page_and_annotations(draw):
    groups = []
    for gi in range(draw(st.integers(1, 4))):
        top = 20 + gi * 60
        lines = []
        for li in range(draw(st.integers(1, 2))):
            segs, x = [], 10.0
            for _ in range(draw(st.integers(1, 3))):
                text = draw(_segment_text())
                w = 4.0 * len(text)
                segs.append(seg(text, x, top + li * 14, min(x + w, 600.0), top + li * 14 + 10,
                                **draw(st.sampled_from(_STYLES))))
                x = min(x + w + 3, 590.0)
            lines.append(line(*segs))
        groups.append(group(*lines, footer=draw(st.integers(0, 7)) == 0))
    groups.append(BALLAST)
    vp = parse_document(doc(page(*groups)))[0]
    anns = [a.select(*AnnotationLabel) for a in annotate(vp, GAZ)]
    # Extra annotations on token boundaries put entities at the start, in
    # the middle and at the end of groups, and role mentions in any gap.
    for gi, g in enumerate(vp.groups):
        text = group_text(g)
        cuts = sorted({0, len(text)} | {i for m in re.finditer(r"\S+", text) for i in m.span()})
        for _ in range(draw(st.integers(0, 2))):
            start, end = sorted(draw(st.lists(st.sampled_from(cuts), min_size=2, max_size=2)))
            label = draw(st.sampled_from([AnnotationLabel.ORG, AnnotationLabel.PERSON,
                                          AnnotationLabel.ROLE, AnnotationLabel.GPE]))
            if start < end:
                anns[gi].append(Annotation(label, start, end, text[start:end]))
    return vp, [_Annotations(a, group_text(g)) for a, g in zip(anns, vp.groups)]


class _Annotations:
    """A group's annotations as a plain list, read through ``text`` and
    ``select`` the way segmentation reads ``GroupAnnotations``."""

    def __init__(self, anns, text):
        self.anns, self.text = anns, text

    def select(self, *labels):
        return sorted((a for a in self.anns if a.label in labels),
                      key=lambda a: (a.start, a.end, a.label))


@settings(max_examples=300)
@given(_page_and_annotations())
def test_run_cascade_matches_per_character_reference(case):
    vp, anns = case
    got = segment_page(vp, anns)
    want = _reference_segment_page(vp, anns)
    # Dataclass equality compares every field, text, bbox and style included.
    assert got == want


def _python_calls(fn):
    """Python-level function calls (generator resumptions included) made
    while ``fn`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_segment_calls_do_not_grow_with_text_length():
    counts = []
    for length in (200, 400):
        entity = " Acme Capital S.A."
        filler = ("main street " * length)[:length - len(entity)]
        vp = parse_page(text_group(filler + entity, 0, 0, 590, 10))
        anns = annotate(vp, GAZ)
        spans = segment_page(vp, anns)
        assert len(vp.groups[0].lines[0].segments[0].text) == length
        assert triples(spans)[1] == (SpanLabel.HEADER, RULE_ENTITY_HEADER, "Acme Capital S.A.")
        counts.append(_python_calls(lambda: segment_page(vp, anns)))
    assert counts[0] == counts[1]


def _grid_page(cells, columns=5):
    """A title above ``cells`` entries, each a bold organisation header over
    a two-line address body."""
    groups = [text_group("DIRECTORY OF ADVISERS", 40, 20, 400, 36, size=16.0, bold=True)]
    for i in range(cells):
        left, top = 40 + (i % columns) * 110.0, 60 + (i // columns) * 50.0
        groups.append(text_group("Acme Capital S.A.", left, top, left + 100, top + 10, bold=True))
        groups.append(group(line(seg("12 Main Street", left, top + 14, left + 100, top + 24)),
                            line(seg("London EC2A 1AA", left, top + 26, left + 100, top + 36))))
    return parse_page(*groups, width=640, height=120 + 50 * (cells // columns))


def test_segment_calls_grow_linearly_with_span_count():
    counts = []
    for cells in (112, 225, 450):
        vp = _grid_page(cells)
        anns = annotate(vp, GAZ)
        spans = segment_page(vp, anns)
        assert [s.label for s in spans] == [SpanLabel.HEADER] + [SpanLabel.HEADER, SpanLabel.BODY] * cells
        counts.append(_python_calls(lambda: segment_page(vp, anns)))
    # Doubling the cells at most roughly doubles the work.
    assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1]


@pytest.mark.parametrize("cells", [0, 7, 112])
def test_segment_reads_annotate_output_as_plain_lists(cells, fig1a_page):
    vp = _grid_page(cells) if cells else fig1a_page
    got = segment_page(vp, annotate(vp, GAZ))
    lists = [_Annotations(a.select(*AnnotationLabel), a.text) for a in annotate(vp, GAZ)]
    assert got == _reference_segment_page(vp, lists)
