"""Label group text as Header, Body or Neither with an ordered rule cascade.

Rules fire per group, earlier rules win, and each emitted span records which
rule decided it.  A group is labelled as at most three runs: the first
entity's run and the gaps before and after it, each gap labelled whole.
Whitespace-only runs join a neighbour, adjacent runs with one label merge,
and a merged span's fired_rule is the earliest cascade rule among its runs.
Spans always tile the full group text exactly.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .annotate import Annotation, AnnotationLabel, GroupAnnotations
from .visual import BBox, Group, StyleInfo, VisualPage, group_layout, union_all


class SpanLabel(str, Enum):
    HEADER = "Header"
    BODY = "Body"
    NEITHER = "Neither"


# fired_rule values, in cascade order.
RULE_PAGE_FURNITURE = "page_furniture"
RULE_ENTITY_BODY = "entity_body"
RULE_ENTITY_HEADER = "entity_header"
RULE_COLON_DASH = "colon_dash"
RULE_ROLE_ADDRESS = "role_address"
RULE_STYLE_COLOR = "style_color"
RULE_STYLE_BOLD_ITALIC = "style_bold_italic"
RULE_STYLE_SIZE = "style_size"
RULE_STYLE_FAMILY = "style_family"
RULE_DEFAULT_BODY = "default_body"

_RULE_ORDER = {
    RULE_PAGE_FURNITURE: 0,
    RULE_ENTITY_BODY: 1,
    RULE_ENTITY_HEADER: 1,
    RULE_COLON_DASH: 2,
    RULE_ROLE_ADDRESS: 3,
    RULE_STYLE_COLOR: 4,
    RULE_STYLE_BOLD_ITALIC: 5,
    RULE_STYLE_SIZE: 6,
    RULE_STYLE_FAMILY: 7,
    RULE_DEFAULT_BODY: 8,
}

# Trailing tokens that suppress the colon/dash header rule: a label like
# "Tel:" introduces contact details, not a section.
_CONTACT_TOKENS = frozenset({"tel:", "email:", "fax:"})


class EmptyPageError(ValueError):
    """Page has no text outside page header/footer groups."""


class PageStyleStats(NamedTuple):
    predominant_color: int
    majority_font_size: float  # binned to 0.5pt
    majority_font_family: str


class LabeledSpan(NamedTuple):
    group_index: int
    start: int
    end: int
    label: SpanLabel
    text: str
    bbox: BBox
    style_summary: StyleInfo
    fired_rule: str


def size_bin(size: float) -> float:
    """Font size rounded to the nearest 0.5pt."""
    return round(size * 2) / 2


def page_style_stats(page: VisualPage) -> PageStyleStats:
    """Character-weighted modal color, font size and family of the page.

    Page header/footer groups are excluded.  Ties break toward the smaller
    size, the lexicographically smaller family, the numerically smaller color.
    """
    # Characters per style first: a page has few styles and many segments.
    by_style: "dict[StyleInfo, int]" = {}
    for g in page.groups:
        if g.is_furniture:
            continue
        for line in g.lines:
            for seg in line.segments:
                by_style[seg.style] = by_style.get(seg.style, 0) + len(seg.text)
    if not by_style:
        raise EmptyPageError("page has no text outside header/footer groups")
    colors: "dict[int, int]" = {}
    sizes: "dict[float, int]" = {}
    families: "dict[str, int]" = {}
    for style, weight in by_style.items():
        colors[style.color] = colors.get(style.color, 0) + weight
        size = size_bin(style.font_size)
        sizes[size] = sizes.get(size, 0) + weight
        families[style.font_family] = families.get(style.font_family, 0) + weight

    def mode(counter: dict):
        return min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]

    return PageStyleStats(
        predominant_color=mode(colors),
        majority_font_size=mode(sizes),
        majority_font_family=mode(families),
    )


def _span_geometry(group: Group, layout, start: int, end: int) -> tuple[BBox, StyleInfo]:
    """Bounding box and dominant style of text[start:end] within a group.

    The dominant style is the one covering the most characters of the span;
    ties go to the earlier segment in reading order.
    """
    boxes = []
    weights: dict[StyleInfo, int] = {}  # in order of first appearance
    for seg, s0, s1 in layout:
        overlap = min(end, s1) - max(start, s0)
        if overlap > 0:
            boxes.append(seg.bbox)
            weights[seg.style] = weights.get(seg.style, 0) + overlap
    if not boxes:
        # Span covers only joining whitespace; fall back to the whole group.
        return group.bbox, layout[0][0].style
    # max keeps the first of equal weights, the style met first.
    return union_all(boxes), max(weights, key=weights.__getitem__)


_ENTITY_LABELS = (AnnotationLabel.ORG, AnnotationLabel.PERSON)
_HEADER_LABELS = (AnnotationLabel.ROLE, AnnotationLabel.ADDRESS_TYPE)


def _first_entity(anns: GroupAnnotations):
    """The first entity by (start, end, label): ``select``'s order."""
    candidates = anns.select(*_ENTITY_LABELS)
    return candidates[0] if candidates else None


def _has_role_or_address(marks: "list[Annotation]", start: int, end: int) -> bool:
    """Whether one of a group's ROLE/ADDRESS_TYPE annotations overlaps
    [start, end)."""
    return any(a.start < end and a.end > start for a in marks)


def segment_page(page: VisualPage, anns: "list[GroupAnnotations]") -> list[LabeledSpan]:
    """Apply the rule cascade to every group of an (already classified) page.

    ``anns`` is what ``annotate`` returns for the page, of which only ORG,
    PERSON, ROLE and ADDRESS_TYPE are read.

    Per group: (1) page furniture is Neither; (2) an ORG/PERSON entity with
    text following it turns [entity start, group end] into Body, an entity
    with nothing following becomes a Header on its own; (3) a remaining span
    ending in ':' or '-' is a Header unless its trailing token is a contact
    label; (4) a remaining span containing a role or address-type mention is
    a Header; (5) styling that stands out from the page (color, bold/italic,
    larger size, different family) makes a Header; (6) whatever is left is
    Body.  Rules 3 to 6 label each gap around the entity whole, so a group
    is at most three runs.  A whitespace-only gap takes the label and rule
    of the run before it, or at the start of the group of the run after it;
    an all-whitespace group is Body.  Adjacent runs with one label merge
    into one span whose fired_rule is the earliest cascade rule among them.
    """
    if len(anns) != len(page.groups):
        raise ValueError(
            f"{len(anns)} annotation lists for a page of {len(page.groups)} groups")
    stats = page_style_stats(page)
    spans: list[LabeledSpan] = []
    for gi, group in enumerate(page.groups):
        spans.extend(_segment_group(group, anns[gi], stats, gi))
    return spans


def _segment_group(group, anns, stats: PageStyleStats, gi: int):
    # A run is [start, end, label, rule, geometry]; the geometry, when a
    # style rule computed it, is reused for a span made of that run alone.
    text = anns.text  # the group's text, as annotated
    layout = group_layout(group)
    n = len(text)
    if group.is_furniture:
        runs = [[0, n, SpanLabel.NEITHER, RULE_PAGE_FURNITURE, None]]
    else:
        # The first entity claims one run and leaves at most a gap on
        # either side; rules 3 to 6 label each gap whole.
        runs = [[0, n, None, None, None]]
        entity = _first_entity(anns)
        if entity is not None:
            if text[entity.end:].strip():
                claim = [entity.start, n, SpanLabel.BODY, RULE_ENTITY_BODY, None]
            else:
                claim = [entity.start, entity.end, SpanLabel.HEADER, RULE_ENTITY_HEADER, None]
            runs = [r for r in ([0, claim[0], None, None, None], claim,
                                [claim[1], n, None, None, None]) if r[0] < r[1]]
        gaps = [run for run in runs if run[2] is None]
        if gaps:
            marks = anns.select(*_HEADER_LABELS)
            for run in gaps:
                run[2:] = _gap_rule(group, layout, text, marks, stats, run[0], run[1])
        # A whitespace-only gap joins the run before it, or at the start of
        # the group the run after it; an all-whitespace group is body filler.
        for k, run in enumerate(runs):
            if run[2] is None:
                if k:
                    run[2:4] = runs[k - 1][2:4]
                elif len(runs) > 1:
                    run[2:4] = runs[1][2:4]
                else:
                    run[2:4] = SpanLabel.BODY, RULE_DEFAULT_BODY

    # Adjacent runs with one label merge, keeping the earliest cascade rule.
    merged = []
    for run in runs:
        if merged and merged[-1][2] is run[2]:
            last = merged[-1]
            last[1] = run[1]
            last[3] = min(last[3], run[3], key=_RULE_ORDER.__getitem__)
            last[4] = None
        else:
            merged.append(run)
    spans = []
    for start, end, label, rule, geometry in merged:
        bbox, style = geometry or _span_geometry(group, layout, start, end)
        spans.append(LabeledSpan(gi, start, end, label, text[start:end], bbox, style, rule))
    return spans


def _gap_rule(group, layout, text, marks, stats: PageStyleStats, start: int, end: int):
    """(label, rule, geometry) of rules 3 to 6 for text[start:end], with the
    span's geometry when a style rule computed it, or (None, None, None)
    when the gap is whitespace only."""
    chunk = text[start:end].strip()
    if not chunk:
        return None, None, None
    if chunk.endswith((":", "-")) and chunk.split()[-1].lower() not in _CONTACT_TOKENS:
        return SpanLabel.HEADER, RULE_COLON_DASH, None
    if _has_role_or_address(marks, start, end):
        return SpanLabel.HEADER, RULE_ROLE_ADDRESS, None
    geometry = _span_geometry(group, layout, start, end)
    style = geometry[1]
    if style.color != stats.predominant_color:
        return SpanLabel.HEADER, RULE_STYLE_COLOR, geometry
    if style.bold or style.italic:
        return SpanLabel.HEADER, RULE_STYLE_BOLD_ITALIC, geometry
    if size_bin(style.font_size) > stats.majority_font_size:
        return SpanLabel.HEADER, RULE_STYLE_SIZE, geometry
    if style.font_family != stats.majority_font_family:
        return SpanLabel.HEADER, RULE_STYLE_FAMILY, geometry
    return SpanLabel.BODY, RULE_DEFAULT_BODY, geometry


def spans_to_json(page_index: int, spans: "list[LabeledSpan]") -> dict:
    return {
        "page": page_index,
        "spans": [
            {
                "group": s.group_index,
                "start": s.start,
                "end": s.end,
                "label": s.label.value,
                "fired_rule": s.fired_rule,
                "text": s.text,
                "bbox": s.bbox.to_json(),
            }
            for s in spans
        ],
    }
