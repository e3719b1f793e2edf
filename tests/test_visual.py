import contextlib
import copy
import enum
import gc
import json
import math
import pickle
import sys
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dirtree import visual
from dirtree.jsonin import DeclinedError
from dirtree.visual import (
    BBox,
    GeometryError,
    Group,
    Line,
    SchemaError,
    Segment,
    StyleInfo,
    VisualPage,
    group_layout,
    group_text,
    parse_document,
    union_all,
    v_gap,
    x_overlap,
)

from conftest import (
    doc, faulty_documents, group, json_nodes, line, page, parent_of, parse_page,
    seg, text_group,
)


# --- bbox helpers ---

def test_bbox_dimensions():
    b = BBox(10, 20, 110, 50)
    assert b.width == 100
    assert b.height == 30


def test_union():
    a = BBox(0, 0, 10, 10)
    b = BBox(5, -0, 20, 30)
    assert union_all([a, b]) == BBox(0, 0, 20, 30)
    assert union_all([a, b, BBox(1, 1, 2, 2)]) == BBox(0, 0, 20, 30)
    with pytest.raises(ValueError):
        union_all([])


def test_overlap_and_gap():
    a = BBox(0, 0, 10, 10)
    b = BBox(6, 20, 16, 30)
    assert x_overlap(a, b) == 4
    assert v_gap(a, b) == 10
    assert v_gap(b, a) == -30  # negative when b sits above a's bottom
    assert x_overlap(a, BBox(10, 0, 20, 10)) == 0  # touching edges share nothing


# --- value types ---

_BOX = BBox(1.0, 2.0, 30.0, 12.0)
_STYLE = StyleInfo("Serif", 10.0, True, False, 255)
_SEGMENT = Segment("Fund", _BOX, _STYLE)
_LINE = Line((_SEGMENT,), _BOX)

# Each parsed type, one value of it, and its fields in order.
_VALUES = [
    (_BOX, ("left", "top", "right", "bottom")),
    (_STYLE, ("font_family", "font_size", "bold", "italic", "color")),
    (_SEGMENT, ("text", "bbox", "style")),
    (_LINE, ("segments", "bbox")),
    (Group((_LINE,), _BOX, False, True, 4),
     ("lines", "bbox", "is_page_header", "is_page_footer", "border_sides")),
]


@pytest.mark.parametrize("value, names", _VALUES, ids=lambda v: type(v).__name__)
def test_value_types_hash_as_field_tuples_and_are_immutable(value, names):
    fields = tuple(getattr(value, name) for name in names)
    twin = type(value)(*fields)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value) == hash(fields)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_parsed_groups_pickle_and_copy(fig1a_path):
    pages = parse_document(fig1a_path.read_bytes())  # lines not yet built
    assert pickle.loads(pickle.dumps(pages)) == copy.deepcopy(pages) == pages


def test_group_defaults_and_furniture():
    g = Group((_LINE,), _BOX)
    assert (g.is_page_header, g.is_page_footer, g.border_sides) == (False, False, 0)
    assert not g.is_furniture
    assert Group((_LINE,), _BOX, is_page_footer=True).is_furniture


# --- schema validation ---

def test_missing_pages_key():
    with pytest.raises(SchemaError) as e:
        parse_document({})
    assert e.value.path == "$.pages"


def test_missing_page_field_path():
    with pytest.raises(SchemaError) as e:
        parse_document({"pages": [{"height": 100, "groups": []}]})
    assert e.value.path == "$.pages[0].width"


def test_missing_nested_field_paths():
    p = page(text_group("x", 0, 0, 10, 10))
    del p["groups"][0]["lines"][0]["segments"][0]["style"]["font_size"]
    with pytest.raises(SchemaError) as e:
        parse_document(doc(p))
    assert e.value.path == "$.pages[0].groups[0].lines[0].segments[0].style.font_size"


def test_missing_furniture_flags_rejected():
    p = page(text_group("x", 0, 0, 10, 10))
    del p["groups"][0]["is_page_header"]
    with pytest.raises(SchemaError) as e:
        parse_document(doc(p))
    assert "is_page_header" in e.value.path


def test_wrong_types_rejected():
    p = page(text_group("x", 0, 0, 10, 10))
    p["width"] = "600"
    with pytest.raises(SchemaError):
        parse_document(doc(p))

    p = page(text_group("x", 0, 0, 10, 10))
    p["groups"][0]["lines"][0]["segments"][0]["style"]["bold"] = 1
    with pytest.raises(SchemaError):
        parse_document(doc(p))

    # booleans are not acceptable integers
    p = page(text_group("x", 0, 0, 10, 10))
    p["groups"][0]["lines"][0]["segments"][0]["style"]["color"] = True
    with pytest.raises(SchemaError):
        parse_document(doc(p))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_enabled", "gc_disabled"])
@pytest.mark.parametrize("data, error", [
    (json.dumps(doc(page(text_group("x", 0, 0, 10, 10)))), None),
    ({"pages": [{"height": 100, "groups": []}]}, SchemaError),
    ("{not json", SchemaError),
], ids=["parsed", "bad_page", "bad_json"])
def test_parse_pauses_gc_and_restores_its_state(enabled, data, error, monkeypatch):
    seen = []
    real = visual._parse_page

    def watching(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(visual, "_parse_page", watching)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if error:
            with pytest.raises(error):
                parse_document(data)
        else:
            parse_document(data)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert seen == ([] if data == "{not json" else [False])


def test_invalid_json_text():
    with pytest.raises(SchemaError):
        parse_document("{not json")


@pytest.mark.parametrize(
    "raw",
    ['{"pages": [{"width": %s}]}' % ("9" * 5001), b"\xff\xfe{"],
    ids=["over_digit_limit", "not_utf"],
)
def test_invalid_json_value_errors(raw):
    # json.loads raises plain ValueError / UnicodeDecodeError for these,
    # not JSONDecodeError; both still read as invalid JSON at the root.
    with pytest.raises(SchemaError) as info:
        parse_document(raw)
    assert info.value.path == "$"
    assert str(info.value).startswith("$: invalid JSON: ")


def test_empty_lines_and_segments_rejected():
    p = page(text_group("x", 0, 0, 10, 10))
    p["groups"][0]["lines"][0]["segments"] = []
    with pytest.raises(SchemaError):
        parse_document(doc(p))

    p = page(text_group("x", 0, 0, 10, 10))
    p["groups"][0]["lines"] = []
    with pytest.raises(SchemaError):
        parse_document(doc(p))


def test_unknown_fields_ignored():
    p = page(text_group("x", 0, 0, 10, 10))
    p["producer"] = "scanner"
    p["groups"][0]["z_order"] = 3
    p["groups"][0]["lines"][0]["segments"][0]["style"]["weight"] = 700
    pages = parse_document(doc(p))
    assert len(pages[0].groups) == 1


# --- geometry validation ---

def test_bad_box_edges():
    with pytest.raises(GeometryError):
        parse_page(text_group("x", 20, 0, 10, 10))
    with pytest.raises(GeometryError):
        parse_page(text_group("x", -5, 0, 10, 10))


def test_bad_page_dimensions():
    with pytest.raises(GeometryError):
        parse_document(doc(page(text_group("x", 0, 0, 10, 10), width=0)))


def test_bad_font_size_and_color():
    with pytest.raises(GeometryError):
        parse_page(text_group("x", 0, 0, 10, 10, size=0))
    with pytest.raises(GeometryError):
        parse_page(text_group("x", 0, 0, 10, 10, color=0x1000000))


def test_border_sides_range():
    with pytest.raises(GeometryError):
        parse_page(text_group("x", 0, 0, 10, 10, border=5))
    assert parse_page(text_group("x", 0, 0, 10, 10, border=4)).groups[0].border_sides == 4


def test_empty_segment_text_rejected():
    with pytest.raises(GeometryError):
        parse_page(text_group("", 0, 0, 10, 10))
    # whitespace-only text is legal
    assert parse_page(text_group("   ", 0, 0, 10, 10))


def test_line_bbox_must_match_union():
    p = page(text_group("x", 0, 0, 10, 10))
    p["groups"][0]["lines"][0]["bbox"]["r"] = 11
    p["groups"][0]["bbox"]["r"] = 11
    with pytest.raises(GeometryError) as e:
        parse_document(doc(p))
    assert "line bbox" in str(e.value)


def test_group_bbox_must_match_union():
    p = page(text_group("x", 0, 0, 10, 10))
    p["groups"][0]["bbox"]["b"] = 12
    with pytest.raises(GeometryError) as e:
        parse_document(doc(p))
    assert "group bbox" in str(e.value)


def test_bbox_tolerance_absorbs_float_noise():
    p = page(text_group("x", 0, 0, 10, 10))
    p["groups"][0]["bbox"]["r"] = 10 + 5e-7
    assert parse_document(doc(p))


def test_group_outside_page_rejected():
    with pytest.raises(GeometryError) as e:
        parse_document(doc(page(text_group("x", 0, 790, 10, 805))))
    assert "outside the page" in str(e.value)


def test_table_regions_parsed():
    p = parse_document(doc(page(text_group("x", 0, 0, 10, 10), tables=[
        {"l": 0, "t": 0, "r": 100, "b": 50},
    ])))[0]
    assert p.table_regions == (BBox(0, 0, 100, 50),)


# --- ingestion ordering ---

def test_segments_sorted_left_to_right():
    g = group(line(
        seg("world", 50, 0, 90, 10),
        seg("hello", 0, 0, 40, 10),
    ))
    vp = parse_page(g)
    assert group_text(vp.groups[0]) == "hello world"


def test_lines_sorted_top_to_bottom():
    g = group(
        line(seg("second", 0, 20, 50, 30)),
        line(seg("first", 0, 0, 40, 10)),
    )
    vp = parse_page(g)
    assert group_text(vp.groups[0]) == "first second"


def test_group_layout_offsets():
    g = parse_page(group(
        line(seg("ab", 0, 0, 10, 10), seg("cde", 20, 0, 40, 10)),
        line(seg("f", 0, 20, 10, 30)),
    )).groups[0]
    text = group_text(g)
    assert text == "ab cde f"
    layout = group_layout(g)
    assert [(s, e) for _, s, e in layout] == [(0, 2), (3, 6), (7, 8)]
    for segment, s, e in layout:
        assert text[s:e] == segment.text


def test_int_coordinates_become_floats():
    vp = parse_page(text_group("x", 0, 0, 10, 10))
    assert isinstance(vp.width, float)
    assert isinstance(vp.groups[0].bbox.left, float)


# --- the parser against the parser as first written ---
#
# The reference below is the parser as first written, which formatted every
# value's JSON path before checking it.  The parser must make the same checks
# in the same order: on any document it returns the same pages or raises the
# same error, with the same message and path.  The one change is an integer
# beyond the float range, on which the reference ends in OverflowError and
# the parser raises GeometryError.  Every wrong-type message reads
# ``expected T, got U``.

def _require_reference(obj, key, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


def _number_reference(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected number, got {type(value).__name__}")
    out = float(value)
    if not math.isfinite(out):
        raise GeometryError(f"{path}: coordinates must be finite")
    return out


def _boolean_reference(value, path):
    if not isinstance(value, bool):
        raise SchemaError(path, f"expected boolean, got {type(value).__name__}")
    return value


def _array_reference(value, path):
    if not isinstance(value, list):
        raise SchemaError(path, f"expected array, got {type(value).__name__}")
    return value


def _parse_bbox_reference(obj, path):
    l = _number_reference(_require_reference(obj, "l", path), f"{path}.l")
    t = _number_reference(_require_reference(obj, "t", path), f"{path}.t")
    r = _number_reference(_require_reference(obj, "r", path), f"{path}.r")
    b = _number_reference(_require_reference(obj, "b", path), f"{path}.b")
    if min(l, t, r, b) < 0:
        raise GeometryError(f"{path}: coordinates must be non-negative")
    if l > r or t > b:
        raise GeometryError(f"{path}: box edges out of order (l<=r, t<=b required)")
    return BBox(l, t, r, b)


def _parse_style_reference(obj, path):
    family = _require_reference(obj, "font_family", path)
    if not isinstance(family, str):
        raise SchemaError(f"{path}.font_family", f"expected string, got {type(family).__name__}")
    size = _number_reference(_require_reference(obj, "font_size", path), f"{path}.font_size")
    if size <= 0:
        raise GeometryError(f"{path}.font_size: must be positive")
    color = _require_reference(obj, "color", path)
    if isinstance(color, bool) or not isinstance(color, int):
        raise SchemaError(f"{path}.color", f"expected integer, got {type(color).__name__}")
    if not 0 <= color <= 0xFFFFFF:
        raise GeometryError(f"{path}.color: must fit in 24 bits")
    return StyleInfo(
        font_family=family,
        font_size=size,
        bold=_boolean_reference(_require_reference(obj, "bold", path), f"{path}.bold"),
        italic=_boolean_reference(_require_reference(obj, "italic", path), f"{path}.italic"),
        color=color,
    )


def _parse_segment_reference(obj, path):
    text = _require_reference(obj, "text", path)
    if not isinstance(text, str):
        raise SchemaError(f"{path}.text", f"expected string, got {type(text).__name__}")
    if not text:
        raise GeometryError(f"{path}.text: must be non-empty")
    bbox = _parse_bbox_reference(_require_reference(obj, "bbox", path), f"{path}.bbox")
    style = _parse_style_reference(_require_reference(obj, "style", path), f"{path}.style")
    return Segment(text=text, bbox=bbox, style=style)


def _close_reference(a, b):
    return all(abs(x - y) <= 1e-6 for x, y in
               ((a.left, b.left), (a.top, b.top), (a.right, b.right), (a.bottom, b.bottom)))


def _parse_line_reference(obj, path, page_i, group_i):
    seg_objs = _array_reference(_require_reference(obj, "segments", path), f"{path}.segments")
    if not seg_objs:
        raise SchemaError(f"{path}.segments", "must contain at least one segment")
    segments = [
        _parse_segment_reference(s, f"{path}.segments[{i}]") for i, s in enumerate(seg_objs)
    ]
    segments.sort(key=lambda s: s.bbox.left)
    bbox = _parse_bbox_reference(_require_reference(obj, "bbox", path), f"{path}.bbox")
    if not _close_reference(bbox, union_all([s.bbox for s in segments])):
        raise GeometryError(
            f"page {page_i}, group {group_i}: line bbox does not equal "
            "the union of its segment bboxes"
        )
    return Line(segments=tuple(segments), bbox=bbox)


def _parse_group_reference(obj, path, page_i, group_i):
    line_objs = _array_reference(_require_reference(obj, "lines", path), f"{path}.lines")
    if not line_objs:
        raise SchemaError(f"{path}.lines", "must contain at least one line")
    lines = [
        _parse_line_reference(l, f"{path}.lines[{i}]", page_i, group_i)
        for i, l in enumerate(line_objs)
    ]
    lines.sort(key=lambda l: l.bbox.top)
    bbox = _parse_bbox_reference(_require_reference(obj, "bbox", path), f"{path}.bbox")
    if not _close_reference(bbox, union_all([l.bbox for l in lines])):
        raise GeometryError(
            f"page {page_i}, group {group_i}: group bbox does not equal "
            "the union of its line bboxes"
        )
    border = obj.get("border_sides", 0)
    if isinstance(border, bool) or not isinstance(border, int):
        raise SchemaError(f"{path}.border_sides",
                          f"expected integer, got {type(border).__name__}")
    if not 0 <= border <= 4:
        raise GeometryError(f"page {page_i}, group {group_i}: border_sides must be 0..4")
    return Group(
        lines=tuple(lines),
        bbox=bbox,
        is_page_header=_boolean_reference(
            _require_reference(obj, "is_page_header", path), f"{path}.is_page_header"),
        is_page_footer=_boolean_reference(
            _require_reference(obj, "is_page_footer", path), f"{path}.is_page_footer"),
        border_sides=border,
    )


def _parse_page_reference(obj, path, page_i):
    width = _number_reference(_require_reference(obj, "width", path), f"{path}.width")
    height = _number_reference(_require_reference(obj, "height", path), f"{path}.height")
    if width <= 0 or height <= 0:
        raise GeometryError(f"page {page_i}: page dimensions must be positive")
    regions = [
        _parse_bbox_reference(r, f"{path}.table_regions[{i}]")
        for i, r in enumerate(
            _array_reference(obj.get("table_regions", []), f"{path}.table_regions"))
    ]
    groups = []
    for i, g in enumerate(
            _array_reference(_require_reference(obj, "groups", path), f"{path}.groups")):
        group = _parse_group_reference(g, f"{path}.groups[{i}]", page_i, i)
        box = group.bbox
        if (
            box.left < -1e-6
            or box.top < -1e-6
            or box.right > width + 1e-6
            or box.bottom > height + 1e-6
        ):
            raise GeometryError(f"page {page_i}, group {i}: group bbox extends outside the page")
        groups.append(group)
    return VisualPage(
        width=width, height=height, groups=tuple(groups), table_regions=tuple(regions),
    )


def _parse_document_reference(data):
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc}") from exc
    pages = _array_reference(_require_reference(data, "pages", "$"), "$.pages")
    return [_parse_page_reference(p, f"$.pages[{i}]", i) for i, p in enumerate(pages)]


def _outcome(parse, document):
    try:
        return parse(document)
    except (SchemaError, GeometryError, OverflowError) as exc:
        return type(exc), str(exc), getattr(exc, "path", None)


@settings(max_examples=400)
@given(faulty_documents())
def test_parse_matches_reference_parser(document):
    text = json.dumps(document)
    new = _outcome(parse_document, json.loads(text))
    old = _outcome(_parse_document_reference, json.loads(text))
    if isinstance(old, tuple) and old[0] is OverflowError:
        # An integer beyond the float range; the reference has no error for it.
        assert new[0] is GeometryError and new[1].endswith(": coordinates must be finite")
    else:
        assert new == old
    assert _outcome(parse_document, text) == new


_DROP = object()

# Two faults each, in checks whose order the random documents seldom put
# side by side.
_FAULT_PAIRS = {
    "border_then_header": [(("groups", 0, "border_sides"), 5),
                           (("groups", 0, "is_page_header"), _DROP)],
    "header_then_footer": [(("groups", 0, "is_page_header"), 1),
                           (("groups", 0, "is_page_footer"), _DROP)],
    "size_then_color": [(("groups", 0, "lines", 0, "segments", 0, "style", "font_size"), 0),
                        (("groups", 0, "lines", 0, "segments", 0, "style", "color"), True)],
    "color_then_bold": [(("groups", 0, "lines", 0, "segments", 0, "style", "color"), -1),
                        (("groups", 0, "lines", 0, "segments", 0, "style", "bold"), _DROP)],
    "left_then_top": [(("groups", 0, "bbox", "l"), "x"), (("groups", 0, "bbox", "t"), _DROP)],
    "edges_then_union": [(("groups", 0, "lines", 0, "bbox", "l"), 50),
                         (("groups", 0, "bbox", "r"), 11)],
    "text_then_bbox": [(("groups", 0, "lines", 0, "segments", 0, "text"), ""),
                       (("groups", 0, "lines", 0, "segments", 0, "bbox"), [])],
    "lines_then_bbox": [(("groups", 0, "lines"), []), (("groups", 0, "bbox"), _DROP)],
    "size_then_regions": [(("width",), 0), (("table_regions",), {})],
    "regions_then_groups": [(("table_regions",), [{"l": 1}]), (("groups",), _DROP)],
    "union_then_next_group": [(("groups", 0, "bbox", "b"), 900),
                              (("groups", 1, "lines"), None)],
    "huge_then_missing": [(("height",), 10**400), (("groups",), _DROP)],
    "segment_then_border": [(("groups", 0, "lines", 0, "segments", 0, "bbox", "r"), "x"),
                            (("groups", 0, "border_sides"), 5)],
    "no_segments_then_line_bbox": [(("groups", 0, "lines", 0, "segments"), []),
                                   (("groups", 0, "lines", 0, "bbox"), _DROP)],
    "line_union_then_group_bbox": [(("groups", 0, "lines", 0, "bbox", "r"), 11),
                                   (("groups", 0, "bbox"), _DROP)],
    "second_segment_then_line_box": [(("groups", 0, "lines", 0, "segments"),
                                      [seg("a", 0, 0, 5, 10), seg("b", 5, 0, 10, 10, color=-1)]),
                                     (("groups", 0, "lines", 0, "bbox", "l"), 3)],
}


@pytest.mark.parametrize("edits", list(_FAULT_PAIRS.values()), ids=list(_FAULT_PAIRS))
def test_parse_reports_first_fault_like_reference(edits):
    p = page(text_group("x", 0, 0, 10, 10), text_group("y", 0, 20, 10, 30))
    p["table_regions"] = []
    for where, value in edits:
        if value is _DROP:
            del parent_of(p, where)[where[-1]]
        else:
            parent_of(p, where)[where[-1]] = value
    new = _outcome(parse_document, doc(p))
    old = _outcome(_parse_document_reference, doc(p))
    assert isinstance(new, tuple)
    if old[0] is OverflowError:
        assert new == (GeometryError, "$.pages[0].height: coordinates must be finite", None)
    else:
        assert new == old


# --- the one-pass parse of well-formed groups ---
#
# parse_document reads each group in one pass, which tests each value's
# exact class and range and hands a value that fails to its checked reader:
# a segment to _parse_segment, a line's or group's box to _parse_bbox.  On
# valid documents with JSON integers as well as floats it must return what
# the reference returns, to the type and sign of every number, and only an
# integer beyond the float range may reach a checked reader.


@contextlib.contextmanager
def _checked_reads():
    """A list that collects, while open, the calls of the checked readers
    that the one-pass read falls back to, as (reader, key) pairs.  A table
    region's box, read with an integer key, is not one."""
    calls = []

    def spy(name):
        read = getattr(visual, name)

        def spied(holder, key, where):
            if name == "_parse_segment" or key == "bbox":
                calls.append((name, key))
            return read(holder, key, where)
        return mock.patch.object(visual, name, spied)

    with spy("_parse_segment"), spy("_parse_bbox"):
        yield calls


_MAX = sys.float_info.max
_small = st.one_of(st.integers(0, 700), st.floats(0, 700), st.just(-0.0))
# Each document draws its numbers from one of three ranges: small numbers;
# with the largest float, as a float, as an integer and as the integer one
# past it (both read as the largest float); and with an integer beyond the
# float range as well.
_NEAR_MAX = [_MAX, int(_MAX), int(_MAX) + 1]
_RANGES = [
    (_small, st.integers(1, 40) | st.floats(5e-324, 40)),
    (_small | st.sampled_from(_NEAR_MAX), st.integers(1, 40) | st.sampled_from(_NEAR_MAX)),
    (_small | st.sampled_from(_NEAR_MAX + [2**1024]), st.integers(1, 40) | st.just(2**1024)),
]


def _retyped(draw, value):
    """``value``, or the same number as the other JSON number type."""
    if draw(st.booleans()):
        if isinstance(value, int) and value <= _MAX:
            return float(value)
        if isinstance(value, float) and value.is_integer():
            return int(value)
    return value


def _union_of(draw, boxes):
    return {edge: _retyped(draw, pick(b[edge] for b in boxes))
            for edge, pick in (("l", min), ("t", min), ("r", max), ("b", max))}


@st.composite
def _boxes(draw, coords):
    l, r = sorted([draw(coords), draw(coords)])
    t, b = sorted([draw(coords), draw(coords)])
    return {"l": l, "t": t, "r": r, "b": b}


@st.composite
def _segments(draw, coords, sizes):
    return {
        "text": draw(st.text(min_size=1, max_size=6)),
        "bbox": draw(_boxes(coords)),
        "style": {
            "font_family": draw(st.sampled_from(["Serif", "Times New Roman", ""])),
            "font_size": draw(sizes),
            "bold": draw(st.booleans()),
            "italic": draw(st.booleans()),
            "color": draw(st.integers(0, 0xFFFFFF)),
        },
    }


@st.composite
def _groups(draw, coords, sizes):
    lines = []
    for segments in draw(st.lists(st.lists(_segments(coords, sizes), min_size=1, max_size=3),
                                  min_size=1, max_size=3)):
        lines.append({"bbox": _union_of(draw, [s["bbox"] for s in segments]),
                      "segments": segments})
    out = {"bbox": _union_of(draw, [l["bbox"] for l in lines]),
           "is_page_header": draw(st.booleans()), "is_page_footer": draw(st.booleans()),
           "lines": lines}
    border = draw(st.none() | st.integers(0, 4))
    if border is not None:
        out["border_sides"] = border
    return out


@st.composite
def _valid_documents(draw):
    coords, sizes = draw(st.sampled_from(_RANGES))
    pages = []
    for _ in range(draw(st.integers(1, 2))):
        groups = draw(st.lists(_groups(coords, sizes), max_size=4))
        size = [max([draw(st.integers(1, 800) | st.floats(1, 800))]
                    + [g["bbox"][edge] for g in groups]) for edge in "rb"]
        p = page(*groups, width=_retyped(draw, size[0]), height=_retyped(draw, size[1]))
        if draw(st.booleans()):
            p["table_regions"] = draw(st.lists(_boxes(coords), max_size=2))
        pages.append(p)
    return doc(*pages)


def _beyond_float_range(value):
    return value.__class__ is int and value > _MAX


@settings(max_examples=300)
@given(_valid_documents())
def test_valid_documents_parse_like_reference(document):
    with _checked_reads() as checked:
        new = _outcome(parse_document, document)
    try:
        old = repr(_parse_document_reference(document))
    except OverflowError:
        # The documented difference: an integer beyond the float range.
        assert new[0] is GeometryError and new[1].endswith(": coordinates must be finite")
    else:
        assert repr(parse_document(document)) == old
        assert _outcome(parse_document, json.dumps(document)) == new
    groups = [g for p in document["pages"] for g in p["groups"]]
    if not any(_beyond_float_range(v) for _, v in json_nodes(groups)):
        assert checked == []


# --- group text and lines built on first read ---
#
# A group read in one pass keeps its text and builds its lines the first
# time they are read, so the text must join the segments in the order the
# lines are built: by the float value of each top and left, ties kept in
# JSON order.  Integers that differ but read as one float (2**53 and
# 2**53 + 1, int(_MAX) - 1 and int(_MAX)) are such ties.

_TIE = 2**53


def _tied_document():
    """Segments and lines listed against their raw order but tied as floats."""
    tied_segments = line(seg("a", _TIE + 1, 0, _TIE + 1, 5), seg("b", _TIE, 0, _TIE, 5),
                         seg("c", 1, 0, 2, 5))
    tied_lines = [line(seg(text, 0, top, 5, top)) for text, top in
                  (("x", int(_MAX)), ("y", int(_MAX) - 1), ("z", 7), ("w", _MAX))]
    return doc(page(group(tied_segments), group(*tied_lines), width=_MAX, height=_MAX))


def _built_text(g):
    return " ".join([s.text for line in g.lines for s in line.segments])


@settings(max_examples=300)
@given(_valid_documents())
@example(_tied_document())
def test_group_text_before_lines_matches_built_lines(document):
    data = json.dumps(document)
    try:
        text_first = parse_document(data)
    except GeometryError:
        assert any(_beyond_float_range(v) for _, v in json_nodes(document))
        return
    lines_first = parse_document(data)
    for p, q in zip(text_first, lines_first, strict=True):
        for g, h in zip(p.groups, q.groups, strict=True):
            h.lines
            text = group_text(g)
            assert text == _built_text(g) == group_text(h)
            assert g == h and hash(g) == hash(h) and repr(g) == repr(h)


def test_tied_coordinates_keep_json_order():
    with _checked_reads() as checked:
        tied_segments, tied_lines = parse_document(json.dumps(_tied_document()))[0].groups
    assert checked == []  # no value of either group failed the one-pass test
    assert group_text(tied_segments) == "c a b"
    assert group_text(tied_lines) == "z x y w"
    assert [_built_text(g) for g in (tied_segments, tied_lines)] == ["c a b", "z x y w"]


def test_parsed_dict_does_not_reach_the_groups():
    # The caller's object may change after the call; groups read from it
    # are built before parse_document returns.
    document = _tied_document()
    (parsed,) = parse_document(document)
    document["pages"][0]["groups"][0]["lines"][0]["segments"][0]["text"] = ""
    assert [_built_text(g) for g in parsed.groups] == ["c a b", "z x y w"]


def _narrative_page():
    """Shaped like a benchmark prospectus page: float boxes, an integer font
    size, paragraphs of several lines and a page footer."""
    groups, top = [], 60.0
    for k in range(4):
        groups.append(group(*(
            line(seg(f"Paragraph {k}, line {i}, of running prose.", 72.0, top + 12.0 * i,
                     72.0 + 5.5 * 38, top + 12.0 * i + 10.0, family="Times New Roman", size=10))
            for i in range(5))))
        top += 70.0
    groups.append(text_group("Page 3", 280.0, 780.0, 310.0, 790.0, size=10, footer=True))
    return page(*groups, width=595.0, height=842.0)


def _grid_page():
    """Bold titles over two-line bodies on a grid at a half-point offset."""
    groups = [text_group("DIRECTORY", 50.5, 55.5, 140.5, 75.5, size=16, bold=True)]
    for i in range(12):
        left, top = 60.5 + (i % 3) * 170.0, 110.5 + (i // 3) * 80.0
        groups.append(text_group("Auditor", left, top, left + 60.0, top + 12.0, bold=True))
        groups.append(group(line(seg("KPMG Luxembourg", left, top + 14.0, left + 90.0, top + 24.0),
                                 seg("S.A.", left + 95.0, top + 14.0, left + 120.0, top + 24.0)),
                            line(seg("39, Avenue John F. Kennedy", left, top + 26.0, left + 150.0,
                                     top + 36.0))))
    return page(*groups, width=595.0, height=842.0)


@pytest.mark.parametrize("name", ["fig1a", "narrative", "grid"])
def test_well_formed_groups_skip_the_checked_parser(name, fig1a_path):
    # Common input must stay on the one-pass path: a test there that is too
    # narrow would send every segment or box through its checked reader.
    document = {"fig1a": lambda: json.loads(fig1a_path.read_text()),
                "narrative": lambda: doc(_narrative_page()),
                "grid": lambda: doc(_grid_page())}[name]()
    with _checked_reads() as calls:
        pages = parse_document(json.dumps(document))
    assert calls == []
    assert sum(len(p.groups) for p in pages) == sum(len(p["groups"]) for p in document["pages"])
    # A segment that fails a test goes to its checked reader, which raises.
    document["pages"][0]["groups"][-1]["lines"][0]["segments"][0]["style"]["font_size"] = 0
    with _checked_reads() as calls, pytest.raises(GeometryError,
                                                  match="font_size: must be positive"):
        parse_document(document)
    assert calls == [("_parse_segment", 0), ("_parse_bbox", "bbox")]


# --- values the one-pass test is too narrow for ---
#
# The one-pass read takes numbers only up to the largest float and values
# only of their exact JSON class.  So an integer above the largest float
# (which reads as it) and, in a dict document, a subclass of dict, str, int
# or float reach a checked reader, which returns them.  Their group is still
# built by _built_lines, and parses as the plain document does.

class _Text(str):
    pass


class _Size(float):
    pass


class _Colour(enum.IntEnum):
    BLACK = 0


_SUBCLASS = {"text": _Text, "color": _Colour, "font_size": _Size}


def _subclassed(value, key=None):
    """``value`` with each object an OrderedDict, each text a str subclass,
    each colour an IntEnum member and each font size a float subclass."""
    if isinstance(value, dict):
        return OrderedDict((k, _subclassed(v, k)) for k, v in value.items())
    if isinstance(value, list):
        return [_subclassed(v) for v in value]
    return _SUBCLASS[key](value) if key in _SUBCLASS else value


def _fig1a_with_right_edge(fig1a_path, right):
    """fig1a with the page width and the first group's right edges (its
    box's, its line's and its segment's) set to ``right``."""
    document = json.loads(fig1a_path.read_text())
    p = document["pages"][0]
    p["width"] = right
    for _, node in json_nodes(p["groups"][0]):
        if isinstance(node, dict) and "r" in node:
            node["r"] = right
    return document


def test_values_the_one_pass_test_is_too_narrow_for(fig1a_path):
    plain = json.loads(fig1a_path.read_text())
    at_max = _fig1a_with_right_edge(fig1a_path, _MAX)
    huge = _fig1a_with_right_edge(fig1a_path, int(_MAX) + 1)
    cases = [(huge, at_max), (json.dumps(huge), at_max), (_subclassed(plain), plain)]
    for document, plain_document in cases:
        expected = parse_document(plain_document)
        with mock.patch.object(visual, "_built_lines", wraps=visual._built_lines) as built, \
             _checked_reads() as checked:
            pages = parse_document(document)
            assert pages == expected and repr(pages) == repr(expected)
        assert checked  # the test was too narrow, and the checked reader took the value
        assert built.call_count == len(pages[0].groups)
    assert repr(parse_document(huge)[0].groups[0].bbox).endswith(
        "right=1.7976931348623157e+308, bottom=75.0)")


# --- a document read one page at a time ---

# Faults of the JSON itself, put after the whole text of a document.
_JSON_FAULTS = {
    "trailing_data": lambda text: text + " {}",
    "trailing_comma": lambda text: text[:-2] + ",]}",
    "unclosed": lambda text: text[:-2],
}


@settings(max_examples=200, deadline=None)
@given(faulty_documents(), st.sampled_from(sorted(_JSON_FAULTS)))
def test_streamed_read_raises_the_first_fault_as_the_list_does(document, fault):
    # A page's fault comes before the JSON fault in the text, and after it
    # in the whole read, which decodes the text before it checks a page.
    text = _JSON_FAULTS[fault](json.dumps(document))
    with pytest.raises(ValueError) as whole:
        parse_document(text)
    with pytest.raises(ValueError) as streamed:
        list(parse_document(text, stream=True))
    if not isinstance(streamed.value, DeclinedError):
        assert str(streamed.value) == str(whole.value)


def test_page_nested_as_deep_as_the_list_path_takes_streams_or_declines(fig1a_path):
    # The depth at which a whole-document decode gives up differs between
    # Python versions (the recursion limit up to 3.11, a C stack budget
    # from 3.12), so the test finds it on the running Python.  A page as
    # deep as that, or one level less, is yielded page by page or declined
    # as too deep for that read; it is never reported as invalid JSON.
    page = json.loads(fig1a_path.read_text())["pages"][0]
    text = json.dumps({"pages": [dict(page, extra=0)]})

    def nested(depth):
        return text.replace('"extra": 0', '"extra": ' + "[" * depth + "]" * depth)

    def accepted(depth):
        try:
            parse_document(nested(depth))
        except ValueError:
            return False
        return True

    low, high = 1, 1 << 17  # accepted, refused
    assert accepted(low) and not accepted(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if accepted(mid) else (low, mid)
    for depth in (low, low - 1):
        try:
            pages = list(parse_document(nested(depth), stream=True))
        except SchemaError as e:
            assert str(e) == "$.pages: cannot be read one item at a time: nested too deeply"
        else:
            assert pages == parse_document(nested(depth))
