import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dirtree.visual import (
    BBox,
    GeometryError,
    SchemaError,
    document_to_json,
    group_layout,
    group_text,
    parse_document,
    union_all,
    v_gap,
    x_overlap,
    y_overlap,
)

from conftest import doc, group, line, page, parse_page, random_page_dict, seg, text_group


# --- bbox helpers ---

def test_bbox_dimensions():
    b = BBox(10, 20, 110, 50)
    assert b.width == 100
    assert b.height == 30


def test_union():
    a = BBox(0, 0, 10, 10)
    b = BBox(5, -0, 20, 30)
    assert a.union(b) == BBox(0, 0, 20, 30)
    assert union_all([a, b, BBox(1, 1, 2, 2)]) == BBox(0, 0, 20, 30)
    with pytest.raises(ValueError):
        union_all([])


def test_overlap_and_gap():
    a = BBox(0, 0, 10, 10)
    b = BBox(6, 20, 16, 30)
    assert x_overlap(a, b) == 4
    assert y_overlap(a, b) == 0
    assert v_gap(a, b) == 10
    assert v_gap(b, a) == -30  # negative when b sits above a's bottom
    assert x_overlap(a, BBox(10, 0, 20, 10)) == 0  # touching edges share nothing


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


def test_invalid_json_text():
    with pytest.raises(SchemaError):
        parse_document("{not json")


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


# --- round trips ---

def test_round_trip_fixture(fig1a_path):
    pages = parse_document(fig1a_path.read_bytes())
    again = parse_document(document_to_json(pages))
    assert again == pages


def test_round_trip_is_stable_json(fig1a_path):
    pages = parse_document(fig1a_path.read_bytes())
    first = json.dumps(document_to_json(pages), sort_keys=True)
    second = json.dumps(document_to_json(parse_document(document_to_json(pages))), sort_keys=True)
    assert first == second


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_round_trip_random_pages(seed):
    rng = random.Random(seed)
    d = doc(*[random_page_dict(rng) for _ in range(rng.randint(1, 3))])
    pages = parse_document(d)
    assert parse_document(document_to_json(pages)) == pages
