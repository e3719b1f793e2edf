"""Geometric page model: pages, groups, lines, styled text segments.

The input format is a JSON rendering of a visually laid-out document.
Coordinates use a top-left origin with y growing downward, so ``top < bottom``
for any box with positive height.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


class SchemaError(ValueError):
    """A required field is missing or has the wrong JSON type."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class GeometryError(ValueError):
    """A structural invariant of the page geometry is violated."""


@dataclass(frozen=True)
class BBox:
    left: float
    top: float
    right: float
    bottom: float

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def height(self) -> float:
        return self.bottom - self.top

    def union(self, other: "BBox") -> "BBox":
        return BBox(
            min(self.left, other.left),
            min(self.top, other.top),
            max(self.right, other.right),
            max(self.bottom, other.bottom),
        )

    def to_json(self) -> dict:
        return {"l": self.left, "t": self.top, "r": self.right, "b": self.bottom}


def union_all(boxes: "list[BBox]") -> BBox:
    if not boxes:
        raise ValueError("cannot union zero boxes")
    out = boxes[0]
    for b in boxes[1:]:
        out = out.union(b)
    return out


def x_overlap(a: BBox, b: BBox) -> float:
    """Width of the horizontal intersection of two boxes (0 if disjoint)."""
    return max(0.0, min(a.right, b.right) - max(a.left, b.left))


def y_overlap(a: BBox, b: BBox) -> float:
    return max(0.0, min(a.bottom, b.bottom) - max(a.top, b.top))


def v_gap(a: BBox, b: BBox) -> float:
    """Vertical gap from the bottom of ``a`` to the top of ``b``.

    Negative when the boxes overlap vertically.
    """
    return b.top - a.bottom


@dataclass(frozen=True)
class StyleInfo:
    font_family: str
    font_size: float
    bold: bool
    italic: bool
    color: int  # 24-bit RGB packed as an int

    def to_json(self) -> dict:
        return {
            "font_family": self.font_family,
            "font_size": self.font_size,
            "bold": self.bold,
            "italic": self.italic,
            "color": self.color,
        }


@dataclass(frozen=True)
class Segment:
    text: str
    bbox: BBox
    style: StyleInfo


@dataclass(frozen=True)
class Line:
    segments: tuple[Segment, ...]  # left to right, as parsing sorts them
    bbox: BBox


@dataclass(frozen=True)
class Group:
    lines: tuple[Line, ...]  # top to bottom, as parsing sorts them
    bbox: BBox
    is_page_header: bool = False
    is_page_footer: bool = False
    border_sides: int = 0

    @property
    def is_furniture(self) -> bool:
        return self.is_page_header or self.is_page_footer


@dataclass(frozen=True)
class VisualPage:
    width: float
    height: float
    groups: tuple[Group, ...] = ()
    table_regions: tuple[BBox, ...] = ()


# Tolerance for comparing bounding boxes that should be exactly the union of
# their children; absorbs round-tripping noise in serialized floats.
_BOX_EPS = 1e-6


def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected number, got {type(value).__name__}")
    out = float(value)
    if not math.isfinite(out):
        raise GeometryError(f"{path}: coordinates must be finite")
    return out


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(path, f"expected boolean, got {type(value).__name__}")
    return value


def _array(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected array, got {type(value).__name__}")
    return value


def _parse_bbox(obj, path: str) -> BBox:
    l = _number(_require(obj, "l", path), f"{path}.l")
    t = _number(_require(obj, "t", path), f"{path}.t")
    r = _number(_require(obj, "r", path), f"{path}.r")
    b = _number(_require(obj, "b", path), f"{path}.b")
    if min(l, t, r, b) < 0:
        raise GeometryError(f"{path}: coordinates must be non-negative")
    if l > r or t > b:
        raise GeometryError(f"{path}: box edges out of order (l<=r, t<=b required)")
    return BBox(l, t, r, b)


def _parse_style(obj, path: str) -> StyleInfo:
    family = _require(obj, "font_family", path)
    if not isinstance(family, str):
        raise SchemaError(f"{path}.font_family", "expected string")
    size = _number(_require(obj, "font_size", path), f"{path}.font_size")
    if size <= 0:
        raise GeometryError(f"{path}.font_size: must be positive")
    color = _require(obj, "color", path)
    if isinstance(color, bool) or not isinstance(color, int):
        raise SchemaError(f"{path}.color", "expected integer")
    if not 0 <= color <= 0xFFFFFF:
        raise GeometryError(f"{path}.color: must fit in 24 bits")
    return StyleInfo(
        font_family=family,
        font_size=size,
        bold=_boolean(_require(obj, "bold", path), f"{path}.bold"),
        italic=_boolean(_require(obj, "italic", path), f"{path}.italic"),
        color=color,
    )


def _parse_segment(obj, path: str) -> Segment:
    text = _require(obj, "text", path)
    if not isinstance(text, str):
        raise SchemaError(f"{path}.text", "expected string")
    if not text:
        raise GeometryError(f"{path}.text: must be non-empty")
    bbox = _parse_bbox(_require(obj, "bbox", path), f"{path}.bbox")
    style = _parse_style(_require(obj, "style", path), f"{path}.style")
    return Segment(text=text, bbox=bbox, style=style)


def _close(a: BBox, b: BBox) -> bool:
    return (
        abs(a.left - b.left) <= _BOX_EPS
        and abs(a.top - b.top) <= _BOX_EPS
        and abs(a.right - b.right) <= _BOX_EPS
        and abs(a.bottom - b.bottom) <= _BOX_EPS
    )


def _parse_line(obj, path: str, page_i: int, group_i: int) -> Line:
    seg_objs = _array(_require(obj, "segments", path), f"{path}.segments")
    if not seg_objs:
        raise SchemaError(f"{path}.segments", "must contain at least one segment")
    segments = [
        _parse_segment(s, f"{path}.segments[{i}]") for i, s in enumerate(seg_objs)
    ]
    # Ingestion establishes the left-to-right ordering invariant.
    segments.sort(key=lambda s: s.bbox.left)
    bbox = _parse_bbox(_require(obj, "bbox", path), f"{path}.bbox")
    if not _close(bbox, union_all([s.bbox for s in segments])):
        raise GeometryError(
            f"page {page_i}, group {group_i}: line bbox does not equal "
            "the union of its segment bboxes"
        )
    return Line(segments=tuple(segments), bbox=bbox)


def _parse_group(obj, path: str, page_i: int, group_i: int) -> Group:
    line_objs = _array(_require(obj, "lines", path), f"{path}.lines")
    if not line_objs:
        raise SchemaError(f"{path}.lines", "must contain at least one line")
    lines = [
        _parse_line(l, f"{path}.lines[{i}]", page_i, group_i)
        for i, l in enumerate(line_objs)
    ]
    lines.sort(key=lambda l: l.bbox.top)
    bbox = _parse_bbox(_require(obj, "bbox", path), f"{path}.bbox")
    if not _close(bbox, union_all([l.bbox for l in lines])):
        raise GeometryError(
            f"page {page_i}, group {group_i}: group bbox does not equal "
            "the union of its line bboxes"
        )
    border = obj.get("border_sides", 0)
    if isinstance(border, bool) or not isinstance(border, int):
        raise SchemaError(f"{path}.border_sides", "expected integer")
    if not 0 <= border <= 4:
        raise GeometryError(f"page {page_i}, group {group_i}: border_sides must be 0..4")
    return Group(
        lines=tuple(lines),
        bbox=bbox,
        is_page_header=_boolean(_require(obj, "is_page_header", path), f"{path}.is_page_header"),
        is_page_footer=_boolean(_require(obj, "is_page_footer", path), f"{path}.is_page_footer"),
        border_sides=border,
    )


def _parse_page(obj, path: str, page_i: int) -> VisualPage:
    width = _number(_require(obj, "width", path), f"{path}.width")
    height = _number(_require(obj, "height", path), f"{path}.height")
    if width <= 0 or height <= 0:
        raise GeometryError(f"page {page_i}: page dimensions must be positive")
    regions = [
        _parse_bbox(r, f"{path}.table_regions[{i}]")
        for i, r in enumerate(_array(obj.get("table_regions", []), f"{path}.table_regions"))
    ]
    groups = []
    for i, g in enumerate(_array(_require(obj, "groups", path), f"{path}.groups")):
        group = _parse_group(g, f"{path}.groups[{i}]", page_i, i)
        box = group.bbox
        if (
            box.left < -_BOX_EPS
            or box.top < -_BOX_EPS
            or box.right > width + _BOX_EPS
            or box.bottom > height + _BOX_EPS
        ):
            raise GeometryError(f"page {page_i}, group {i}: group bbox extends outside the page")
        groups.append(group)
    return VisualPage(
        width=width,
        height=height,
        groups=tuple(groups),
        table_regions=tuple(regions),
    )


def parse_document(data: "bytes | str | dict") -> list[VisualPage]:
    """Parse a visual-JSON document into validated pages.

    Unknown fields are ignored.  Raises SchemaError for missing or mistyped
    fields (message carries the JSON path) and GeometryError for invariant
    violations (message carries page/group indices).
    """
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc}") from exc
    pages = _array(_require(data, "pages", "$"), "$.pages")
    return [_parse_page(p, f"$.pages[{i}]", i) for i, p in enumerate(pages)]


def document_to_json(pages: "list[VisualPage]") -> dict:
    """Serialize pages back to the input schema (parse round-trips exactly)."""
    return {
        "pages": [
            {
                "width": p.width,
                "height": p.height,
                "table_regions": [r.to_json() for r in p.table_regions],
                "groups": [
                    {
                        "bbox": g.bbox.to_json(),
                        "is_page_header": g.is_page_header,
                        "is_page_footer": g.is_page_footer,
                        "border_sides": g.border_sides,
                        "lines": [
                            {
                                "bbox": l.bbox.to_json(),
                                "segments": [
                                    {
                                        "text": s.text,
                                        "bbox": s.bbox.to_json(),
                                        "style": s.style.to_json(),
                                    }
                                    for s in l.segments
                                ],
                            }
                            for l in g.lines
                        ],
                    }
                    for g in p.groups
                ],
            }
            for p in pages
        ]
    }


def _ordered_segments(g: Group) -> list[Segment]:
    return [s for line in g.lines for s in line.segments]


def group_text(g: Group) -> str:
    """Text of a group: lines top to bottom, segments left to right,
    joined with single spaces."""
    return " ".join(s.text for s in _ordered_segments(g))


def group_layout(g: Group) -> list[tuple[Segment, int, int]]:
    """Segments of a group in reading order with their [start, end) offsets
    into ``group_text(g)``."""
    out = []
    pos = 0
    for seg in _ordered_segments(g):
        if pos:
            pos += 1  # the joining space
        out.append((seg, pos, pos + len(seg.text)))
        pos += len(seg.text)
    return out
