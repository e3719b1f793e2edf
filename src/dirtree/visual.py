"""Geometric page model: pages, groups, lines, styled text segments.

The input format is a JSON rendering of a visually laid-out document.
Coordinates use a top-left origin with y growing downward, so ``top < bottom``
for any box with positive height.

``parse_document`` checks every value it reads.  Each group is first read by
``_accept_group``, a check pass that declines (returns None) at the first
value it does not accept.  A group it accepts is made from the box, flags,
border sides and text that pass records, with no line, segment or style
built: the group keeps its JSON object, and ``_built_lines`` builds its
lines from that object, with no check, the first time ``Group.lines`` is
read.  Scoring a page reads only its groups' text, furniture flags and
border sides, so a page that is only scored never builds its lines.  A
declined group is parsed again by the checked path (``_parse_group`` and
the functions below it), which makes the checks one at a time in a fixed
order, raises the first that fails, with the JSON path of the value, and
builds the group in full.  The page's own values (its size, its table
regions, each group lying inside it) are always checked one at a time.
"""

from __future__ import annotations

import gc
import sys
from functools import partial
from math import inf, isfinite
from operator import attrgetter
from typing import NamedTuple

from .jsonin import ROOT, SchemaError, array, boolean, field, items, json_path, number, obj, top


class GeometryError(ValueError):
    """A structural invariant of the page geometry is violated."""


class BBox(NamedTuple):
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

    def to_json(self) -> dict:
        return {"l": self.left, "t": self.top, "r": self.right, "b": self.bottom}


def union_all(boxes: "list[BBox]") -> BBox:
    if not boxes:
        raise ValueError("cannot union zero boxes")
    # min and max keep the first of equal values: of 0.0 and -0.0, the earlier box's.
    lefts, tops, rights, bottoms = zip(*boxes)
    return BBox(min(lefts), min(tops), max(rights), max(bottoms))


def x_overlap(a: BBox, b: BBox) -> float:
    """Width of the horizontal intersection of two boxes (0 if disjoint)."""
    return max(0.0, min(a.right, b.right) - max(a.left, b.left))


def v_gap(a: BBox, b: BBox) -> float:
    """Vertical gap from the bottom of ``a`` to the top of ``b``.

    Negative when the boxes overlap vertically.
    """
    return b.top - a.bottom


class StyleInfo(NamedTuple):
    font_family: str
    font_size: float
    bold: bool
    italic: bool
    color: int  # 24-bit RGB packed as an int


class Segment(NamedTuple):
    text: str
    bbox: BBox
    style: StyleInfo


class Line(NamedTuple):
    segments: tuple[Segment, ...]  # left to right, as parsing sorts them
    bbox: BBox


class Group:
    """A group of lines: its lines top to bottom (as parsing sorts them), its
    box, its page-furniture flags and how many sides carry a border.

    Made and read like the named tuple ``Group(lines, bbox, is_page_header,
    is_page_footer, border_sides)``, which it compares, hashes and prints
    as.  It cannot be changed.  It also keeps its text (``group_text``).
    A group that ``parse_document`` checked in one pass holds its JSON
    object in place of its lines, and builds them from it the first time
    ``lines`` is read.
    """

    __slots__ = ("_lines", "bbox", "is_page_header", "is_page_footer", "border_sides",
                 "_text", "_source")

    def __init__(self, lines: "tuple[Line, ...]", bbox: BBox, is_page_header: bool = False,
                 is_page_footer: bool = False, border_sides: int = 0):
        text = " ".join([s.text for line in lines for s in line.segments])
        _init_group(self, lines, bbox, is_page_header, is_page_footer, border_sides, text, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Group.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete Group.{name}")

    @property
    def lines(self) -> "tuple[Line, ...]":
        lines = self._lines
        if lines is None:
            lines = _built_lines(self._source)
            _set(self, "_lines", lines)
            _set(self, "_source", None)
        return lines

    @property
    def is_furniture(self) -> bool:
        return self.is_page_header or self.is_page_footer

    def _astuple(self) -> tuple:
        return self.lines, self.bbox, self.is_page_header, self.is_page_footer, self.border_sides

    def __eq__(self, other):
        if other.__class__ is not Group:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        return ("Group(lines=%r, bbox=%r, is_page_header=%r, is_page_footer=%r, "
                "border_sides=%r)" % self._astuple())

    def __reduce__(self):
        return Group, self._astuple()


_set = object.__setattr__


def _init_group(g, lines, bbox, header, footer, border, text, source):
    _set(g, "_lines", lines)
    _set(g, "bbox", bbox)
    _set(g, "is_page_header", header)
    _set(g, "is_page_footer", footer)
    _set(g, "border_sides", border)
    _set(g, "_text", text)
    _set(g, "_source", source)


class VisualPage(NamedTuple):
    width: float
    height: float
    groups: tuple[Group, ...] = ()
    table_regions: tuple[BBox, ...] = ()


# Tolerance for comparing bounding boxes that should be exactly the union of
# their children; absorbs round-tripping noise in serialized floats.
_BOX_EPS = 1e-6

# Each parse function takes the object or array that holds its value, the
# value's key or index there, and the holder's JSON path (see ``jsonin``).


def _number(holder, key, where: tuple) -> float:
    """``holder[key]`` as a finite float."""
    value = number(holder, key, where)
    if not isfinite(value):
        raise GeometryError(f"{json_path(where + (key,))}: coordinates must be finite")
    return value


def _parse_bbox(holder, key, where: tuple) -> BBox:
    box = obj(holder, key, where)
    where += (key,)
    box = BBox(*[_number(box, edge, where) for edge in "ltrb"])
    if min(box) < 0:
        raise GeometryError(f"{json_path(where)}: coordinates must be non-negative")
    if box.left > box.right or box.top > box.bottom:
        raise GeometryError(f"{json_path(where)}: box edges out of order (l<=r, t<=b required)")
    return box


def _parse_style(holder, key, where: tuple) -> StyleInfo:
    style = obj(holder, key, where)
    where += (key,)
    family = field(style, "font_family", where)
    if not isinstance(family, str):
        raise SchemaError(json_path(where + ("font_family",)), "expected string")
    size = _number(style, "font_size", where)
    if size <= 0:
        raise GeometryError(f"{json_path(where + ('font_size',))}: must be positive")
    color = field(style, "color", where)
    if isinstance(color, bool) or not isinstance(color, int):
        raise SchemaError(json_path(where + ("color",)), "expected integer")
    if not 0 <= color <= 0xFFFFFF:
        raise GeometryError(f"{json_path(where + ('color',))}: must fit in 24 bits")
    return StyleInfo(
        family, size, boolean(style, "bold", where), boolean(style, "italic", where), color
    )


def _parse_segment(holder, key, where: tuple) -> Segment:
    segment = obj(holder, key, where)
    where += (key,)
    text = field(segment, "text", where)
    if not isinstance(text, str):
        raise SchemaError(json_path(where + ("text",)), "expected string")
    if not text:
        raise GeometryError(f"{json_path(where + ('text',))}: must be non-empty")
    return Segment(text, _parse_bbox(segment, "bbox", where), _parse_style(segment, "style", where))


def _is_union(box: BBox, parts: "list[BBox]") -> bool:
    """Whether ``box`` is the union of ``parts``, to within _BOX_EPS."""
    return all(abs(a - b) <= _BOX_EPS for a, b in zip(box, union_all(parts)))


_LEFT = attrgetter("bbox.left")
_TOP = attrgetter("bbox.top")


def _parse_line(holder, key, where: tuple, page_i: int, group_i: int) -> Line:
    line = obj(holder, key, where)
    where += (key,)
    segments = items(_parse_segment, line, "segments", where)
    if not segments:
        raise SchemaError(json_path(where + ("segments",)), "must contain at least one segment")
    # Ingestion establishes the left-to-right ordering invariant.
    segments.sort(key=_LEFT)
    bbox = _parse_bbox(line, "bbox", where)
    if not _is_union(bbox, [s.bbox for s in segments]):
        raise GeometryError(
            f"page {page_i}, group {group_i}: line bbox does not equal "
            "the union of its segment bboxes"
        )
    return Line(tuple(segments), bbox)


def _parse_group(holder, group_i: int, where: tuple, page_i: int) -> Group:
    group = obj(holder, group_i, where)
    where += (group_i,)
    lines = items(partial(_parse_line, page_i=page_i, group_i=group_i), group, "lines", where)
    if not lines:
        raise SchemaError(json_path(where + ("lines",)), "must contain at least one line")
    lines.sort(key=_TOP)
    bbox = _parse_bbox(group, "bbox", where)
    if not _is_union(bbox, [l.bbox for l in lines]):
        raise GeometryError(
            f"page {page_i}, group {group_i}: group bbox does not equal "
            "the union of its line bboxes"
        )
    border = group.get("border_sides", 0)
    if isinstance(border, bool) or not isinstance(border, int):
        raise SchemaError(json_path(where + ("border_sides",)), "expected integer")
    if not 0 <= border <= 4:
        raise GeometryError(f"page {page_i}, group {group_i}: border_sides must be 0..4")
    return Group(
        tuple(lines),
        bbox,
        boolean(group, "is_page_header", where),
        boolean(group, "is_page_footer", where),
        border,
    )


# --- fast accept -------------------------------------------------------------

_MAX_FLOAT = sys.float_info.max
_NUMBER_TYPES = frozenset((int, float))
_new = tuple.__new__
_new_object = object.__new__


def _accept_box(box) -> "BBox | None":
    """``box`` as _parse_bbox returns it, or None if it is not plainly well
    formed.  Never raises.

    Each edge must be an exact int or float (a bool is neither), and an
    integer is taken only up to the largest float.  The chained comparison
    ``0 <= l <= r <= _MAX_FLOAT`` is false for NaN and the infinities, so it
    tests finite, non-negative and in order at once.
    """
    if box.__class__ is not dict:
        return None
    l, t, r, b = box.get("l"), box.get("t"), box.get("r"), box.get("b")
    numeric = _NUMBER_TYPES
    if not (l.__class__ in numeric and t.__class__ in numeric
            and r.__class__ in numeric and b.__class__ in numeric
            and 0 <= l <= r <= _MAX_FLOAT and 0 <= t <= b <= _MAX_FLOAT):
        return None
    return _new(BBox, (float(l), float(t), float(r), float(b)))


def _accept_group(obj) -> "Group | None":
    """The group ``obj`` as _parse_group returns it, or None at the first
    value that is not plainly well formed.  Never raises.

    One pass reads the flags, lines, segments, boxes and styles, with the
    same number rules as _accept_box (written out for a segment's box).  The
    union checks use running minima and maxima of the children's edges.  It
    builds the group's box and text but no line, segment or style: the
    group keeps ``obj`` and builds its lines from it when they are first
    read (_built_lines).  The text joins the segments in the order of the
    lines that will be built; while the JSON order is already that order,
    the pass keeps the texts as it reads them.
    """
    if obj.__class__ is not dict:
        return None
    header, footer = obj.get("is_page_header"), obj.get("is_page_footer")
    border, line_objs = obj.get("border_sides", 0), obj.get("lines")
    if not (header.__class__ is bool and footer.__class__ is bool
            and border.__class__ is int and 0 <= border <= 4
            and line_objs.__class__ is list and line_objs):
        return None
    numeric = _NUMBER_TYPES
    gl = gt = inf  # the union of the line boxes so far
    gr = gb = -inf
    texts = []
    top = -inf  # the previous line's top
    ordered = True  # whether lines and segments are in sorted order so far
    for line_obj in line_objs:
        seg_objs = line_obj.get("segments") if line_obj.__class__ is dict else None
        if seg_objs.__class__ is not list or not seg_objs:
            return None
        ul = ut = inf  # the union of this line's segment boxes so far
        ur = ub = -inf
        left = -inf  # the previous segment's left
        for seg_obj in seg_objs:
            if seg_obj.__class__ is not dict:
                return None
            text, style, box = seg_obj.get("text"), seg_obj.get("style"), seg_obj.get("bbox")
            if box.__class__ is not dict:
                return None
            l, t, r, b = box.get("l"), box.get("t"), box.get("r"), box.get("b")
            if not (l.__class__ in numeric and t.__class__ in numeric
                    and r.__class__ in numeric and b.__class__ in numeric
                    and 0 <= l <= r <= _MAX_FLOAT and 0 <= t <= b <= _MAX_FLOAT
                    and text.__class__ is str and text and style.__class__ is dict):
                return None
            l, t, r, b = float(l), float(t), float(r), float(b)
            ul, ut = l if l < ul else ul, t if t < ut else ut
            ur, ub = r if r > ur else ur, b if b > ub else ub
            size, color = style.get("font_size"), style.get("color")
            family, bold, italic = style.get("font_family"), style.get("bold"), style.get("italic")
            if not (family.__class__ is str
                    and size.__class__ in numeric and 0 < size <= _MAX_FLOAT
                    and color.__class__ is int and 0 <= color <= 0xFFFFFF
                    and bold.__class__ is bool and italic.__class__ is bool):
                return None
            texts.append(text)
            if l < left:
                ordered = False
            left = l
        box = _accept_box(line_obj.get("bbox"))
        if box is None:
            return None
        l, t, r, b = box
        if not (abs(l - ul) <= _BOX_EPS and abs(t - ut) <= _BOX_EPS
                and abs(r - ur) <= _BOX_EPS and abs(b - ub) <= _BOX_EPS):
            return None
        gl, gt = l if l < gl else gl, t if t < gt else gt
        gr, gb = r if r > gr else gr, b if b > gb else gb
        if t < top:
            ordered = False
        top = t
    box = _accept_box(obj.get("bbox"))
    if box is None:
        return None
    l, t, r, b = box
    if not (abs(l - gl) <= _BOX_EPS and abs(t - gt) <= _BOX_EPS
            and abs(r - gr) <= _BOX_EPS and abs(b - gb) <= _BOX_EPS):
        return None
    group = _new_object(Group)
    _init_group(group, None, box, header, footer, border,
                " ".join(texts) if ordered else _sorted_text(line_objs), obj)
    return group


def _sorted_text(line_objs: list) -> str:
    """The text of an accepted group's lines, in the order _built_lines
    sorts them and their segments: by the float value of each line's top and
    each segment's left, keeping ties in JSON order."""
    return " ".join([
        seg_obj["text"]
        for line_obj in sorted(line_objs, key=lambda o: float(o["bbox"]["t"]))
        for seg_obj in sorted(line_obj["segments"], key=lambda o: float(o["bbox"]["l"]))
    ])


def _built_box(box: dict) -> BBox:
    return _new(BBox, (float(box["l"]), float(box["t"]), float(box["r"]), float(box["b"])))


def _built_lines(obj: dict) -> "tuple[Line, ...]":
    """The lines of a group object that _accept_group accepted, as
    _parse_group builds them.  Makes no check: each was made on parse."""
    lines = []
    for line_obj in obj["lines"]:
        segments = []
        for seg_obj in line_obj["segments"]:
            style = seg_obj["style"]
            segments.append(_new(Segment, (
                seg_obj["text"], _built_box(seg_obj["bbox"]),
                _new(StyleInfo, (style["font_family"], float(style["font_size"]),
                                 style["bold"], style["italic"], style["color"])),
            )))
        if len(segments) > 1:
            segments.sort(key=_LEFT)
        lines.append(_new(Line, (tuple(segments), _built_box(line_obj["bbox"]))))
    if len(lines) > 1:
        lines.sort(key=_TOP)
    return tuple(lines)


def _parse_page(holder, page_i: int, where: tuple) -> VisualPage:
    page = obj(holder, page_i, where)
    where += (page_i,)
    width = _number(page, "width", where)
    height = _number(page, "height", where)
    if width <= 0 or height <= 0:
        raise GeometryError(f"page {page_i}: page dimensions must be positive")
    regions = items(_parse_bbox, page, "table_regions", where, ())
    group_objs = array(page, "groups", where)
    at = where + ("groups",)
    groups = []
    for i, g in enumerate(group_objs):
        group = _accept_group(g) or _parse_group(group_objs, i, at, page_i)
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

    A group checked in one pass builds its lines from its part of the
    decoded JSON when they are first read.  A ``dict`` is the caller's own,
    which the caller may change after the call, so its groups' lines are
    built before this returns; ``bytes`` and ``str`` are decoded afresh.

    Parsing makes no reference cycles, so the cyclic garbage collector is
    paused for the call: otherwise the tuples it builds set off collections
    that walk every container of the decoded JSON.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        pages = items(_parse_page, top(data), "pages", ROOT)
        if isinstance(data, dict):
            for page in pages:
                for g in page.groups:
                    g.lines
        return pages
    finally:
        if gc_was_enabled:
            gc.enable()


def group_text(g: Group) -> str:
    """Text of a group: lines top to bottom, segments left to right,
    joined with single spaces.  Reading it builds no line."""
    return g._text


def group_layout(g: Group) -> list[tuple[Segment, int, int]]:
    """Segments of a group in reading order with their [start, end) offsets
    into ``group_text(g)``."""
    out = []
    pos = 0
    for seg in [s for line in g.lines for s in line.segments]:
        if pos:
            pos += 1  # the joining space
        out.append((seg, pos, pos + len(seg.text)))
        pos += len(seg.text)
    return out
