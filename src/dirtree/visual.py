"""Geometric page model: pages, groups, lines, styled text segments.

The input format is a JSON rendering of a visually laid-out document.
Coordinates use a top-left origin with y growing downward, so ``top < bottom``
for any box with positive height.

``parse_document`` checks every value it reads.  ``_read_group`` reads each
group in one pass, in a fixed order, testing each value's exact JSON class
and range.  A value that fails is read again by its checked reader (from
``jsonin``, for its type), which raises the fault with the value's JSON
path, or returns the value where the test was too narrow for it.  The group
keeps the box, flags, border sides and text that pass records, and its JSON
object: no line, segment or style is built until ``Group.lines`` is first
read, when ``_built_lines``, the one place that orders a group, builds them
from that object, with no check.  A group whose JSON is not in reading
order is built at once.  Scoring a page reads only its groups' text,
furniture flags and border sides, so a page that is only scored builds no
line of a group in reading order.  The page's own values (its size, its
table regions, each group lying inside it) are checked one at a time.
"""

from __future__ import annotations

import gc
import sys
from collections.abc import Iterator
from math import inf, isfinite
from operator import attrgetter
from typing import NamedTuple

from .jsonin import (
    ROOT, SchemaError, array, boolean, integer, items, json_path, number, obj, streamed_items,
    string, top,
)


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
    A group that ``parse_document`` read from JSON in reading order holds
    its JSON object in place of its lines, and builds them from it
    (``_built_lines``) the first time ``lines`` is read; one read from JSON
    in any other order is made by this constructor from its built lines.
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


def _parse_style(holder, key, where: tuple) -> None:
    style = obj(holder, key, where)
    where += (key,)
    string(style, "font_family", where)
    if _number(style, "font_size", where) <= 0:
        raise GeometryError(f"{json_path(where + ('font_size',))}: must be positive")
    if not 0 <= integer(style, "color", where) <= 0xFFFFFF:
        raise GeometryError(f"{json_path(where + ('color',))}: must fit in 24 bits")
    boolean(style, "bold", where)
    boolean(style, "italic", where)


def _parse_segment(holder, key, where: tuple) -> BBox:
    """Checks the segment ``holder[key]`` and returns its box."""
    segment = obj(holder, key, where)
    where += (key,)
    if not string(segment, "text", where):
        raise GeometryError(f"{json_path(where + ('text',))}: must be non-empty")
    box = _parse_bbox(segment, "bbox", where)
    _parse_style(segment, "style", where)
    return box


def _index(values: list, value) -> int:
    """The index of the first item of ``values`` that is ``value``."""
    for i, item in enumerate(values):
        if item is value:
            return i


_MAX_FLOAT = sys.float_info.max
_NUMBER_TYPES = frozenset((int, float))
_EMPTY: dict = {}
_new = tuple.__new__
_new_object = object.__new__


def _read_group(holder, group_i: int, where: tuple, page_i: int) -> Group:
    """The group ``holder[group_i]``, checked in one pass.

    Each value must be of its exact JSON class (a bool is not a number), and
    a number is taken only up to the largest float: ``0 <= l <= r <=
    _MAX_FLOAT`` is false for NaN and the infinities, so it tests finite,
    non-negative and in order at once.  A value that fails is read again by
    its checked reader (``obj``, ``array``, ``boolean``, ``integer``,
    ``_parse_segment`` or ``_parse_bbox``), which raises the fault with its
    JSON path, or returns the value where the test was too narrow: an
    integer above the largest float, or a subclass of ``dict``, ``list``, ``str``, ``int`` or
    ``float`` in a ``dict`` document.  The order is fixed: each line's
    segments, at least one segment, the line's box and its union; then at
    least one line, the group's box and its union, ``border_sides``,
    ``is_page_header`` and ``is_page_footer``.  A failing line or segment
    is found by identity: an item listed twice fails first where it is
    first.

    The unions use running minima and maxima of the children's edges.  The
    text joins the segments in the order of the lines that _built_lines
    builds.  When the JSON lists lines top to bottom and each line's
    segments left to right, the pass keeps the texts as it reads them;
    otherwise the group is made from its built lines at once.
    """
    g = holder[group_i]
    if g.__class__ is not dict:
        g = obj(holder, group_i, where)
    line_objs = g.get("lines")
    if line_objs.__class__ is not list or not line_objs:
        line_objs = array(g, "lines", where + (group_i,))
        if not line_objs:
            raise SchemaError(json_path(where + (group_i, "lines")),
                              "must contain at least one line")
    numeric, empty = _NUMBER_TYPES, _EMPTY
    gl = gt = inf  # the union of the line boxes so far
    gr = gb = -inf
    texts = []
    top = -inf  # the previous line's top
    ordered = True  # whether lines and segments are in sorted order so far
    for line_obj in line_objs:
        if line_obj.__class__ is not dict:
            line_obj = obj(line_objs, _index(line_objs, line_obj), where + (group_i, "lines"))
        seg_objs = line_obj.get("segments")
        if seg_objs.__class__ is not list or not seg_objs:
            at = where + (group_i, "lines", _index(line_objs, line_obj))
            seg_objs = array(line_obj, "segments", at)
            if not seg_objs:
                raise SchemaError(json_path(at + ("segments",)),
                                  "must contain at least one segment")
        ul = ut = inf  # the union of this line's segment boxes so far
        ur = ub = -inf
        left = -inf  # the previous segment's left
        for seg_obj in seg_objs:
            seg = seg_obj if seg_obj.__class__ is dict else empty
            text, style, box = seg.get("text"), seg.get("style"), seg.get("bbox")
            if box.__class__ is not dict:
                box = empty
            if style.__class__ is not dict:
                style = empty
            l, t, r, b = box.get("l"), box.get("t"), box.get("r"), box.get("b")
            size, color = style.get("font_size"), style.get("color")
            family, bold, italic = style.get("font_family"), style.get("bold"), style.get("italic")
            if (l.__class__ in numeric and t.__class__ in numeric
                    and r.__class__ in numeric and b.__class__ in numeric
                    and 0 <= l <= r <= _MAX_FLOAT and 0 <= t <= b <= _MAX_FLOAT
                    and text.__class__ is str and text and family.__class__ is str
                    and size.__class__ in numeric and 0 < size <= _MAX_FLOAT
                    and color.__class__ is int and 0 <= color <= 0xFFFFFF
                    and bold.__class__ is bool and italic.__class__ is bool):
                l, t, r, b = float(l), float(t), float(r), float(b)
            else:
                at = where + (group_i, "lines", _index(line_objs, line_obj), "segments")
                l, t, r, b = _parse_segment(seg_objs, _index(seg_objs, seg_obj), at)
                text = seg_obj["text"]
            if l < ul:
                ul = l
            if t < ut:
                ut = t
            if r > ur:
                ur = r
            if b > ub:
                ub = b
            texts.append(text)
            if l < left:
                ordered = False
            left = l
        box = line_obj.get("bbox")
        if box.__class__ is not dict:
            box = empty
        l, t, r, b = box.get("l"), box.get("t"), box.get("r"), box.get("b")
        if (l.__class__ in numeric and t.__class__ in numeric
                and r.__class__ in numeric and b.__class__ in numeric
                and 0 <= l <= r <= _MAX_FLOAT and 0 <= t <= b <= _MAX_FLOAT):
            l, t, r, b = float(l), float(t), float(r), float(b)
        else:
            at = where + (group_i, "lines", _index(line_objs, line_obj))
            l, t, r, b = _parse_bbox(line_obj, "bbox", at)
        if not (abs(l - ul) <= _BOX_EPS and abs(t - ut) <= _BOX_EPS
                and abs(r - ur) <= _BOX_EPS and abs(b - ub) <= _BOX_EPS):
            raise GeometryError(f"page {page_i}, group {group_i}: line bbox does not equal "
                                "the union of its segment bboxes")
        if l < gl:
            gl = l
        if t < gt:
            gt = t
        if r > gr:
            gr = r
        if b > gb:
            gb = b
        if t < top:
            ordered = False
        top = t
    box = g.get("bbox")
    if box.__class__ is not dict:
        box = empty
    l, t, r, b = box.get("l"), box.get("t"), box.get("r"), box.get("b")
    if (l.__class__ in numeric and t.__class__ in numeric
            and r.__class__ in numeric and b.__class__ in numeric
            and 0 <= l <= r <= _MAX_FLOAT and 0 <= t <= b <= _MAX_FLOAT):
        box = _new(BBox, (float(l), float(t), float(r), float(b)))
    else:
        box = _parse_bbox(g, "bbox", where + (group_i,))
    l, t, r, b = box
    if not (abs(l - gl) <= _BOX_EPS and abs(t - gt) <= _BOX_EPS
            and abs(r - gr) <= _BOX_EPS and abs(b - gb) <= _BOX_EPS):
        raise GeometryError(f"page {page_i}, group {group_i}: group bbox does not equal "
                            "the union of its line bboxes")
    border = g.get("border_sides", 0)
    if border.__class__ is not int or not 0 <= border <= 4:
        border = integer(g, "border_sides", where + (group_i,))
        if not 0 <= border <= 4:
            raise GeometryError(f"page {page_i}, group {group_i}: border_sides must be 0..4")
    header, footer = g.get("is_page_header"), g.get("is_page_footer")
    if header.__class__ is not bool:
        header = boolean(g, "is_page_header", where + (group_i,))
    if footer.__class__ is not bool:
        footer = boolean(g, "is_page_footer", where + (group_i,))
    if not ordered:
        return Group(_built_lines(g), box, header, footer, border)
    group = _new_object(Group)
    _init_group(group, None, box, header, footer, border, " ".join(texts), g)
    return group


def _built_box(box: dict) -> BBox:
    return _new(BBox, (float(box["l"]), float(box["t"]), float(box["r"]), float(box["b"])))


_LEFT = attrgetter("bbox.left")
_TOP = attrgetter("bbox.top")


def _built_lines(obj: dict) -> "tuple[Line, ...]":
    """The lines of a group object that _read_group checked, the one place
    that makes a ``Line``, ``Segment`` or ``StyleInfo`` from JSON.  Makes no
    check: each was made on parse.  Every number is a float but the colour,
    an int; lines are sorted top to bottom and segments left to right,
    keeping ties in JSON order."""
    lines = []
    for line_obj in obj["lines"]:
        segments = []
        for seg_obj in line_obj["segments"]:
            style = seg_obj["style"]
            segments.append(_new(Segment, (
                seg_obj["text"], _built_box(seg_obj["bbox"]),
                _new(StyleInfo, (style["font_family"], float(style["font_size"]),
                                 style["bold"], style["italic"], int(style["color"]))),
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
    for i in range(len(group_objs)):
        group = _read_group(group_objs, i, at, page_i)
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


def parse_document(data: "bytes | str | dict",
                   stream: bool = False) -> "list[VisualPage] | Iterator[VisualPage]":
    """Parse a visual-JSON document into validated pages.

    Unknown fields are ignored.  Raises SchemaError for missing or mistyped
    fields (message carries the JSON path) and GeometryError for invariant
    violations (message carries page/group indices).

    With ``stream``, ``bytes`` and ``str`` give a generator in place of the
    list: it decodes, checks and yields one page at a time, so a page's
    decoded JSON is freed with the page (see ``jsonin.streamed_items``).
    It raises a fault when it reaches it, after yielding the pages before
    it, where the list path raises a fault of the JSON (trailing data, say)
    before any page's.  It declines a document that repeats ``"pages"``,
    of which the list path reads the last.  A ``dict`` is parsed to a list
    either way.

    A group checked in one pass builds its lines from its part of the
    decoded JSON when they are first read.  A ``dict`` is the caller's own,
    which the caller may change after the call, so its groups' lines are
    built before this returns; ``bytes`` and ``str`` are decoded afresh.

    Parsing makes no reference cycles, so the cyclic garbage collector is
    paused for a call that returns a list: otherwise the tuples it builds
    set off collections that walk every container of the decoded JSON.
    """
    if stream and not isinstance(data, dict):
        return streamed_items(_parse_page, data, "pages")
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
