"""Page-level feature extraction for the directory-page classifier.

Fifteen counts and ratios per page.  The order of the vector is frozen:
serialized models and CSV exports both depend on it.  A page's features
are computed when first read, so a classifier that tests a few of them
costs the page only the annotations those few read.  Eleven are sums of a
non-negative count over the page's groups, and a classifier split asks
only whether one is at most its threshold: the sum stops at the group that
passes the threshold, so a split decided early reads no more groups.
"""

from __future__ import annotations

import math
import reprlib
from operator import itemgetter

from .annotate import AnnotationLabel, GroupAnnotations, is_address_candidate
from .visual import VisualPage, group_text

FEATURE_NAMES = (
    "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8",
    "f9", "f10", "f11", "f12", "f13", "f14", "f15",
)


class FeatureVector:
    """A page's fifteen features, read by name (``vec.f1``) or by position
    in ``FEATURE_NAMES`` order (``vec[0]``).

    A vector made from values, by position (``FeatureVector(*values)``) or
    by name (``FeatureVector(f6=2.0)``), holds them, 0.0 for each one not
    given.  The vector ``extract_features`` returns computes each value the
    first time something reads it, and keeps it.  ``at_most(i, t)`` answers
    ``vec[i] <= t``: a feature that sums a count over the groups is summed
    only until the answer is known, and a later read resumes where that sum
    stopped.
    """

    __slots__ = ("_values", "_page", "_per_group", "_partial")

    f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14, f15 = map(
        property, map(itemgetter, range(len(FEATURE_NAMES))))

    def __init__(self, *values: float, **named: float):
        rest = FEATURE_NAMES[len(values):]
        if len(values) > len(FEATURE_NAMES) or not named.keys() <= set(rest):
            raise TypeError(f"FeatureVector takes up to {len(FEATURE_NAMES)} values, "
                            f"by position or by the names {', '.join(FEATURE_NAMES)}")
        self._values = [*values, *(named.get(name, 0.0) for name in rest)]
        self._page = self._per_group = self._partial = None

    def __getitem__(self, i: int) -> float:
        value = self._values[i]
        if value is None:
            if _TERMS[i] is not None:
                value = float(self._sum_past(i, math.inf))
            else:
                value = self._values[i] = _PAGE_FEATURES[i](self._page, self)
        return value

    def at_most(self, i: int, t: float) -> bool:
        """Whether ``self[i] <= t``."""
        if self._values[i] is None and _TERMS[i] is not None:
            return self._sum_past(i, t) <= t
        return self[i] <= t

    def _sum_past(self, i: int, t: float) -> int:
        """Add feature i's per-group terms, in group order, from where its
        sum last stopped, until the sum exceeds t or the groups run out;
        the sum so far.  The terms are non-negative, so a sum past t stays
        past it.  A finished sum is kept as the feature's value."""
        term, groups, per_group = _TERMS[i], self._page.groups, self._per_group
        k, total = self._partial[i]
        n = len(groups)
        while k < n and total <= t:
            total += term(groups[k], per_group[k])
            k += 1
        if k == n:
            self._values[i] = float(total)
        else:
            self._partial[i] = (k, total)
        return total

    def as_list(self) -> list[float]:
        return [self[i] for i in range(len(FEATURE_NAMES))]


def _count(anns: GroupAnnotations, label: AnnotationLabel) -> int:
    """The number of a group's annotations of the label; builds no
    ``Annotation``."""
    return len(anns.spans_of(label))


def _mentions(label: AnnotationLabel):
    return lambda group, anns: _count(anns, label)


def _mentioned(label: AnnotationLabel, most: int):
    return lambda group, anns: 1 <= _count(anns, label) <= most


def _table_fraction(page: VisualPage, vec) -> float:
    # Table regions may overlap each other or hang off the page; only the
    # on-page portion counts and the fraction is capped at 1.
    table_area = 0.0
    for r in page.table_regions:
        w = max(0.0, min(r.right, page.width) - max(r.left, 0.0))
        h = max(0.0, min(r.bottom, page.height) - max(r.top, 0.0))
        table_area += w * h
    return min(1.0, table_area / (page.width * page.height))


_L = AnnotationLabel

# Eleven features are sums over the page's groups of a non-negative integer
# term of (group, its annotations); the other four are functions of (page,
# vector).  Both tables are in FEATURE_NAMES order, with None where a
# feature is of the other kind.
_TERMS = (
    _mentions(_L.CURRENCY),  # f1 currency mentions
    _mentions(_L.DATE),  # f2 date mentions
    _mentions(_L.EMAIL),  # f3 email addresses
    _mentions(_L.PHONE),  # f4 phone numbers
    _mentions(_L.FAC),  # f5 facility mentions
    None, None,  # f6, f7
    _mentions(_L.ROLE),  # f8 role mentions
    lambda group, anns: (  # f9 words outside page header/footer groups
        0 if group.is_furniture else len(group_text(group).split())),
    lambda group, anns: is_address_candidate(anns),  # f10 groups that look like address blocks
    lambda group, anns: group.border_sides == 4,  # f11 groups boxed on all four sides
    _mentioned(_L.ORG, 3),  # f12 groups with 1..3 organization mentions
    _mentioned(_L.ROLE, 4),  # f13 groups with 1..4 role mentions
    None, None,  # f14, f15
)
_PAGE_FEATURES = (
    None, None, None, None, None,  # f1 to f5
    lambda page, vec: float(len(page.groups)),  # f6 groups on the page
    _table_fraction,  # f7 fraction of page area covered by tables
    None, None, None, None, None, None,  # f8 to f13
    lambda page, vec: vec.f12 / vec.f6 if vec.f6 else 0.0,  # f14 f12 / f6
    lambda page, vec: vec.f13 / vec.f6 if vec.f6 else 0.0,  # f15 f13 / f6
)


def extract_features(page: VisualPage, per_group: "list[GroupAnnotations]") -> FeatureVector:
    """The page's features, each computed when first read.  ``per_group``
    is what ``annotate`` returns for the page, of which a feature reads
    only the labels it counts."""
    if len(per_group) != len(page.groups):
        raise ValueError(
            f"{len(per_group)} annotation lists for a page of {len(page.groups)} groups")
    vec = FeatureVector()
    vec._values = [None] * len(FEATURE_NAMES)
    vec._page, vec._per_group = page, per_group
    vec._partial = [(0, 0)] * len(FEATURE_NAMES)
    return vec


def write_features_csv(f, rows: "list[tuple[FeatureVector, int | None]]") -> None:
    """Write rows as CSV with the frozen header.  ``label`` is 1 for a
    directory page, 0 otherwise, empty when unknown."""
    import csv

    writer = csv.writer(f)
    writer.writerow(list(FEATURE_NAMES) + ["label"])
    for vec, label in rows:
        writer.writerow([repr(v) for v in vec.as_list()] + ["" if label is None else int(label)])


def read_features_csv(f) -> "list[tuple[list[float], int]]":
    """Read labeled feature rows; rows with an empty label are skipped.  An
    error names the line on which the faulty record starts."""
    import csv

    reader = csv.reader(f)
    expected = list(FEATURE_NAMES) + ["label"]
    rows = []
    start = 1  # the line on which the record being read starts
    try:
        header = next(reader, None)
        if header != expected:
            raise ValueError(f"bad CSV header: expected {expected}, got {reprlib.repr(header)}")
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(expected):
                raise ValueError(f"line {lineno}: expected {len(expected)} columns")
            label_text = row[-1].strip().lower()
            if not label_text:
                continue
            if label_text in ("1", "directory", "true"):
                label = 1
            elif label_text in ("0", "non-directory", "false"):
                label = 0
            else:
                raise ValueError(f"line {lineno}: unrecognized label {reprlib.repr(row[-1])}")
            x = [_csv_value(v, name, lineno) for v, name in zip(row, FEATURE_NAMES)]
            rows.append((x, label))
    except csv.Error as e:  # such as a field past the csv module's size limit
        raise ValueError(f"line {start}: {e}") from None
    return rows


def _csv_value(text: str, name: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"line {lineno}: {name} is not a number: {reprlib.repr(text)}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {lineno}: {name} must be finite, got {reprlib.repr(text)}")
    return value
