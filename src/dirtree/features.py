"""Page-level feature extraction for the directory-page classifier.

Fifteen counts and ratios per page.  The order of the vector is frozen:
serialized models and CSV exports both depend on it.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from .annotate import Annotation, AnnotationLabel, GroupAnnotations, is_address_candidate
from .visual import VisualPage, group_text

FEATURE_NAMES = (
    "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8",
    "f9", "f10", "f11", "f12", "f13", "f14", "f15",
)


@dataclass(frozen=True)
class FeatureVector:
    f1: float = 0.0   # currency mentions
    f2: float = 0.0   # date mentions
    f3: float = 0.0   # email addresses
    f4: float = 0.0   # phone numbers
    f5: float = 0.0   # facility mentions
    f6: float = 0.0   # groups on the page
    f7: float = 0.0   # fraction of page area covered by tables
    f8: float = 0.0   # role mentions
    f9: float = 0.0   # words outside page header/footer groups
    f10: float = 0.0  # groups that look like address blocks
    f11: float = 0.0  # groups boxed on all four sides
    f12: float = 0.0  # groups with 1..3 organization mentions
    f13: float = 0.0  # groups with 1..4 role mentions
    f14: float = 0.0  # f12 / f6
    f15: float = 0.0  # f13 / f6

    def as_list(self) -> list[float]:
        return [getattr(self, name) for name in FEATURE_NAMES]

    @classmethod
    def from_list(cls, values: "list[float]") -> "FeatureVector":
        if len(values) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} values, got {len(values)}")
        return cls(**{name: float(v) for name, v in zip(FEATURE_NAMES, values)})


# The labels whose counts the features read.
_COUNTED_LABELS = (
    AnnotationLabel.CURRENCY, AnnotationLabel.DATE, AnnotationLabel.EMAIL,
    AnnotationLabel.PHONE, AnnotationLabel.FAC, AnnotationLabel.ROLE, AnnotationLabel.ORG,
)


def extract_features(page: VisualPage, per_group: "list[Sequence[Annotation]]") -> FeatureVector:
    """``per_group`` holds the page's annotations, one sequence per group:
    what ``annotate`` returns, of which only the counted labels are read
    and no ``Annotation`` is built, or plain lists."""
    groups = page.groups
    if len(per_group) != len(groups):
        raise ValueError(
            f"{len(per_group)} annotation lists for a page of {len(groups)} groups")

    org, role = AnnotationLabel.ORG, AnnotationLabel.ROLE
    totals = dict.fromkeys(_COUNTED_LABELS, 0)
    f10 = f12 = f13 = 0
    for anns in per_group:
        if isinstance(anns, GroupAnnotations):
            counts = {label: len(anns.spans_of(label)) for label in _COUNTED_LABELS}
        else:
            counts = Counter(a.label for a in anns)
        for label in _COUNTED_LABELS:  # a Counter reads 0 for a missing label
            totals[label] += counts[label]
        f10 += is_address_candidate(anns)
        f12 += 1 <= counts[org] <= 3
        f13 += 1 <= counts[role] <= 4

    f1 = totals[AnnotationLabel.CURRENCY]
    f2 = totals[AnnotationLabel.DATE]
    f3 = totals[AnnotationLabel.EMAIL]
    f4 = totals[AnnotationLabel.PHONE]
    f5 = totals[AnnotationLabel.FAC]
    f6 = len(groups)

    # Table regions may overlap each other or hang off the page; only the
    # on-page portion counts and the fraction is capped at 1.
    table_area = 0.0
    for r in page.table_regions:
        w = max(0.0, min(r.right, page.width) - max(r.left, 0.0))
        h = max(0.0, min(r.bottom, page.height) - max(r.top, 0.0))
        table_area += w * h
    f7 = min(1.0, table_area / (page.width * page.height))

    f8 = totals[role]
    f9 = sum(
        len(group_text(g).split()) for g in groups if not g.is_furniture
    )
    f11 = sum(1 for g in groups if g.border_sides == 4)
    f14 = f12 / f6 if f6 else 0.0
    f15 = f13 / f6 if f6 else 0.0

    return FeatureVector(
        f1=float(f1), f2=float(f2), f3=float(f3), f4=float(f4), f5=float(f5),
        f6=float(f6), f7=f7, f8=float(f8), f9=float(f9), f10=float(f10),
        f11=float(f11), f12=float(f12), f13=float(f13), f14=f14, f15=f15,
    )


def write_features_csv(f, rows: "list[tuple[FeatureVector, int | None]]") -> None:
    """Write rows as CSV with the frozen header.  ``label`` is 1 for a
    directory page, 0 otherwise, empty when unknown."""
    writer = csv.writer(f)
    writer.writerow(list(FEATURE_NAMES) + ["label"])
    for vec, label in rows:
        writer.writerow([repr(v) for v in vec.as_list()] + ["" if label is None else int(label)])


def read_features_csv(f) -> "list[tuple[list[float], int]]":
    """Read labeled feature rows; rows with an empty label are skipped."""
    reader = csv.reader(f)
    header = next(reader, None)
    expected = list(FEATURE_NAMES) + ["label"]
    if header != expected:
        raise ValueError(f"bad CSV header: expected {expected}, got {header}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
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
            raise ValueError(f"line {lineno}: unrecognized label {row[-1]!r}")
        x = [_csv_value(v, name, lineno) for v, name in zip(row, FEATURE_NAMES)]
        rows.append((x, label))
    return rows


def _csv_value(text: str, name: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"line {lineno}: {name} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {lineno}: {name} must be finite, got {text!r}")
    return value


def features_csv_text(rows) -> str:
    buf = io.StringIO()
    write_features_csv(buf, rows)
    return buf.getvalue()
