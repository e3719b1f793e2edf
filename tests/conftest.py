"""Shared builders for tests.

Pages are assembled as plain JSON dicts and pushed through parse_document so
every test page also exercises the ingestion path.
"""

import copy
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from dirtree.annotate import AnnotationLabel
from dirtree.forest import Dataset, ForestHyperparams, save_model, train
from dirtree.segment import LabeledSpan, SpanLabel
from dirtree.visual import BBox, StyleInfo, parse_document

FIXTURES = Path(__file__).parent / "fixtures"

# Property tests run on shared machines whose speed varies, so no example
# has a time limit; each test still sets its own max_examples.
settings.register_profile("dirtree", deadline=None)
settings.load_profile("dirtree")

DEFAULT_FAMILY = "Serif"

EN = "–"

# The six blocks the pipeline must emit for the fig1a fixture.
EXPECTED_BLOCKS = [
    (["DIRECTORY", "Registered Office of the Fund"],
     f"Deutsche Bank (Suisse) S.A. 2 Boulevard Konrad Adenauer, L {EN} 1115 Luxemburg, "
     "Grand Duchy of Luxembourg"),
    (["DIRECTORY", "Administrator of the Fund"],
     "Deutsche Bank (Suisse) S.A. 4th Floor Bahnhofquai 9/11, CH-8023 Zurich, Switzerland"),
    (["DIRECTORY", "Auditor of the Fund"],
     f"KPMG Luxembourg Société Coopérative 39, Avenue John F. Kennedy, L{EN}1855 "
     "Luxembourg, Grand Duchy of Luxembourg"),
    (["DIRECTORY", "Legal Counsel to the Fund and Master Fund", "(as per Hong Kong Legal Matters)"],
     "RAM (LUX) SYSTEMATIC FUNDS 14, boulevard Royal L-2449 LUXEMBOURG"),
    (["DIRECTORY", "Legal Counsel to the Fund and Master Fund", "(as per Singapore Legal Matters)"],
     "BANQUE DE LUXEMBOURG Société anonyme (public limited company) 14, "
     "boulevard Royal L-2449 LUXEMBOURG"),
    (["DIRECTORY", "Legal Counsel to the Fund and Master Fund", "(as per Cayman Legal Matters)"],
     "Oddo Asset Management SA 12, boulevard de la Madeleine 75440 Paris Cedex 09 France"),
]

# First seven texts of the reversed reading sequence on the same fixture.
WALKTHROUGH_REVERSED = [
    EXPECTED_BLOCKS[5][1],         # bottom-right body
    "(as per Cayman Legal Matters)",
    EXPECTED_BLOCKS[4][1],
    EXPECTED_BLOCKS[3][1],
    "(as per Singapore Legal Matters)",
    "(as per Hong Kong Legal Matters)",
    "Legal Counsel to the Fund and Master Fund",
]

_GROUP_COUNTER = itertools.count(100)


def mkspan(text, l, t, r, b, label=SpanLabel.BODY, *, gi=None, size=10.0,
           bold=False, italic=False, color=0, family=DEFAULT_FAMILY, rule="default_body"):
    """A labeled span with direct geometry, bypassing the page parser."""
    if gi is None:
        gi = next(_GROUP_COUNTER)
    return LabeledSpan(
        group_index=gi,
        start=0,
        end=len(text),
        label=label,
        text=text,
        bbox=BBox(l, t, r, b),
        style_summary=StyleInfo(family, size, bold, italic, color),
        fired_rule=rule,
    )


def address_candidate_reference(anns):
    """``is_address_candidate`` on a plain list of annotations: at least two
    of GPE, POSTCODE and CARDINAL occur."""
    indicators = {AnnotationLabel.GPE, AnnotationLabel.POSTCODE, AnnotationLabel.CARDINAL}
    return len({a.label for a in anns} & indicators) >= 2


def seg(text, l, t, r, b, *, family=DEFAULT_FAMILY, size=10.0, bold=False,
        italic=False, color=0):
    return {
        "text": text,
        "bbox": {"l": l, "t": t, "r": r, "b": b},
        "style": {
            "font_family": family,
            "font_size": size,
            "bold": bold,
            "italic": italic,
            "color": color,
        },
    }


def _union(boxes):
    return {
        "l": min(b["l"] for b in boxes),
        "t": min(b["t"] for b in boxes),
        "r": max(b["r"] for b in boxes),
        "b": max(b["b"] for b in boxes),
    }


def line(*segments):
    return {"bbox": _union([s["bbox"] for s in segments]), "segments": list(segments)}


def group(*lines, header=False, footer=False, border=0):
    return {
        "bbox": _union([l["bbox"] for l in lines]),
        "is_page_header": header,
        "is_page_footer": footer,
        "border_sides": border,
        "lines": list(lines),
    }


def text_group(text, l, t, r, b, **kw):
    """One-line one-segment group; style keywords pass through to seg()."""
    header = kw.pop("header", False)
    footer = kw.pop("footer", False)
    border = kw.pop("border", 0)
    return group(
        line(seg(text, l, t, r, b, **kw)),
        header=header,
        footer=footer,
        border=border,
    )


def page(*groups, width=600, height=800, tables=None):
    out = {"width": width, "height": height, "groups": list(groups)}
    if tables is not None:
        out["table_regions"] = tables
    return out


def doc(*pages):
    return {"pages": list(pages)}


def parse_page(*groups, **kw):
    return parse_document(doc(page(*groups, **kw)))[0]


def random_page_dict(rng: random.Random):
    """A random but schema-valid page for fuzz tests."""
    families = ["Serif", "Sans"]
    groups = []
    for gi in range(rng.randint(1, 6)):
        lines = []
        top = rng.uniform(0, 700)
        left = rng.uniform(0, 400)
        for li in range(rng.randint(1, 3)):
            segs = []
            x = left
            y = top + li * 14
            for si in range(rng.randint(1, 3)):
                words = [
                    rng.choice(
                        ["Fund", "Custodian", "S.A.", "Luxembourg", "12,",
                         "street", "Tel:", "Objectives:", "75440", "and",
                         "Acme", "L-2449", "   ", "x"]
                    )
                    for _ in range(rng.randint(1, 4))
                ]
                text = " ".join(words)
                x = min(x, 590.0)
                w = max(4.0, 4.0 * len(text))
                segs.append(
                    seg(
                        text, x, y, min(x + w, 600.0), y + 10,
                        family=rng.choice(families),
                        size=rng.choice([8.0, 10.0, 10.0, 12.0, 16.0]),
                        bold=rng.random() < 0.25,
                        italic=rng.random() < 0.15,
                        color=rng.choice([0, 0, 0, 255]),
                    )
                )
                x += w + 3
            lines.append(line(*segs))
        groups.append(
            group(
                *lines,
                header=rng.random() < 0.05,
                footer=rng.random() < 0.05,
                border=rng.choice([0, 0, 0, 4]),
            )
        )
    return page(*groups, width=600, height=800)


# --- faulty documents --------------------------------------------------------
#
# Random valid pages with one to four faults, for the parser's reference test
# and the CLI fuzz test; ``with_faults`` puts faults into any JSON input.

def json_nodes(value, where=()):
    """Every value of a JSON document with its steps from the root."""
    yield where, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from json_nodes(child, where + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from json_nodes(child, where + (i,))


def parent_of(document, where):
    """The array or object holding the value at ``where``."""
    for step in where[:-1]:
        document = document[step]
    return document


# Values swapped in for any value (a bool for an int, a string for a number,
# an object for an array), and for a number: NaN, infinities, negative
# numbers, zero, integers beyond the float range and beyond 24 bits.
_ODD_VALUES = [True, False, None, "7", "", {}, [], 3, 0.5]
_ODD_NUMBERS = [math.nan, math.inf, -math.inf, -1, -2.5, 0, 0.0, 5, 0x1000000,
                10**400, -(10**400), True, "7"]

# Stand-ins that ``fault_text`` writes as JSON no encoder writes: the number
# 1e400, past the float range, and arrays nested 500 deep (which decode) and
# 2,000 deep (which do not).
FLOAT_PAST_RANGE = "\x00 1e400"
NESTED_ARRAY = "\x00 nested"
DEEP_ARRAY = "\x00 deep"
ODD_JSON = [FLOAT_PAST_RANGE, NESTED_ARRAY, DEEP_ARRAY, 2.9, 2**64, -(2**64), 1e308]


def fault_text(document) -> str:
    """The document as JSON text, with the stand-ins above written out."""
    return (json.dumps(document)
            .replace(json.dumps(FLOAT_PAST_RANGE), "1e400")
            .replace(json.dumps(NESTED_ARRAY), "[" * 500 + "]" * 500)
            .replace(json.dumps(DEEP_ARRAY), "[" * 2000 + "]" * 2000))


@st.composite
def faulty_documents(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    pages = [random_page_dict(rng) for _ in range(rng.randint(1, 2))]
    for p in pages:
        if rng.random() < 0.5:
            p["table_regions"] = [{"l": 10, "t": 10, "r": 200, "b": 300}]
    return draw(with_faults(doc(*pages)))


@st.composite
def with_faults(draw, document, odd=(), grow=False):
    """A copy of ``document`` with one to four faults.  ``odd`` adds to the
    values swapped in; with ``grow`` an array may then be repeated 2,001
    times."""
    document = copy.deepcopy(document)
    # Faults go into one object and what it holds (a page, a group, a line,
    # a segment, a box), so that several faults often meet in one object and
    # the order of its checks shows.
    focus = draw(st.sampled_from([w for w, v in json_nodes(document) if isinstance(v, dict)]))
    for _ in range(draw(st.integers(1, 4))):
        fault = draw(st.sampled_from(sorted(_FAULTS)))
        nodes = [(where, value) for where, value in json_nodes(document)
                 if where[:len(focus)] == focus and _FAULTS[fault](where, value)]
        if not nodes:
            continue
        where, value = draw(st.sampled_from(nodes))
        if fault == "drop":
            del value[draw(st.sampled_from(sorted(value)))]
        elif fault == "swap":
            parent_of(document, where)[where[-1]] = draw(st.sampled_from(_ODD_VALUES + [*odd]))
        elif fault == "number":
            parent_of(document, where)[where[-1]] = draw(st.sampled_from(_ODD_NUMBERS + [*odd]))
        elif fault == "empty":
            value.clear()
        elif fault == "edges":
            a, b = draw(st.sampled_from([("l", "r"), ("t", "b")]))
            value[a], value[b] = value[b], value[a]
        else:
            edge = draw(st.sampled_from("ltrb"))
            value[edge] += draw(st.sampled_from([-3, -1e-7, 1e-7, 0.5, 900]))
    arrays = [value for where, value in json_nodes(document)
              if where[:len(focus)] == focus and isinstance(value, list) and value]
    if grow and arrays and draw(st.booleans()):
        value = draw(st.sampled_from(arrays))
        value.extend(value * 2000)
    return document


@st.composite
def with_cycle(draw, document):
    """A copy of ``document`` in which the ``parent`` links of one to three
    records of one array loop.  The records are a predicted tree's nodes,
    which name a parent by its "id", or a gold page's spans, which name it by
    its index; a node's ``children`` are relinked to match its new parent,
    so that only the loop is wrong.  Any record but the root may loop: a
    Neither span too, whose parent must be null although the gold tree
    leaves it out."""
    document = copy.deepcopy(document)
    arrays = [value for where, value in json_nodes(document) if isinstance(value, list)
              and any(isinstance(r, dict) and "parent" in r for r in value)]
    records = draw(st.sampled_from(arrays))
    keys = [r.get("id", i) for i, r in enumerate(records)]
    loop = draw(st.lists(st.sampled_from([i for i, r in enumerate(records)
                                          if r.get("label") != "Root"]),
                         min_size=1, max_size=3, unique=True))
    for child, parent in zip(loop, loop[1:] + loop[:1]):
        records[child]["parent"] = keys[parent]
        if "children" in records[parent]:
            for r in records:
                if keys[child] in r["children"]:
                    r["children"].remove(keys[child])
            records[parent]["children"].append(keys[child])
    return document


def _is_number(value):
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _is_box(value):
    """An object whose four edges are numbers that a shift keeps finite."""
    return isinstance(value, dict) and all(
        _is_number(value.get(k)) and abs(value[k]) < 1e300 for k in "ltrb")


# Which values each fault applies to: drop a key of an object, swap any value
# but the document, swap a number, empty an array, swap a box's edges or move
# one edge (so that a box is no longer the union of its children).
_FAULTS = {
    "drop": lambda where, value: isinstance(value, dict) and bool(value),
    "swap": lambda where, value: bool(where),
    "number": lambda where, value: _is_number(value),
    "empty": lambda where, value: isinstance(value, list) and bool(value),
    "edges": lambda where, value: _is_box(value),
    "shift": lambda where, value: _is_box(value),
}


def make_margin_rows(n_pos, n_neg, seed):
    """Feature rows linearly separable on the address-candidate and role
    counts, mimicking how directory pages differ from narrative ones."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n_pos):
        f6 = float(rng.randint(8, 20))
        f12 = float(rng.randint(2, 6))
        f13 = float(rng.randint(1, 5))
        x = [
            float(rng.randint(0, 2)),   # currency mentions
            float(rng.randint(0, 2)),   # dates
            float(rng.randint(0, 1)),   # emails
            float(rng.randint(0, 2)),   # phones
            float(rng.randint(0, 1)),   # facilities
            f6,                          # groups
            rng.uniform(0.0, 0.1),       # table area
            float(rng.randint(2, 8)),    # roles
            float(rng.randint(60, 200)), # words
            float(rng.randint(3, 9)),    # address candidates
            float(rng.randint(0, 2)),    # bordered groups
            f12,
            f13,
            f12 / f6,
            f13 / f6,
        ]
        rows.append((tuple(x), 1))
    for _ in range(n_neg):
        f6 = float(rng.randint(1, 30))
        f12 = float(rng.randint(0, 1))
        x = [
            float(rng.randint(0, 3)),
            float(rng.randint(0, 3)),
            float(rng.randint(0, 2)),
            float(rng.randint(0, 2)),
            float(rng.randint(0, 1)),
            f6,
            rng.uniform(0.0, 0.9),
            float(rng.randint(0, 1)),
            float(rng.randint(5, 600)),
            0.0,
            float(rng.randint(0, 2)),
            f12,
            0.0,
            f12 / f6,
            0.0,
        ]
        rows.append((tuple(x), 0))
    return rows


@pytest.fixture(scope="session")
def fig1a_path():
    return FIXTURES / "fig1a.json"


@pytest.fixture(scope="session")
def fig1a_gold_path():
    return FIXTURES / "fig1a_gold.json"


@pytest.fixture(scope="session")
def fig1a_page(fig1a_path):
    return parse_document(fig1a_path.read_bytes())[0]


@pytest.fixture(scope="session")
def fig1a_gold(fig1a_gold_path):
    return json.loads(fig1a_gold_path.read_text())


@pytest.fixture(scope="session")
def trained_model_path(tmp_path_factory):
    """A classifier trained on the synthetic margin data, saved to disk."""
    data = Dataset(make_margin_rows(80, 120, seed=7))
    model = train(data, ForestHyperparams(n_trees=15, seed=11))
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, str(path))
    return path
