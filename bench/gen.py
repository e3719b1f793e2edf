"""Seeded input generators for the benchmark.

Every input is built from the two in-repo fixtures, ``fig1a.json`` (one
directory page) and ``fig1a_gold.json`` (its labelled spans and parents), plus
the seed.  Expected outputs are derived here as well, from the fixture and
from the construction itself, never from running the program.
"""

from __future__ import annotations

import calendar
import copy
import csv
import json
import random
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

# Prospectus make-up: PROSPECTUS_PAGES pages, one planted directory page in
# every block of PLANT_EVERY pages.
PROSPECTUS_PAGES = 200
PLANT_EVERY = 20

# Dense-directory make-up: cells per grid page.  A page of k cells carries
# 1 + 2k spans (title, then a header and a body per cell), so these sizes
# give 15, 29, 57, 113, 225, 451 and 901 spans.
GRID_CELLS = (7, 14, 28, 56, 112, 225, 450)
GRID_COLUMNS = 5
# fig1a's own pitch: its two columns start 255pt apart, its rows 80pt apart.
COL_PITCH = 255.0
ROW_PITCH = 80.0

# Training CSV make-up.
TRAIN_POS_SUPPLY = 150
TRAIN_NEG_SUPPLY = 1000
TRAIN_POS = 83
TRAIN_NEG = 800
LABEL_NOISE = 0.15

FEATURE_HEADER = [f"f{i}" for i in range(1, 16)] + ["label"]


# --- fixture access --------------------------------------------------------

def load_fixture():
    """(fig1a page dict, fig1a gold page record)."""
    doc = json.loads((FIXTURES / "fig1a.json").read_text(encoding="utf-8"))
    gold = json.loads((FIXTURES / "fig1a_gold.json").read_text(encoding="utf-8"))
    return doc["pages"][0], gold["pages"][0]


def group_text(group: dict) -> str:
    """Lines top to bottom, segments left to right, joined by single spaces
    (the text convention the gold offsets refer to)."""
    parts = []
    for line in sorted(group["lines"], key=lambda l: l["bbox"]["t"]):
        parts.extend(s["text"] for s in sorted(line["segments"], key=lambda s: s["bbox"]["l"]))
    return " ".join(parts)


def gold_blocks(page: dict, gold: dict) -> list:
    """The page's directory blocks, one per gold Body span in gold order:
    the texts of the headers met walking the gold parents up to the top,
    outermost first, and the body text."""
    spans = gold["spans"]
    texts = [group_text(page["groups"][s["group"]])[s["start"]:s["end"]] for s in spans]
    blocks = []
    for i, s in enumerate(spans):
        if s["label"] != "Body":
            continue
        headers = []
        cur = s["parent"]
        while cur is not None:
            headers.append(texts[cur])
            cur = spans[cur]["parent"]
        blocks.append((tuple(reversed(headers)), texts[i]))
    return blocks


def grid_entries(page: dict, gold: dict):
    """(title group, [(header group, body group), ...]) for fig1a's entries
    that hang directly under the page title: a header whose parent is the
    title, with a body below it."""
    spans = gold["spans"]
    title = next(i for i, s in enumerate(spans) if s["label"] == "Header" and s["parent"] is None)
    entries = []
    for s in spans:
        if s["label"] != "Body":
            continue
        head = spans[s["parent"]]
        if head["parent"] == title:
            entries.append((page["groups"][head["group"]], page["groups"][s["group"]]))
    return page["groups"][spans[title]["group"]], entries


# --- geometry helpers ------------------------------------------------------

def _shift_box(box: dict, dx: float, dy: float) -> dict:
    return {"l": box["l"] + dx, "t": box["t"] + dy, "r": box["r"] + dx, "b": box["b"] + dy}


def shift_group(group: dict, dx: float, dy: float) -> dict:
    g = copy.deepcopy(group)
    g["bbox"] = _shift_box(g["bbox"], dx, dy)
    for line in g["lines"]:
        line["bbox"] = _shift_box(line["bbox"], dx, dy)
        for seg in line["segments"]:
            seg["bbox"] = _shift_box(seg["bbox"], dx, dy)
    return g


def shift_page(page: dict, dx: float, dy: float) -> dict:
    out = {k: v for k, v in page.items() if k != "groups"}
    out["groups"] = [shift_group(g, dx, dy) for g in page["groups"]]
    if "table_regions" in page:
        out["table_regions"] = [_shift_box(b, dx, dy) for b in page["table_regions"]]
    return out


def fig1a_offset(rng: random.Random) -> tuple:
    """A translation that keeps every fig1a group on its 595x842 page.
    Half-point steps keep every coordinate exactly representable."""
    return rng.randint(-80, 90) / 2.0, rng.randint(-100, 40) / 2.0


# --- directory grid pages --------------------------------------------------

def grid_page(cells: int, rng: random.Random):
    """A page of ``cells`` fig1a entries in a grid under fig1a's title.

    Each cell is one of fig1a's three title-level entries, moved as a unit
    so the header keeps its offset to the body.  Returns the page dict and
    its expected blocks in reading order (row by row, left to right).
    """
    fixture, gold = load_fixture()
    title, entries = grid_entries(fixture, gold)
    title_text = group_text(title)
    dx, dy = rng.randint(-20, 20) / 2.0, rng.randint(-20, 20) / 2.0
    groups = [shift_group(title, dx, dy)]
    expected = []
    x0, y0 = entries[0][0]["bbox"]["l"], entries[0][0]["bbox"]["t"]
    for k in range(cells):
        header, body = entries[rng.randrange(len(entries))]
        x = x0 + (k % GRID_COLUMNS) * COL_PITCH + dx
        y = y0 + (k // GRID_COLUMNS) * ROW_PITCH + dy
        mx, my = x - header["bbox"]["l"], y - header["bbox"]["t"]
        groups.append(shift_group(header, mx, my))
        groups.append(shift_group(body, mx, my))
        expected.append(((title_text, group_text(header)), group_text(body)))
    rows = (cells + GRID_COLUMNS - 1) // GRID_COLUMNS
    page = {
        "width": x0 + GRID_COLUMNS * COL_PITCH + 40.0,
        "height": y0 + rows * ROW_PITCH + 60.0,
        "groups": groups,
    }
    return page, expected


# --- narrative pages -------------------------------------------------------

_TEMPLATES = (
    "On {date} the {role} received {amount} from {org}, {addr}.",
    "{org} confirmed on {date} that {amount} was held for the {role}.",
    "Fees of {amount} accrued to the {role} between {date} and {date2}.",
    "As at {date}, {org} reported net assets of {amount}.",
    "The {role} appointed {org} of {addr} with effect from {date}.",
    "A further {amount} is payable to {org} no later than {date}.",
)


def _vocabulary():
    """Organisations, roles and address lines taken from fig1a's bodies and
    headers."""
    page, gold = load_fixture()
    orgs, addrs, roles = [], [], []
    for s in gold["spans"]:
        g = page["groups"][s["group"]]
        lines = [l["segments"][0]["text"] for l in sorted(g["lines"], key=lambda l: l["bbox"]["t"])]
        if s["label"] == "Body":
            orgs.append(re.sub(r"[\s\d,]+$", "", lines[0]))
            addrs.extend(l.rstrip(",") for l in lines[1:])
        elif s["parent"] is not None:
            roles.append(lines[0].lower())
    return orgs, roles, addrs


def _date(rng):
    return f"{rng.randint(1, 28)} {calendar.month_name[rng.randint(1, 12)]} {rng.randint(1995, 2024)}"


def _amount(rng):
    code = rng.choice(("EUR", "USD", "CHF", "GBP"))
    return f"{code} {rng.randint(1_000, 99_000_000):,}"


def _sentence(rng, vocab):
    orgs, roles, addrs = vocab
    return rng.choice(_TEMPLATES).format(
        date=_date(rng), date2=_date(rng), amount=_amount(rng),
        org=rng.choice(orgs), role=rng.choice(roles), addr=rng.choice(addrs),
    )


_STYLE = {"font_family": "Times New Roman", "font_size": 10, "bold": False, "italic": False, "color": 0}
_CHAR_W = 5.0
_LINE_CHARS = 90
_LEFT = 50.0


def _text_group(lines, top, *, footer=False):
    out_lines = []
    for i, text in enumerate(lines):
        box = {"l": _LEFT, "t": top + 12.0 * i, "r": _LEFT + _CHAR_W * len(text), "b": top + 12.0 * i + 10.0}
        out_lines.append({"bbox": box, "segments": [{"text": text, "bbox": box, "style": dict(_STYLE)}]})
    bbox = {
        "l": _LEFT, "t": top, "r": max(l["bbox"]["r"] for l in out_lines),
        "b": out_lines[-1]["bbox"]["b"],
    }
    return {"bbox": bbox, "is_page_header": False, "is_page_footer": footer,
            "border_sides": 0, "lines": out_lines}


def _wrap(text):
    lines, cur = [], ""
    for word in text.split():
        if cur and len(cur) + 1 + len(word) > _LINE_CHARS:
            lines.append(cur)
            cur = word
        else:
            cur = f"{cur} {word}" if cur else word
    if cur:
        lines.append(cur)
    return lines


def narrative_page(rng, vocab, number, total):
    """A page of prose paragraphs dense with dates, amounts and fig1a
    organisation names, filled down to a fixed bottom margin."""
    groups = []
    top = 60.0
    while True:
        para = _wrap(" ".join(_sentence(rng, vocab) for _ in range(rng.randint(3, 6))))
        room = int((770.0 - top) // 12.0)
        if room < 2:
            break
        para = para[:room]
        groups.append(_text_group(para, top))
        top += 12.0 * len(para) + 10.0
    groups.append(_text_group([f"Page {number} of {total}"], 810.0, footer=True))
    return {"width": 595.0, "height": 842.0, "groups": groups}


# --- documents -------------------------------------------------------------

def prospectus(seed: int):
    """(document, {page index: expected blocks}) for the prospectus workload:
    one shifted fig1a page at a seeded position in every block of
    PLANT_EVERY pages, narrative pages elsewhere."""
    rng = random.Random(seed)
    fixture, gold = load_fixture()
    blocks = gold_blocks(fixture, gold)
    vocab = _vocabulary()
    planted = {start + rng.randrange(PLANT_EVERY): blocks
               for start in range(0, PROSPECTUS_PAGES, PLANT_EVERY)}
    out = []
    for i in range(PROSPECTUS_PAGES):
        if i in planted:
            out.append(shift_page(fixture, *fig1a_offset(rng)))
        else:
            out.append(narrative_page(rng, vocab, i + 1, PROSPECTUS_PAGES))
    return {"pages": out}, planted


def dense_directory(seed: int):
    """(document, [expected blocks per page]) of grid pages, sizes in a
    seeded order."""
    rng = random.Random(seed)
    sizes = list(GRID_CELLS)
    rng.shuffle(sizes)
    pages, expected = [], []
    for k in sizes:
        page, blocks = grid_page(k, rng)
        pages.append(page)
        expected.append(blocks)
    return {"pages": pages}, expected


def labelled_corpus(seed: int):
    """(document, labels) for training the page classifier used by the
    prospectus and dense-directory workloads: narrative pages, shifted fig1a
    pages and grid pages spanning the dense sizes."""
    rng = random.Random(seed)
    fixture, _ = load_fixture()
    vocab = _vocabulary()
    pages, labels = [], []
    for i in range(24):
        pages.append(narrative_page(rng, vocab, i + 1, 24))
        labels.append(0)
    for _ in range(6):
        pages.append(shift_page(fixture, *fig1a_offset(rng)))
        labels.append(1)
    for k in (3, 7, 30, 112, 225, 450):
        pages.append(grid_page(k, rng)[0])
        labels.append(1)
    return {"pages": pages}, labels


def training_rows(seed: int):
    """Feature rows whose classes overlap, for the train workload.

    Rows follow the directory/narrative margin pattern (directory pages have
    more groups, roles and address blocks and fewer words), but the class
    ranges overlap and LABEL_NOISE of the labels are flipped, so trees must
    grow deep to fit.  Values sit on a coarse grid, which keeps the number
    of distinct thresholds about the same for every seed.  Exactly
    LABEL_NOISE of each class is flipped: the trees grow to fit the flipped
    labels, and with a count drawn row by row the training work moved by
    13% (IQR over median of ten seeds) from seed to seed, against 6.7%.
    """
    rng = random.Random(seed)
    rows = []
    for label, n in ((1, TRAIN_POS_SUPPLY), (0, TRAIN_NEG_SUPPLY)):
        d = label  # shifts the ranges of directory-drawn rows
        flipped = set(rng.sample(range(n), round(LABEL_NOISE * n)))
        for i in range(n):
            f6 = float(rng.randint(6, 16) + 4 * d)
            f12 = float(rng.randint(0, 4) + 2 * d)
            f13 = float(rng.randint(0, 4) + 2 * d)
            x = [
                float(rng.randint(0, 6 - 2 * d)),          # currency mentions
                float(rng.randint(0, 6 - 2 * d)),          # dates
                float(rng.randint(0, 1 + d)),              # emails
                float(rng.randint(0, 2 + d)),              # phones
                float(rng.randint(0, 1)),                  # facilities
                f6,                                        # groups
                rng.randint(0, 20) / 100.0,                # table area
                float(rng.randint(0, 6) + 2 * d),          # roles
                float(rng.randint(8, 40) * 10 - 80 * d),   # words
                float(rng.randint(0, 6) + 2 * d),          # address blocks
                float(rng.randint(0, 2)),                  # bordered groups
                f12,
                f13,
                round(f12 / f6, 2),
                round(f13 / f6, 2),
            ]
            rows.append((x, 1 - label if i in flipped else label))
    rng.shuffle(rows)
    return rows


def write_rows(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(FEATURE_HEADER)
        for x, y in rows:
            w.writerow([repr(v) for v in x] + [y])


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, separators=(",", ":")), encoding="utf-8")
