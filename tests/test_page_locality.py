"""A page's results depend on that page alone.

Annotation is a page-local value (one list per group), so a page's index in
its document, the other pages around it, and a rigid shift of its geometry
must not change what the pipeline says about it.
"""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dirtree import cli
from dirtree.annotate import Gazetteer, annotate
from dirtree.features import extract_features
from dirtree.forest import load_model
from dirtree.pipeline import page_runs
from dirtree.segment import RULE_ENTITY_BODY, RULE_ROLE_ADDRESS, segment_page, spans_to_json
from dirtree.tree import blocks_to_json
from dirtree.visual import parse_document

from conftest import EXPECTED_BLOCKS, FIXTURES, doc, group, line, page, seg, text_group

GAZ = Gazetteer.default()

# A prospectus page of running text, with page furniture at both ends.
NARRATIVE = page(
    text_group("Annual Report 2020", 40, 20, 300, 32, header=True),
    text_group("Investment Objectives", 40, 60, 260, 74, bold=True, size=12.0),
    group(
        line(seg("The Fund seeks long-term capital growth by investing", 40, 80, 400, 90)),
        line(seg("in equities listed on recognised exchanges.", 40, 92, 360, 102)),
    ),
    text_group("Subscriptions of EUR 1,000 are accepted from 15 March 2021.",
               40, 110, 460, 120),
    text_group("Page 3", 280, 780, 320, 790, footer=True),
)


def _fig1a():
    return json.loads((FIXTURES / "fig1a.json").read_text())["pages"][0]


def _shifted(obj, dx, dy):
    """A copy of a page dict with every box moved right by dx and down by dy."""
    if isinstance(obj, list):
        return [_shifted(v, dx, dy) for v in obj]
    if not isinstance(obj, dict):
        return obj
    if set(obj) == {"l", "t", "r", "b"}:
        return {k: v + (dx if k in "lr" else dy) for k, v in obj.items()}
    return {k: _shifted(v, dx, dy) for k, v in obj.items()}


THREE_PAGES = [NARRATIVE, _fig1a(), _shifted(_fig1a(), 0.5, 0.5)]


def _paragraph(top, *lines):
    return group(*(line(seg(text, 40, top + 12 * i, 560, top + 12 * i + 10))
                   for i, text in enumerate(lines)))


# Several paragraphs of prospectus prose: dates, amounts, organisations,
# roles and places, with non-ASCII groups whose case folding differs from
# ASCII (ſ folds to s, İ and ı to i).
LONG_NARRATIVE = page(
    text_group("Prospectus dated 1 June 2021", 40, 20, 300, 32, header=True),
    _paragraph(
        60,
        "The Management Company, Oddo Asset Management SA of 12, boulevard de",
        "la Madeleine, 75440 Paris, has appointed Deutsche Bank (Suisse) S.A. as",
        "Custodian and Paying Agent, and KPMG Luxembourg Société Coopérative as",
        "Auditor of the Fund with effect from January 1, 2021.",
    ),
    _paragraph(
        120,
        "Subscriptions of EUR 1,000 or USD 2,500 are accepted on 15/03/2021, and",
        "a fee of €50 or $1.5 per unit is paid to the Transfer Agent, Banque de",
        "Commerce S.A., at 14, boulevard Royal L-2449 LUXEMBOURG, Grand  Duchy of",
        "Luxembourg (Tel: +352 26 12 34 56, info@fund.lu) by 2021-12-31.",
    ),
    _paragraph(
        180,
        "The Board of Directors of Acme Capital Holdings Limited and Alpha Beta",
        "Limited, and the Investment Manager and Sub-Investment Manager, meet in",
        "London, New York, Hong Kong and the Cayman Islands; the Registrar and",
        "the Company Secretary keep the Registered Office in George Town.",
    ),
    _paragraph(
        240,
        "Zürich, Genève and ZÜRICH host the Swiss Representative of Banque Privée",
        "Société Anonyme and of BANQUE DE LUXEMBOURG Société anonyme (public",
        "limited company), at Bahnhofquai 9/11, CH-8023 Zurich, Switzerland.",
    ),
    _paragraph(
        290,
        "The Adminiſtrator of the Fund, İnvestment Manager and İSTANBUL Limıted",
        "report to the ſponsor in Luxemburg and Dublın on 4th Floor, room 39.",
    ),
    text_group("Page 7 of 120", 280, 780, 340, 790, footer=True),
)

COMMANDS = [
    ("annotate",),
    ("features",),
    ("segment",),
    ("tree",),
    ("blocks", "--pages", "all"),
]


def _stdout(capsys, tmp_path, pages, *command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc(*pages)))
    assert cli.run([command[0], str(path), *command[1:]]) == 0
    return capsys.readouterr().out


def _by_page(command, out):
    """Per-page output keyed by page index, with the index itself dropped."""
    if command == "features":
        return dict(enumerate(out.splitlines()[1:]))
    data = json.loads(out)
    if command == "blocks":
        pages = {}
        for b in data["blocks"]:
            pages.setdefault(b.pop("page"), []).append(b)
        return pages
    return {p.pop("page"): p for p in data["pages"]}


def test_page_index_only_stamps_spans(fig1a_page):
    # Spans carry no page index; the JSON writer stamps the one it is given.
    anns = annotate(fig1a_page, GAZ)
    spans = segment_page(fig1a_page, anns)
    assert spans_to_json(3, spans) == dict(spans_to_json(0, spans), page=3)
    assert {RULE_ENTITY_BODY, RULE_ROLE_ADDRESS} <= {s.fired_rule for s in spans}
    vec = extract_features(fig1a_page, anns)
    assert (vec.f8, vec.f10, vec.f12, vec.f13) == (3, 6, 5, 3)


def _two_pages():
    return parse_document(doc(NARRATIVE, _fig1a()))


def test_extract_features_rejects_other_pages_annotations():
    narrative, fig1a = _two_pages()
    with pytest.raises(ValueError, match="5 annotation lists for a page of 15 groups"):
        extract_features(fig1a, annotate(narrative, GAZ))


def test_segment_page_rejects_other_pages_annotations():
    narrative, fig1a = _two_pages()
    with pytest.raises(ValueError, match="15 annotation lists for a page of 5 groups"):
        segment_page(narrative, annotate(fig1a, GAZ))


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_page_output_independent_of_document(command, capsys, tmp_path):
    whole = _by_page(command[0], _stdout(capsys, tmp_path, THREE_PAGES, *command))
    assert sorted(whole) == [0, 1, 2]
    for i, p in enumerate(THREE_PAGES):
        alone = _by_page(command[0], _stdout(capsys, tmp_path, [p], *command))
        assert whole[i] == alone[0], f"page {i}"


def test_translated_page_gives_reference_blocks(capsys, tmp_path):
    out = json.loads(_stdout(capsys, tmp_path, [THREE_PAGES[2]], "blocks", "--pages", "all"))
    assert [(b["headers"], b["body"]) for b in out["blocks"]] == EXPECTED_BLOCKS


# SHA-256 of stdout, computed before annotations became page-local.
PINNED = {
    ("fig1a", "annotate"):
        "c2ae03f1a7490b3f15db8edb1f5e03d6d9a22f5a4ae471a769399c5e9f042459",
    ("fig1a", "features"):
        "2cf9f8a55ddd023934648ddf7e789d6a58f28bd6ff8193a05779eab5e4792e63",
    ("fig1a", "segment"):
        "5f6f36162f408f421ee748f210f1a3586207cbe28fce7954f5f355f9d30e9de7",
    ("fig1a", "tree"):
        "d15853194fe2967649cae2cdc382434ca37e26e4dd15a24cc30abc2f3ec2e1eb",
    ("fig1a", "blocks"):
        "a9598624d83755e6c3c79965b3d7ad486da8398afd968d95dd02576b85716144",
    ("three_pages", "annotate"):
        "18c98858c37fb7e3ddbcf81593cae43d7c782e73dd5d9a7eea559c3ed720d75c",
    ("three_pages", "features"):
        "339a39a8d960a157aaf57b68f234056d7e418d1d7f7d2646eccc969a0dcc23cf",
    ("three_pages", "segment"):
        "7866e72264422d62ecd690e4ab58a0c56f587b4caf429dcae7199460e18171da",
    ("three_pages", "tree"):
        "d4aeb2d742da140f97770c3e3d737bb592630640925dd3fec0889866d0799741",
    ("three_pages", "blocks"):
        "c59782d423c2ec0eb88e78acd0dc90870946d17d1386ffb2d0b3dd241c9e5e6a",
    # Computed before phrase matching moved to a first-word index.
    ("long_narrative", "annotate"):
        "ee645da642175e1a3a69db29f1862852dfb222c89a5ea748c4ad1b17eca96bc4",
    ("long_narrative", "features"):
        "0309e5022381e9828a248cb6185601ad7ad4d130714bd307da7a1d6f64fbfe3f",
    ("long_narrative", "segment"):
        "4744de51c751406ab6bdca0398bb6c00f43489b46712346a6afd32f3c368bb19",
    ("long_narrative", "tree"):
        "198860a03e8ccc070c7eadd45fc701cb5fcb9d62db41f97b7796234d0f492db2",
    ("long_narrative", "blocks"):
        "23258ff162d82b113d428897aca7a52c438dcf32d681ea7b0f086a6e62a6cf4f",
    # Scored with the ``trained_model_path`` model; computed before features
    # were computed when first read.
    ("fig1a", "classify"):
        "6e9b43f0642b8b221ca2cea936abb1bbe54ac428d7e8317d1d24472511bf03da",
    ("fig1a", "blocks --pages auto"):
        "a9598624d83755e6c3c79965b3d7ad486da8398afd968d95dd02576b85716144",
    ("three_pages", "classify"):
        "e6c154e82eae024fba279ee19910e9cddae5c8025588511a023edb315ac3029f",
    ("three_pages", "blocks --pages auto"):
        "8c1c75d87ff2d7e4ea2d667bd0d11f182bda22fb0e7f4160e504a041c91761da",
    ("long_narrative", "classify"):
        "6e9b43f0642b8b221ca2cea936abb1bbe54ac428d7e8317d1d24472511bf03da",
    ("long_narrative", "blocks --pages auto"):
        "23258ff162d82b113d428897aca7a52c438dcf32d681ea7b0f086a6e62a6cf4f",
}

PINNED_PAGES = {
    "fig1a": [_fig1a()],
    "three_pages": THREE_PAGES,
    "long_narrative": [LONG_NARRATIVE],
}


@pytest.mark.parametrize("pages", list(PINNED_PAGES))
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_cli_bytes_pinned(pages, command, capsys, tmp_path):
    out = _stdout(capsys, tmp_path, PINNED_PAGES[pages], *command)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PINNED[(pages, command[0])]


@pytest.mark.parametrize("pages", list(PINNED_PAGES))
@pytest.mark.parametrize("command", [("classify",), ("blocks", "--pages", "auto")],
                         ids=lambda c: c[0])
def test_scored_cli_bytes_pinned(pages, command, capsys, tmp_path, trained_model_path):
    out = _stdout(capsys, tmp_path, PINNED_PAGES[pages], *command,
                  "--model", str(trained_model_path))
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PINNED[(pages, " ".join(command))]


# --- group order ---

def _blocks_json(page_dict) -> str:
    (run,) = page_runs(parse_document(doc(page_dict)), GAZ, "all")
    return json.dumps(blocks_to_json(run.blocks, page_index=run.index))


def _with_groups_in_order(page_dict, order):
    groups = page_dict["groups"]
    return dict(page_dict, groups=[groups[i] for i in order])


_GRID_TITLES = ["Registered Office", "Administrator", "Auditor", "Acme Capital S.A.",
                "Custodian:", "KPMG Luxembourg"]
_GRID_LINES = ["12 Main Street", "London EC2A 1AA", "L-2449 Luxembourg", "Tel: +352 26 12 34 56"]


def _grid(entries, columns):
    """A title above a grid of entries, each a bold title over a body of one
    or two lines.  An entry may have a second bold title stacked at the same
    top-left corner, narrower or wider than the first."""
    groups = [text_group("DIRECTORY OF ADVISERS", 40, 20, 400, 36, size=16.0, bold=True)]
    for i, (title, body, stacked) in enumerate(entries):
        left, top = 40 + (i % columns) * 110.0, 60 + (i // columns) * 50.0
        groups.append(text_group(title, left, top, left + 100, top + 10, bold=True))
        if stacked is not None:
            other, width = stacked
            groups.append(text_group(other, left, top, left + width, top + 10, bold=True))
        groups.append(group(*(line(seg(text, left, top + 14 + 12 * k, left + 100, top + 24 + 12 * k))
                              for k, text in enumerate(body))))
    return page(*groups, width=640, height=120 + 50 * (len(entries) // columns + 1))


def _column(rows):
    """A title above a column of one-line body groups, 10 pt high on a 12 pt
    pitch, so that they chain into entries; a row may have a bold header
    beside it, on the left."""
    groups = [text_group("DIRECTORY OF ADVISERS", 40, 20, 400, 36, size=16.0, bold=True)]
    for i, (text, beside) in enumerate(rows):
        top = 60 + 12.0 * i
        if beside is not None:
            groups.append(text_group(beside, 40, top, 140, top + 10, bold=True))
        groups.append(text_group(text, 160, top, 400, top + 10))
    return page(*groups, width=640, height=80 + 12 * len(rows))


_COLUMNS = st.lists(st.tuples(st.sampled_from(_GRID_LINES), st.none() | st.sampled_from(_GRID_TITLES)),
                    min_size=1, max_size=12).map(_column)


@st.composite
def _grid_and_order(draw):
    entries = draw(st.lists(st.tuples(
        st.sampled_from(_GRID_TITLES),
        st.lists(st.sampled_from(_GRID_LINES), min_size=1, max_size=2),
        st.none() | st.tuples(st.sampled_from(_GRID_TITLES), st.sampled_from([60, 100]))),
        min_size=1, max_size=12))
    grid = _grid(entries, draw(st.integers(1, 5)))
    return grid, draw(st.permutations(range(len(grid["groups"]))))


_GRIDS = _grid_and_order().map(lambda c: c[0])


@settings(max_examples=100, deadline=None)
@given(st.permutations(range(len(_fig1a()["groups"]))))
def test_fig1a_blocks_independent_of_group_order(order):
    fig1a = _fig1a()
    assert _blocks_json(_with_groups_in_order(fig1a, order)) == _blocks_json(fig1a)


@settings(max_examples=100, deadline=None)
@given(_grid_and_order())
def test_grid_blocks_independent_of_group_order(case):
    grid, order = case
    assert _blocks_json(_with_groups_in_order(grid, order)) == _blocks_json(grid)


# A grid page of several hundred spans: every title, one- and two-line
# bodies and, every seventh entry, a stacked title, in a fixed cycle.
LARGE_GRID = _grid([
    (_GRID_TITLES[i % 6], [_GRID_LINES[i % 4], _GRID_LINES[(i + 1) % 4]][:1 + i % 2],
     (_GRID_TITLES[(i + 2) % 6], 60 + 40 * (i % 2)) if i % 7 == 0 else None)
    for i in range(200)
], 5)
# SHA-256 of stdout, computed before the phrase index, the rule cascade and
# the tree build were made cheaper per span.
LARGE_GRID_BLOCKS = "058adaf2ba020a988bdda53a81f79be61f74caeb56b5194d901d4b10402d229b"


def test_large_grid_blocks_bytes_pinned(capsys, tmp_path):
    out = _stdout(capsys, tmp_path, [LARGE_GRID], "blocks", "--pages", "all")
    assert len(json.loads(out)["blocks"]) == 200
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_GRID_BLOCKS


def test_stacked_headers_at_one_corner_independent_of_group_order():
    # Two bold headers share a top-left corner; geometry and text, not the
    # order of the groups, decide which of them heads the body below.
    title = text_group("DIRECTORY", 40, 20, 200, 36, size=16.0, bold=True)
    office = text_group("Registered Office", 40, 60, 140, 70, bold=True)
    auditor = text_group("Auditor", 40, 60, 100, 70, bold=True)
    body = text_group("KPMG Luxembourg 39, Avenue John F. Kennedy", 40, 80, 300, 90)
    first = _blocks_json(page(title, office, auditor, body))
    assert first == _blocks_json(page(title, auditor, office, body))
    assert json.loads(first)[0]["body"] == "KPMG Luxembourg 39, Avenue John F. Kennedy"


# --- page order ---

def _blocks_by_page(pages, which, model):
    """Each selected page's blocks, without the ``page`` field, keyed by page
    index, with the document read from JSON text as the CLI reads it."""
    runs = page_runs(parse_document(json.dumps(doc(*pages))), GAZ, which, model)
    return {run.index: [{k: v for k, v in block.items() if k != "page"}
                        for block in blocks_to_json(run.blocks, page_index=run.index)]
            for run in runs}


_PAGE_POOL = [NARRATIVE, LONG_NARRATIVE, _fig1a(), _shifted(_fig1a(), 0.5, 0.5)]


@st.composite
def _documents_and_orders(draw):
    pages = draw(st.lists(st.sampled_from(_PAGE_POOL) | _GRIDS,
                          min_size=2, max_size=5))
    return pages, draw(st.permutations(range(len(pages))))


@settings(max_examples=40, deadline=None)
@given(_documents_and_orders())
def test_page_order_changes_no_page_blocks(trained_model_path, case):
    # In any order, a page is selected and given blocks as when alone.
    pages, order = case
    model = load_model(str(trained_model_path))
    for which, m in (("all", None), ("auto", model)):
        alone = [_blocks_by_page([p], which, m).get(0) for p in pages]
        permuted = _blocks_by_page([pages[i] for i in order], which, m)
        assert permuted == {j: alone[i] for j, i in enumerate(order) if alone[i] is not None}


# --- translation and inert furniture ---

# Offsets on a 1/64 grid keep every coordinate, and every difference of
# two, exact in binary.
_OFFSETS = st.integers(0, 64 * 10**6).map(lambda k: k / 64)
# The helpers reuse one document file and drain the captured output on
# every call, so the fixtures may serve every example.
_REUSED_FIXTURES = [HealthCheck.function_scoped_fixture]


@settings(max_examples=100, deadline=None, suppress_health_check=_REUSED_FIXTURES)
@given(page_dict=_GRIDS | _COLUMNS, dx=_OFFSETS, dy=_OFFSETS)
def test_translation_changes_no_blocks(capsys, tmp_path, page_dict, dx, dy):
    moved = dict(_shifted(page_dict, dx, dy), width=page_dict["width"] + dx,
                 height=page_dict["height"] + dy)
    command = ("blocks", "--pages", "all")
    assert (_stdout(capsys, tmp_path, [moved], *command)
            == _stdout(capsys, tmp_path, [page_dict], *command))


_FURNITURE_TEXTS = ["Page 3", "DIRECTORY", "Registered Office of the Fund", "KPMG Luxembourg",
                    "12 Main Street", "Custodian:", "Acme Fund Prospectus, 1 June 2021, page 3 of 120"]


def _with_group(page_dict, g, position):
    groups = list(page_dict["groups"])
    groups.insert(position, g)
    return dict(page_dict, groups=groups)


@st.composite
def _page_and_furnished(draw):
    """A page, and the page with a page-header or page-footer group, of any
    text and anywhere on it, inserted at any position of its group list."""
    page_dict = draw(st.sampled_from([_fig1a()]) | _GRIDS | _COLUMNS)
    left = draw(st.integers(0, int(page_dict["width"]) - 100))
    top = draw(st.integers(0, int(page_dict["height"]) - 10))
    furniture = text_group(draw(st.sampled_from(_FURNITURE_TEXTS)), left, top, left + 100, top + 10,
                           size=draw(st.sampled_from([8.0, 10.0, 16.0])), bold=draw(st.booleans()),
                           **{draw(st.sampled_from(["header", "footer"])): True})
    return page_dict, _with_group(page_dict, furniture, draw(st.integers(0, len(page_dict["groups"]))))


_ONE_ROW = _column([("12 Main Street", None)])
_LONG_FOOTER = text_group(_FURNITURE_TEXTS[-1], 0, 0, 100, 10, size=8.0, footer=True)


@settings(max_examples=100, deadline=None, suppress_health_check=_REUSED_FIXTURES)
@given(case=_page_and_furnished())
# A footer with more characters than the rest of the page: counted in the
# page's modal style, its 8 pt would turn the 10 pt body into a header.
@example(case=(_ONE_ROW, _with_group(_ONE_ROW, _LONG_FOOTER, 0)))
def test_furniture_group_changes_no_tree_or_blocks(capsys, tmp_path, case):
    page_dict, furnished = case
    for command in (("tree", "--pages", "all"), ("blocks", "--pages", "all")):
        assert (_stdout(capsys, tmp_path, [furnished], *command)
                == _stdout(capsys, tmp_path, [page_dict], *command)), command
