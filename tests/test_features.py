import io
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dirtree.annotate import AnnotationLabel, Gazetteer, annotate
from dirtree.features import (
    FEATURE_NAMES,
    FeatureVector,
    extract_features,
    read_features_csv,
    write_features_csv,
)

from dirtree.forest import ForestHyperparams, ForestModel, LeafNode, SplitNode, predict_score
from dirtree.visual import group_text, parse_document

from conftest import FIXTURES, address_candidate_reference, doc, page, parse_page, text_group

GAZ = Gazetteer.default()


def features_for(*groups, **page_kw):
    vp = parse_document(doc(page(*groups, **page_kw)))[0]
    return extract_features(vp, annotate(vp, GAZ))


def test_counting_features():
    f = features_for(
        text_group("fees of EUR 1,000 due 12/31/2021", 0, 0, 300, 10),
        text_group("mail info@fund.lu or call +352 26 12 34 56", 0, 20, 300, 30),
    )
    assert f.f1 == 1  # currency
    assert f.f2 == 1  # date
    assert f.f3 == 1  # email
    assert f.f4 == 1  # phone
    assert f.f6 == 2  # groups
    assert f.f9 == 15  # words


def test_word_count_excludes_furniture():
    f = features_for(
        text_group("one two three", 0, 0, 100, 10),
        text_group("Page 4 of 120", 0, 700, 100, 710, footer=True),
        text_group("Annual Report", 0, 5, 100, 15, header=True),
    )
    assert f.f9 == 3
    assert f.f6 == 3  # group count still includes furniture


def test_table_area_fraction():
    f = features_for(
        text_group("x", 0, 0, 10, 10),
        width=100, height=100, tables=[{"l": 0, "t": 0, "r": 50, "b": 100}],
    )
    assert f.f7 == pytest.approx(0.5)


def test_table_area_clipped_to_page():
    f = features_for(
        text_group("x", 0, 0, 10, 10),
        width=100, height=100, tables=[{"l": 50, "t": 0, "r": 150, "b": 100}],
    )
    assert f.f7 == pytest.approx(0.5)


def test_table_area_capped_at_one():
    f = features_for(
        text_group("x", 0, 0, 10, 10),
        width=100, height=100,
        tables=[{"l": 0, "t": 0, "r": 100, "b": 100}, {"l": 0, "t": 0, "r": 100, "b": 100}],
    )
    assert f.f7 == 1.0


def test_bordered_groups_need_all_four_sides():
    f = features_for(
        text_group("a", 0, 0, 10, 10, border=4),
        text_group("b", 0, 20, 10, 30, border=3),
        text_group("c", 0, 40, 10, 50),
    )
    assert f.f11 == 1


def test_org_window_excludes_heavy_groups():
    many = "Alpha SA then Beta SA then Gamma SA then Delta SA"
    f = features_for(
        text_group("Acme Capital S.A.", 0, 0, 200, 10),
        text_group(many, 0, 20, 500, 30),
    )
    assert f.f12 == 1  # four orgs in one group falls outside the 1..3 window


def test_role_window_excludes_heavy_groups():
    many = "Custodian Auditor Registrar Depositary Sponsor"
    f = features_for(
        text_group("Custodian", 0, 0, 100, 10),
        text_group(many, 0, 20, 400, 30),
    )
    assert f.f13 == 1  # five roles falls outside the 1..4 window
    assert f.f8 == 6   # raw role count still sees all of them


def test_ratios_zero_without_groups():
    f = FeatureVector(f6=0.0, f12=3.0)
    assert f.f14 == 0.0 and f.f15 == 0.0
    vp = parse_document(doc(page(text_group("x", 0, 0, 10, 10))))[0]
    # extract recomputes the ratios from its own counts
    got = extract_features(vp, annotate(vp, GAZ))
    assert got.f14 == got.f12 / got.f6


def test_fixture_feature_vector(fig1a_page):
    f = extract_features(fig1a_page, annotate(fig1a_page, GAZ))
    assert f.f1 == 0 and f.f2 == 0 and f.f3 == 0 and f.f4 == 0 and f.f5 == 0
    assert f.f6 == 15
    assert f.f7 == 0.0
    assert f.f8 == 3
    assert f.f9 == 116
    assert f.f10 == 6
    assert f.f11 == 0
    assert f.f12 == 5
    assert f.f13 == 3
    assert f.f14 == pytest.approx(5 / 15)
    assert f.f15 == pytest.approx(3 / 15)


def test_vector_list_round_trip():
    vec = FeatureVector(*[float(i) for i in range(15)])
    assert vec.as_list() == [float(i) for i in range(15)]
    with pytest.raises(TypeError):
        FeatureVector(*[1.0] * 16)
    assert FeatureVector(*[1.0] * 14).as_list() == [1.0] * 14 + [0.0]


# --- CSV ---

def test_csv_round_trip():
    rows = [
        (FeatureVector(*[float(i) for i in range(15)]), 1),
        (FeatureVector(f7=0.123456789012345), 0),
        (FeatureVector(f6=2.0), None),
    ]
    buf = io.StringIO()
    write_features_csv(buf, rows)
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(FEATURE_NAMES) + ",label"
    back = read_features_csv(io.StringIO(text))
    # the unlabeled row is dropped, floats come back exactly
    assert len(back) == 2
    assert back[0] == ([float(i) for i in range(15)], 1)
    assert back[1][0][6] == 0.123456789012345


def test_csv_label_spellings():
    lines = [",".join(FEATURE_NAMES) + ",label"]
    lines.append(",".join(["0"] * 15) + ",directory")
    lines.append(",".join(["0"] * 15) + ",NON-DIRECTORY")
    lines.append(",".join(["0"] * 15) + ",true")
    back = read_features_csv(io.StringIO("\n".join(lines)))
    assert [label for _, label in back] == [1, 0, 1]


def test_csv_errors():
    with pytest.raises(ValueError, match="header"):
        read_features_csv(io.StringIO("a,b,c\n"))
    good_header = ",".join(FEATURE_NAMES) + ",label"
    with pytest.raises(ValueError, match="columns"):
        read_features_csv(io.StringIO(good_header + "\n1,2,3\n"))
    with pytest.raises(ValueError, match="label"):
        read_features_csv(io.StringIO(good_header + "\n" + ",".join(["0"] * 15) + ",maybe\n"))

    # A non-numeric or non-finite cell names its line and column.
    for cell in ("lots", "nan", "inf", "-Infinity"):
        row = ["1"] * 16
        row[6] = cell
        text = "\n".join([good_header, ",".join(["0"] * 16), ",".join(row)]) + "\n"
        with pytest.raises(ValueError, match=f"line 3: f7 .*{cell!r}"):
            read_features_csv(io.StringIO(text))


def test_csv_errors_name_the_line_a_record_starts_on():
    # A quoted label spans lines 2 and 3, so the faulty record starts on
    # physical line 4; a csv module error is a ValueError naming its line.
    header = ",".join(FEATURE_NAMES) + ",label\n"
    two_line_label = ",".join(["0"] * 15) + ',"1\n"\n'
    cases = [
        (two_line_label + ",".join(["nan"] + ["0"] * 15) + "\n", "line 4: f1 must be finite"),
        (two_line_label + ",".join(["0"] * 16) + ",0\n", "line 4: expected 16 columns"),
        (two_line_label + "\n" + "x" * 131_073 + "\n", "line 5: field larger than field limit"),
    ]
    for body, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            read_features_csv(io.StringIO(header + body))
    with pytest.raises(ValueError, match="^line 1: field larger than field limit"):
        read_features_csv(io.StringIO("x" * 131_073 + "\n"))
    # A long cell or header is cut short in the message.
    long_cell = "9" * 500 + "x"
    with pytest.raises(ValueError) as e:
        read_features_csv(io.StringIO(header + ",".join([long_cell] + ["0"] * 15) + "\n"))
    assert str(e.value).startswith("line 2: f1 is not a number") and len(str(e.value)) < 100
    with pytest.raises(ValueError) as e:
        read_features_csv(io.StringIO(",".join([long_cell] * 10_000) + "\n"))
    assert str(e.value).startswith("bad CSV header") and len(str(e.value)) < 1000


def test_write_features_csv_to_real_file(tmp_path):
    p = tmp_path / "features.csv"
    with open(p, "w", newline="") as f:
        write_features_csv(f, [(FeatureVector(f6=1.0), 0)])
    with open(p, newline="") as f:
        assert len(read_features_csv(f)) == 1


# Every label the classifier counts, with runs of names, linkers and
# suffixes, and tokens that run together.
_LABELLED_WORDS = [
    "EUR 1,000", "$5", "12/31/2021", "1 January 2021", "info@fund.lu", "+352 26 12 34 56",
    "Tower", "Custodian", "Administrator", "Registered Office", "Luxembourg", "Zurich",
    "L-2449", "75440", "39", "Acme Capital S.A.", "KPMG Luxembourg Société Coopérative",
    "Banque de Commerce S.A.", "Jane Doe", "of", "the", "and", "managed", "by", "Page",
]
_FULL_GAZ = Gazetteer(**{**{name: getattr(GAZ, name) for name in Gazetteer._fields},
                        "persons": ("Jane Doe",), "fac": ("Tower",)})


def _group_texts():
    text = st.lists(st.tuples(st.sampled_from(_LABELLED_WORDS), st.sampled_from(["", " ", ", "])),
                    min_size=1, max_size=12).map(lambda items: "".join(w + s for w, s in items))
    return st.lists(st.tuples(text, st.sampled_from([{}, {"footer": True}, {"border": 4}])),
                    min_size=1, max_size=6)


@settings(max_examples=200)
@given(groups=_group_texts())
def test_features_from_counts_match_features_from_lists(groups):
    vp = parse_page(*(text_group(text, 0, 20 * i, 590, 20 * i + 10, **kw)
                      for i, (text, kw) in enumerate(groups)))
    anns = annotate(vp, _FULL_GAZ)
    counted = extract_features(vp, anns)
    assert counted.as_list() == _extract_features_eager(vp, _full_lists(anns))
    with pytest.raises(ValueError, match=f"{len(anns) - 1} annotation lists for a page of "
                                         f"{len(anns)} groups"):
        extract_features(vp, anns[1:])


# --- features computed when read, against the eager extraction they replaced ---
#
# Reference copy of ``extract_features`` as it was before features were
# computed when first read: every count and ratio at once, from one pass
# over the groups' label counts.

_COUNTED_LABELS = (
    AnnotationLabel.CURRENCY, AnnotationLabel.DATE, AnnotationLabel.EMAIL,
    AnnotationLabel.PHONE, AnnotationLabel.FAC, AnnotationLabel.ROLE, AnnotationLabel.ORG,
)


def _full_lists(per_group):
    """Each group's full annotation list."""
    return [anns.select(*AnnotationLabel) for anns in per_group]


def _extract_features_eager(page, per_group):
    groups = page.groups
    totals = dict.fromkeys(_COUNTED_LABELS, 0)
    f10 = f12 = f13 = 0
    for anns in per_group:
        counts = Counter(a.label for a in anns)
        for label in _COUNTED_LABELS:
            totals[label] += counts[label]
        f10 += address_candidate_reference(anns)
        f12 += 1 <= counts[AnnotationLabel.ORG] <= 3
        f13 += 1 <= counts[AnnotationLabel.ROLE] <= 4
    f6 = len(groups)
    table_area = 0.0
    for r in page.table_regions:
        w = max(0.0, min(r.right, page.width) - max(r.left, 0.0))
        h = max(0.0, min(r.bottom, page.height) - max(r.top, 0.0))
        table_area += w * h
    f7 = min(1.0, table_area / (page.width * page.height))
    f9 = sum(len(group_text(g).split()) for g in groups if not g.is_furniture)
    f11 = sum(1 for g in groups if g.border_sides == 4)
    return [
        float(totals[AnnotationLabel.CURRENCY]), float(totals[AnnotationLabel.DATE]),
        float(totals[AnnotationLabel.EMAIL]), float(totals[AnnotationLabel.PHONE]),
        float(totals[AnnotationLabel.FAC]), float(f6), f7,
        float(totals[AnnotationLabel.ROLE]), float(f9), float(f10), float(f11),
        float(f12), float(f13), f12 / f6 if f6 else 0.0, f13 / f6 if f6 else 0.0,
    ]


# Prose with amounts, dates, emails and phones in different numbers; a
# bordered grid of directory entries under a table region; and the paper's
# directory page.
_SCORED_PAGES = parse_document(doc(
    page(
        text_group("Annual Report 2020", 40, 20, 300, 32, header=True),
        text_group("The Custodian, Acme Capital S.A. of Luxembourg, L-2449, received",
                   40, 60, 560, 70),
        text_group("EUR 1,000 on 15 March 2021, $5 on 12/31/2021 and £7 or USD 20 on "
                   "1 June 2021; write to info@fund.lu, help@fund.lu or +352 26 12 34 56.",
                   40, 80, 560, 90),
        text_group("Page 3", 280, 780, 320, 790, footer=True),
    ),
    page(
        text_group("DIRECTORY OF ADVISERS", 40, 20, 400, 36, size=16.0, bold=True),
        *(text_group(text, 40 + 180 * (i % 3), 60 + 40 * (i // 3),
                     200 + 180 * (i % 3), 90 + 40 * (i // 3), border=4 * (i % 2))
          for i, text in enumerate([
              "Registered Office 12 Main Street L-2449 Luxembourg",
              "Custodian: Deutsche Bank (Suisse) S.A. Tel: +352 26 12 34 56",
              "Auditor KPMG Luxembourg Société Coopérative 39, Avenue John F. Kennedy",
              "Administrator Acme Capital Holdings Limited, London EC2A 1AA",
              "Jane Doe, Director and Company Secretary, info@fund.lu",
              "Paying Agent and Transfer Agent Banque de Commerce S.A."])),
        tables=[{"l": 20, "t": 50, "r": 620, "b": 150}],
    ),
)) + [parse_document((FIXTURES / "fig1a.json").read_bytes())[0]]

_thresholds = st.sampled_from([-1.0, 0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 20.0, 100.0])
_trees = st.recursive(
    st.builds(LeafNode, st.tuples(st.integers(0, 4), st.integers(0, 4))),
    lambda nodes: st.builds(SplitNode, st.integers(0, len(FEATURE_NAMES) - 1), _thresholds,
                            nodes, nodes),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, len(_SCORED_PAGES) - 1), trees=st.lists(_trees, min_size=1, max_size=5),
       order=st.permutations(range(len(FEATURE_NAMES))))
def test_scores_and_reads_match_eager_extraction(which, trees, order):
    vp = _SCORED_PAGES[which]
    want = _extract_features_eager(vp, _full_lists(annotate(vp, _FULL_GAZ)))
    model = ForestModel(ForestHyperparams(n_trees=len(trees)), FEATURE_NAMES, trees)
    vec = extract_features(vp, annotate(vp, _FULL_GAZ))
    assert predict_score(model, vec) == predict_score(model, want)
    # A fresh vector's fields, read by name in any order.
    fresh = extract_features(vp, annotate(vp, _FULL_GAZ))
    assert [getattr(fresh, FEATURE_NAMES[i]) for i in order] == [want[i] for i in order]
    assert vec.as_list() == fresh.as_list() == want


def _at_most_threshold(exact):
    """Below zero, at an integer the running sum can take, or half a count
    either side of one."""
    return st.one_of(
        st.sampled_from([-1.0, -0.5]),
        st.builds(float.__add__, st.integers(0, int(exact) + 1).map(float),
                  st.sampled_from([-0.5, 0.0, 0.5])))


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, len(_SCORED_PAGES) - 1), data=st.data())
def test_at_most_answers_as_the_exact_value_would(which, data):
    vp = _SCORED_PAGES[which]
    want = _extract_features_eager(vp, _full_lists(annotate(vp, _FULL_GAZ)))
    vec = extract_features(vp, annotate(vp, _FULL_GAZ))
    # Questions and exact reads of any features, interleaved in any order:
    # a sum stopped by one question is resumed by the next or by a read.
    for _ in range(data.draw(st.integers(1, 40))):
        i = data.draw(st.integers(0, len(FEATURE_NAMES) - 1))
        if data.draw(st.integers(0, 3)):
            t = data.draw(_at_most_threshold(want[i]))
            assert vec.at_most(i, t) == (want[i] <= t), (FEATURE_NAMES[i], t)
        else:
            assert vec[i] == want[i]
    assert vec.as_list() == want
    assert all(type(v) is float for v in vec.as_list())
