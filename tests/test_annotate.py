import pytest

from dirtree.annotate import (
    AnnotationLabel,
    Gazetteer,
    GazetteerError,
    annotate,
    is_address_candidate,
)

from conftest import parse_page, text_group

GAZ = Gazetteer.default()


def ann(text, gaz=GAZ):
    page = parse_page(text_group(text, 0, 0, 590, 10))
    (group,) = annotate(page, gaz)
    return group


def spans(text, label, gaz=GAZ):
    return [a.surface for a in ann(text, gaz) if a.label == label]


# --- regex labels ---

def test_email():
    assert spans("Contact info@fund.lu today", AnnotationLabel.EMAIL) == ["info@fund.lu"]
    assert spans("not a@b here", AnnotationLabel.EMAIL) == []


def test_phone_needs_seven_digits():
    assert spans("Tel: +352 26 12 34 56", AnnotationLabel.PHONE) == ["+352 26 12 34 56"]
    assert spans("call 1234567 now", AnnotationLabel.PHONE) == ["1234567"]
    assert spans("room 12 345", AnnotationLabel.PHONE) == []
    # surrounding parentheses are not swallowed
    assert spans("(1234567)", AnnotationLabel.PHONE) == ["1234567"]


def test_dates():
    assert spans("as of 12/31/2021 the", AnnotationLabel.DATE) == ["12/31/2021"]
    assert spans("dated 2021-12-31", AnnotationLabel.DATE) == ["2021-12-31"]
    assert spans("on 1 January 2021", AnnotationLabel.DATE) == ["1 January 2021"]
    assert spans("on January 1, 2021", AnnotationLabel.DATE) == ["January 1, 2021"]
    assert spans("on Jan. 1st, 2021", AnnotationLabel.DATE) == ["Jan. 1st, 2021"]
    # a bare month/day fraction is not a date
    assert spans("Bahnhofquai 9/11, Zurich", AnnotationLabel.DATE) == []


def test_currency_requires_amount():
    assert spans("a fee of EUR 1,000 per year", AnnotationLabel.CURRENCY) == ["EUR 1,000"]
    assert spans("pay €50 now", AnnotationLabel.CURRENCY) == ["€50"]
    assert spans("USD amounts vary", AnnotationLabel.CURRENCY) == []
    assert spans("costs $1.5 less", AnnotationLabel.CURRENCY) == ["$1.5"]


def test_cardinal_standalone_only():
    assert spans("39, Avenue Kennedy", AnnotationLabel.CARDINAL) == ["39"]
    assert spans("L – 1115 Luxemburg", AnnotationLabel.CARDINAL) == ["1115"]
    assert spans("4th Floor", AnnotationLabel.CARDINAL) == []
    assert spans("Bahnhofquai 9/11, Zurich", AnnotationLabel.CARDINAL) == []
    assert spans("L-2449 Luxembourg", AnnotationLabel.CARDINAL) == []


def test_postcodes():
    assert spans("14, boulevard Royal L-2449 LUXEMBOURG", AnnotationLabel.POSTCODE) == ["L-2449"]
    assert spans("Kennedy, L–1855 Luxembourg", AnnotationLabel.POSTCODE) == ["L–1855"]
    assert spans("CH-8023 Zurich", AnnotationLabel.POSTCODE) == ["CH-8023"]
    assert spans("75440 Paris Cedex 09", AnnotationLabel.POSTCODE) == ["75440"]
    assert spans("code 123456 is long", AnnotationLabel.POSTCODE) == []
    assert spans("spaced L – 1115 form", AnnotationLabel.POSTCODE) == []
    assert spans("lowercase l-2449", AnnotationLabel.POSTCODE) == []


# --- gazetteer phrase matching ---

def test_gpe_case_insensitive_surface_preserved():
    assert spans("14, boulevard Royal L-2449 LUXEMBOURG", AnnotationLabel.GPE) == ["LUXEMBOURG"]


def test_word_boundary_guards():
    assert spans("the Parish register", AnnotationLabel.GPE) == []
    assert spans("in Paris today", AnnotationLabel.GPE) == ["Paris"]


def test_longest_phrase_wins():
    assert spans("Grand Duchy of Luxembourg", AnnotationLabel.GPE) == ["Grand Duchy of Luxembourg"]
    assert spans("Sub-Investment Manager", AnnotationLabel.ROLE) == ["Sub-Investment Manager"]


def test_phrase_matches_across_extra_whitespace():
    assert spans("Grand  Duchy of Luxembourg", AnnotationLabel.GPE) == ["Grand  Duchy of Luxembourg"]


def test_roles_and_address_types():
    assert spans("Administrator of the Fund", AnnotationLabel.ROLE) == ["Administrator"]
    assert spans("THE ADMINISTRATOR", AnnotationLabel.ROLE) == ["ADMINISTRATOR"]
    assert spans("Registered Office of the Fund", AnnotationLabel.ADDRESS_TYPE) == ["Registered Office"]


# --- suffix-driven organization spans ---

def test_org_from_suffix_extends_left():
    assert spans("Oddo Asset Management SA", AnnotationLabel.ORG) == ["Oddo Asset Management SA"]


def test_org_stops_at_lowercase_token():
    assert spans("managed daily by Acme Capital S.A. since", AnnotationLabel.ORG) == ["Acme Capital S.A."]


def test_org_crosses_linkers_and_parentheses():
    assert spans("Banque de Commerce S.A.", AnnotationLabel.ORG) == ["Banque de Commerce S.A."]
    assert spans("Deutsche Bank (Suisse) S.A.", AnnotationLabel.ORG) == ["Deutsche Bank (Suisse) S.A."]


def test_org_leading_linker_trimmed():
    assert spans("and Banque Internationale S.A.", AnnotationLabel.ORG) == ["Banque Internationale S.A."]


def test_org_requires_name_tokens():
    assert spans("managed by the S.A. branch", AnnotationLabel.ORG) == []
    assert spans("S.A.", AnnotationLabel.ORG) == []


def test_org_multiword_suffix():
    got = spans("BANQUE DE LUXEMBOURG Société anonyme (public limited company)", AnnotationLabel.ORG)
    assert got == ["BANQUE DE LUXEMBOURG Société anonyme"]


def test_org_and_gpe_coexist():
    out = ann("KPMG Luxembourg Société Coopérative")
    assert [a.surface for a in out if a.label == AnnotationLabel.ORG] == [
        "KPMG Luxembourg Société Coopérative"
    ]
    assert [a.surface for a in out if a.label == AnnotationLabel.GPE] == ["Luxembourg"]


def test_gazetteer_org_list_merges_with_suffix_spans():
    gaz = Gazetteer(orgs=("Acme Capital",), org_suffixes=("S.A.",))
    # the longer suffix-extended span wins over the bare gazetteer hit
    assert spans("Acme Capital S.A.", AnnotationLabel.ORG, gaz) == ["Acme Capital S.A."]
    assert spans("Acme Capital offices", AnnotationLabel.ORG, gaz) == ["Acme Capital"]


# --- page annotation ---

def test_annotations_sorted_by_position():
    out = ann("Custodian Acme Capital S.A. in Luxembourg L-2449")
    keys = [(a.start, a.end, a.label.value) for a in out]
    assert keys == sorted(keys)
    for a in out:
        assert a.surface == "Custodian Acme Capital S.A. in Luxembourg L-2449"[a.start:a.end]


def test_annotate_covers_furniture_groups():
    page = parse_page(
        text_group("Luxembourg Fund", 0, 0, 100, 10),
        text_group("Page 4", 0, 700, 50, 710, footer=True),
    )
    out = annotate(page, GAZ)
    assert len(out) == 2
    assert [(a.label, a.surface) for a in out[1]] == [(AnnotationLabel.CARDINAL, "4")]


def test_is_address_candidate():
    assert is_address_candidate(ann("14, boulevard Royal L-2449 LUXEMBOURG"))
    assert is_address_candidate(ann("L – 1115 Luxemburg"))  # cardinal + gpe
    assert is_address_candidate(ann("75440 Paris"))  # postcode + gpe
    assert not is_address_candidate(ann("Luxembourg"))
    assert not is_address_candidate(ann("room 14 on floor 3"))  # cardinals alone
    assert not is_address_candidate(ann("plain prose with no places"))


def test_fig1a_group_annotations(fig1a_page):
    out = annotate(fig1a_page, GAZ)
    labels0 = {a.label for a in out[0]}
    assert AnnotationLabel.ORG not in labels0 and AnnotationLabel.PERSON not in labels0
    assert [a.surface for a in out[7] if a.label == AnnotationLabel.ROLE] == [
        "Legal Counsel"
    ]
    body_counts = sum(1 for anns in out if is_address_candidate(anns))
    assert body_counts == 6


# --- gazetteer loading ---

def test_gazetteer_validation():
    with pytest.raises(GazetteerError):
        Gazetteer(roles=("", "Custodian"))
    with pytest.raises(GazetteerError):
        Gazetteer.from_json({"roles": "Custodian"})
    with pytest.raises(GazetteerError):
        Gazetteer.from_json({"roles": [1]})
    with pytest.raises(GazetteerError):
        Gazetteer.from_json([1, 2])


def test_gazetteer_dedupes_case_insensitively():
    gaz = Gazetteer(roles=("Custodian", "custodian", " Custodian "))
    assert gaz.roles == ("Custodian",)


def test_gazetteer_unknown_keys_ignored():
    gaz = Gazetteer.from_json({"roles": ["Custodian"], "comment": "x"})
    assert gaz.roles == ("Custodian",)


def test_gazetteer_load_and_default(tmp_path):
    p = tmp_path / "g.json"
    p.write_text('{"gpe": ["Atlantis"]}')
    gaz = Gazetteer.load(str(p))
    assert gaz.gpe == ("Atlantis",)
    assert gaz.roles == ()

    default = Gazetteer.default()
    assert "Custodian" in default.roles
    assert "Luxembourg" in default.gpe
    assert default.persons == () and default.fac == ()
