import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import difam.io
from difam.carrier import ProductCarrier
from difam.catalog import FIXTURES, example51, sigma_prime, thm62_z5
from difam.designs import Design, ag_design, develop
from difam.families import (
    DifferenceMatrix,
    RelativeDifferenceFamily,
    StrongDifferenceFamily,
    zero_sum_dm,
)
from difam.gf import FiniteField
from difam.groups import AbelianGroup
from difam.io import FamilyFormatError, parse_family, render_family
from difam.lifting import simple_lift


def test_fixture_roundtrips():
    for name, make in FIXTURES.items():
        obj = make()
        back = parse_family(render_family(obj))
        assert type(back) is type(obj), name
        assert back.blocks == obj.blocks, name
        assert back.k == obj.k and back.lam == obj.lam, name
        assert back.group == obj.group, name
        assert back.additive == obj.additive, name


def test_rdf_roundtrip_keeps_forbidden():
    rdf = thm62_z5()
    back = parse_family(render_family(rdf))
    assert back.forbidden_members() == rdf.forbidden_members()


def test_dm_roundtrip():
    dm = zero_sum_dm(AbelianGroup((3,)), 3)
    back = parse_family(render_family(dm))
    assert isinstance(back, DifferenceMatrix)
    assert back.columns == dm.columns
    assert back.mu == 3
    assert back.additive


def test_design_roundtrip_with_multiplicity():
    d = ag_design(2, 3)
    doubled = d.blocks[np.repeat(np.arange(d.b), 2)]
    from difam.designs import Design

    dd = Design(d.carrier, doubled, 3)
    back = parse_family(render_family(dd))
    assert back.v == 9
    assert back.b == 2 * d.b
    assert np.array_equal(np.sort(back.blocks, axis=0), np.sort(dd.blocks, axis=0))


def test_parse_reports_json_location():
    with pytest.raises(FamilyFormatError) as info:
        parse_family('{"role": "sdf",}')
    assert "line 1" in str(info.value)


def test_parse_bad_role():
    with pytest.raises(FamilyFormatError) as info:
        parse_family(json.dumps({"role": "magic", "carrier": {"group": [5]}}))
    assert "role" in str(info.value)


def test_parse_out_of_range_residue_names_location():
    doc = {
        "role": "sdf",
        "carrier": {"group": [5]},
        "k": 2,
        "lambda": 1,
        "blocks": [[[0], [7]]],
    }
    with pytest.raises(FamilyFormatError) as info:
        parse_family(json.dumps(doc))
    assert "blocks[0][1]" in str(info.value)


def test_parse_wrong_block_size():
    doc = {
        "role": "sdf",
        "carrier": {"group": [5]},
        "k": 3,
        "lambda": 1,
        "blocks": [[[0], [1]]],
    }
    with pytest.raises(FamilyFormatError) as info:
        parse_family(json.dumps(doc))
    assert "expected 3" in str(info.value)


def test_parse_missing_fields():
    with pytest.raises(FamilyFormatError):
        parse_family(json.dumps({"role": "sdf"}))
    with pytest.raises(FamilyFormatError):
        parse_family(json.dumps({"role": "sdf", "carrier": {"group": [5]}}))
    with pytest.raises(FamilyFormatError):
        parse_family(json.dumps({"role": "sdf", "carrier": {}, "k": 2}))
    with pytest.raises(FamilyFormatError):
        parse_family("[1, 2]")


def test_parse_product_element_shape():
    sdf = render_family(thm62_z5())
    doc = json.loads(sdf)
    doc["blocks"][0][0] = [0, 0, 0]  # flat list where {"g","f"} is required
    with pytest.raises(FamilyFormatError):
        parse_family(json.dumps(doc))


def test_parse_rdf_needs_forbidden():
    doc = json.loads(render_family(thm62_z5()))
    del doc["forbidden"]
    with pytest.raises(FamilyFormatError):
        parse_family(json.dumps(doc))


def test_parse_recomputes_additivity():
    doc = json.loads(render_family(example51()))
    doc["blocks"][0][0] = [1]  # shift one entry: sum no longer zero
    back = parse_family(json.dumps(doc))
    assert not back.additive


def test_design_multiplicity_validation():
    doc = json.loads(render_family(ag_design(2, 3)))
    doc["blocks"][0]["mult"] = 0
    with pytest.raises(FamilyFormatError):
        parse_family(json.dumps(doc))
    doc["blocks"][0] = [[0, 0], [0, 1], [0, 2]]
    with pytest.raises(FamilyFormatError):
        parse_family(json.dumps(doc))


def test_parse_rejects_string_group():
    # a string is iterable: "33" used to be read as Z_3 x Z_3
    doc = json.loads(render_family(ag_design(2, 3)))
    doc["carrier"]["group"] = "33"
    with pytest.raises(FamilyFormatError, match="carrier.group"):
        parse_family(json.dumps(doc))


def test_parse_rejects_bad_cyclic_orders():
    doc = json.loads(render_family(example51()))
    for carrier in ({"group": [0]}, {"group": []}, {"group": [3, -1]}, {"group": [2.0]},
                    {"group": [True]}, 5):
        doc["carrier"] = carrier
        with pytest.raises(FamilyFormatError, match="carrier"):
            parse_family(json.dumps(doc))


def test_parse_rejects_non_integer_multiplicity():
    doc = json.loads(render_family(ag_design(2, 3)))
    for mult in ("x", "2", 1.5, True, None):
        doc["blocks"][0]["mult"] = mult
        with pytest.raises(FamilyFormatError, match="blocks"):
            parse_family(json.dumps(doc))


def test_parse_rejects_carrier_over_cap():
    # verifying an SDF over Z_1000000007 would build a dict over every element
    doc = {"role": "sdf", "carrier": {"group": [1000000007]}, "k": 2, "lambda": 1,
           "blocks": [[[0], [1]]]}
    with pytest.raises(FamilyFormatError, match="carrier.group: carrier order exceeds"):
        parse_family(json.dumps(doc))
    doc["carrier"] = {"group": [1000, 5000]}
    with pytest.raises(FamilyFormatError, match="carrier.group"):
        parse_family(json.dumps(doc))
    doc["carrier"] = {"group": [2], "field": {"p": 2, "n": 10**12}}
    with pytest.raises(FamilyFormatError, match="carrier.field"):
        parse_family(json.dumps(doc))


def test_parse_rejects_design_multiplicity_over_cap():
    doc = json.loads(render_family(ag_design(2, 3)))
    doc["blocks"][0]["mult"] = 10**15
    with pytest.raises(FamilyFormatError, match=r"blocks\[0\]: design has more than"):
        parse_family(json.dumps(doc))
    doc["blocks"][0]["mult"], doc["blocks"][1]["mult"] = 2**23, 2**23 + 1
    with pytest.raises(FamilyFormatError, match=r"blocks\[1\]"):
        parse_family(json.dumps(doc))


@pytest.mark.parametrize(
    "make,path,value,where",
    [
        (example51, ("blocks", 0, 1), [1.9], r"blocks\[0\]\[1\]"),
        (example51, ("blocks", 0, 1), ["1"], r"blocks\[0\]\[1\]"),
        (example51, ("blocks", 0, 1), [True], r"blocks\[0\]\[1\]"),
        (example51, ("blocks", 0, 1), 1, r"blocks\[0\]\[1\]"),
        (example51, ("blocks", 0), {"a": 1}, r"blocks\[0\]"),
        (example51, ("k",), 5.0, "k"),
        (example51, ("k",), 1e999, "k"),
        (example51, ("k",), "5", "k"),
        (example51, ("k",), 0, "k: must be >= 1"),
        (example51, ("lambda",), 4.5, "lambda"),
        (example51, ("lambda",), None, "lambda"),
        (thm62_z5, ("carrier", "field"), [5, 1], "carrier.field"),
        (thm62_z5, ("carrier", "field", "p"), 5.0, r"carrier.field.p"),
        (thm62_z5, ("carrier", "field", "n"), "2", r"carrier.field.n"),
        (thm62_z5, ("carrier", "field", "modulus"), [2, 1.0, 1], r"carrier.field.modulus"),
        (thm62_z5, ("carrier", "field", "modulus"), "2,1,1", r"carrier.field"),
        (thm62_z5, ("carrier", "field", "modulus"), [], r"carrier.field: bad field spec"),
        (thm62_z5, ("forbidden",), [5], r"forbidden\[0\]"),
        (thm62_z5, ("forbidden", 0, 0, "g"), 0, r"forbidden\[0\]\[0\].g"),
        (thm62_z5, ("forbidden", 0, 0, "f"), [0.0, 0], r"forbidden\[0\]\[0\].f"),
        (thm62_z5, ("blocks", 0, 0, "g"), [0, 0], r"blocks\[0\]\[0\].g"),
        (thm62_z5, ("blocks", 0, 0, "f"), [0, 0, 0], r"blocks\[0\]\[0\]"),
    ],
)
def test_parse_reads_json_integers_only(make, path, value, where):
    # int() used to truncate 1.9 to 1 and parse "1": a file read as another
    doc = json.loads(render_family(make()))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(FamilyFormatError, match=where):
        parse_family(json.dumps(doc))


def test_parse_rejects_non_integer_mu_and_design_points():
    doc = json.loads(render_family(zero_sum_dm(AbelianGroup((3,)), 3)))
    doc["mu"] = 3.0
    with pytest.raises(FamilyFormatError, match="mu"):
        parse_family(json.dumps(doc))
    doc = json.loads(render_family(ag_design(2, 3)))
    doc["blocks"][0]["points"] = 7
    with pytest.raises(FamilyFormatError, match=r"blocks\[0\]"):
        parse_family(json.dumps(doc))


def test_parse_rejects_overlapping_spread():
    doc = {"role": "rdf", "carrier": {"group": [4]}, "k": 2, "lambda": 1,
           "forbidden": [[[0], [2]], [[0], [1], [2], [3]]], "blocks": [[[0], [1]]]}
    with pytest.raises(FamilyFormatError, match="forbidden: spread members"):
        parse_family(json.dumps(doc))


def test_parse_bytes_must_be_utf8():
    text = render_family(example51())
    assert parse_family(text.encode()).blocks == example51().blocks
    with pytest.raises(FamilyFormatError, match="not UTF-8"):
        parse_family(b'{"role": "sdf", "k": "\xff"}')


def test_parse_deep_nesting_is_a_format_error():
    with pytest.raises(FamilyFormatError, match="nested too deeply"):
        parse_family("[" * 100_000 + "]" * 100_000)


# -- design files: the array renderer and reader -----------------------------


def _ref_element(carrier, e):
    if isinstance(carrier, ProductCarrier):
        g, f = carrier.split(e)
        return {"g": list(g), "f": list(f)}
    return list(e)


def _ref_header(carrier) -> dict:
    if isinstance(carrier, ProductCarrier):
        field = carrier.field
        return {
            "group": list(carrier.group.cyclic_orders),
            "field": {"p": field.p, "n": field.n, "modulus": list(field.modulus)},
        }
    return {"group": list(carrier.cyclic_orders)}


def _reference_render(obj) -> str:
    """The per-point renderer the file format was defined by: one doc of
    Python lists and dicts, element by element, through json.dumps(indent=1)."""
    if isinstance(obj, StrongDifferenceFamily):
        doc = {"role": "sdf", "carrier": _ref_header(obj.group), "k": obj.k, "lambda": obj.lam,
               "blocks": [[_ref_element(obj.group, e) for e in b.expand()] for b in obj.blocks]}
    elif isinstance(obj, RelativeDifferenceFamily):
        doc = {"role": "rdf", "carrier": _ref_header(obj.group), "k": obj.k, "lambda": obj.lam,
               "forbidden": [[_ref_element(obj.group, e) for e in sub.elements]
                             for sub in obj.forbidden_members()],
               "blocks": [[_ref_element(obj.group, e) for e in b.expand()] for b in obj.blocks]}
    elif isinstance(obj, DifferenceMatrix):
        doc = {"role": "dm", "carrier": _ref_header(obj.group), "k": obj.k, "mu": obj.mu,
               "blocks": [[_ref_element(obj.group, e) for e in col] for col in obj.columns]}
    else:
        rows, counts = np.unique(obj.blocks, axis=0, return_counts=True)
        doc = {"role": "design", "carrier": _ref_header(obj.carrier), "k": obj.k,
               "blocks": [{"points": [_ref_element(obj.carrier, obj.carrier.decode(int(c)))
                                      for c in row],
                           "mult": int(m)}
                          for row, m in zip(rows, counts)]}
    return json.dumps(doc, indent=1)


def _doubled_ag23():
    d = ag_design(2, 3)
    return Design(d.carrier, d.blocks[np.repeat(np.arange(d.b), 2)], 3)


RENDERED = {
    **FIXTURES,
    "zero-sum-dm": lambda: zero_sum_dm(AbelianGroup((3,)), 3),
    "ag(2,3) doubled": _doubled_ag23,
    "ag(3,3)": lambda: ag_design(3, 3),
    "thm62-z5 developed": lambda: develop(thm62_z5()),
    "sigma-prime developed": lambda: develop(
        simple_lift(sigma_prime(), FiniteField(5, 2, (2, 1, 1)), signed=True)
    ),
}


@pytest.mark.parametrize("name", list(RENDERED))
def test_render_matches_the_per_point_renderer(name):
    obj = RENDERED[name]()
    text = render_family(obj)
    assert text == _reference_render(obj)
    assert render_family(parse_family(text)) == text


def test_render_design_without_blocks():
    d = Design(AbelianGroup((3,)), np.empty((0, 2), dtype=np.int64), 2)
    assert render_family(d) == _reference_render(d)


_AG23, _Z5 = ag_design(2, 3), develop(thm62_z5())  # Z_3 x Z_3, k=3; Z_5 x GF(25), k=5


@pytest.mark.parametrize(
    "design,path,value,where",
    [
        (_AG23, ("points", 2, 1), 1.9, r"blocks\[3\]\.points\[2\]: element must be a list"),
        (_AG23, ("points", 2, 1), "1", r"blocks\[3\]\.points\[2\]: element must be a list"),
        (_AG23, ("points", 2, 1), True, r"blocks\[3\]\.points\[2\]: element must be a list"),
        (_AG23, ("points", 2, 1), 2**70, r"blocks\[3\]\.points\[2\]: .* is not an element"),
        (_AG23, ("points", 2, 1), -1, r"blocks\[3\]\.points\[2\]: .* is not an element"),
        (_AG23, ("points", 2, 1), 3, r"blocks\[3\]\.points\[2\]: .* is not an element"),
        (_AG23, ("points", 2), [0], r"blocks\[3\]\.points\[2\]: .* is not an element"),
        (_AG23, ("points", 2), {"g": [0], "f": [0]}, r"blocks\[3\]\.points\[2\]: element must"),
        (_Z5, ("points", 2, "f", 1), 1.9, r"blocks\[3\]\.points\[2\]\.f: element must be a list"),
        (_Z5, ("points", 2, "f", 1), "1", r"blocks\[3\]\.points\[2\]\.f: element must be a list"),
        (_Z5, ("points", 2, "g", 0), True, r"blocks\[3\]\.points\[2\]\.g: element must be a list"),
        (_Z5, ("points", 2, "f", 1), 2**70, r"blocks\[3\]\.points\[2\]: .* is not an element"),
        (_Z5, ("points", 2, "g", 0), -2**70, r"blocks\[3\]\.points\[2\]: .* is not an element"),
        (_Z5, ("points", 2, "f", 1), -1, r"blocks\[3\]\.points\[2\]: .* is not an element"),
        (_Z5, ("points", 2, "g", 0), 5, r"blocks\[3\]\.points\[2\]: .* is not an element"),
        (_Z5, ("points", 2, "g"), [0, 0], r"blocks\[3\]\.points\[2\]\.g: g needs 1 residues"),
        (_Z5, ("points", 2, "f"), [0], r"blocks\[3\]\.points\[2\]\.f: f needs 2 residues"),
        (_Z5, ("points", 2, "f"), 0, r"blocks\[3\]\.points\[2\]\.f: element must be a list"),
        (_Z5, ("points", 2), [0, 0, 0], r"blocks\[3\]\.points\[2\]: product element must be"),
        (_Z5, ("points", 2, "x"), 0, r"blocks\[3\]\.points\[2\]: product element must be"),
        (_Z5, ("points",), 7, r"blocks\[3\]: points must be a list"),
        (_Z5, ("points",), lambda pts: pts[:-1], r"blocks\[3\]: block has 4 points, expected 5"),
        (_AG23, ("points",), lambda pts: pts[:-1], r"blocks\[3\]: block has 2 points, expected 3"),
        (_Z5, ("mult",), 0, r"blocks\[3\]: multiplicity must be"),
        (_Z5, ("mult",), True, r"blocks\[3\]: multiplicity must be"),
        (_Z5, ("mult",), 1.0, r"blocks\[3\]: multiplicity must be"),
    ],
)
def test_parse_design_names_the_bad_point(design, path, value, where):
    doc = json.loads(render_family(design))
    node = doc["blocks"][3]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    with pytest.raises(FamilyFormatError, match=where):
        parse_family(json.dumps(doc))


def test_parse_design_names_the_first_bad_point():
    # the points are checked all at once; the error still names the first bad one
    doc = json.loads(render_family(_Z5))
    doc["blocks"][3]["points"][4] = [0, 0, 0]
    doc["blocks"][3]["points"][2]["f"][0] = 5
    doc["blocks"][1]["points"][3]["g"] = [True]
    with pytest.raises(FamilyFormatError, match=r"^blocks\[1\]\.points\[3\]\.g:"):
        parse_family(json.dumps(doc))
    doc["blocks"][1]["points"][3]["g"] = [0]
    with pytest.raises(FamilyFormatError, match=r"^blocks\[3\]\.points\[2\]:"):
        parse_family(json.dumps(doc))


def test_parse_design_checks_points_a_slice_of_blocks_at_a_time(monkeypatch):
    # two blocks per slice: the codes match one slice, and a bad point in a
    # later slice is named at its place in the whole file
    text = render_family(_Z5)
    whole = parse_family(text).blocks
    monkeypatch.setattr(difam.io, "_CHUNK", 2)
    assert np.array_equal(parse_family(text).blocks, whole)
    doc = json.loads(text)
    doc["blocks"][7]["points"][1]["f"][0] = 5
    doc["blocks"][5]["points"][4]["g"] = [True]
    with pytest.raises(FamilyFormatError, match=r"^blocks\[5\]\.points\[4\]\.g:"):
        parse_family(json.dumps(doc))
    doc["blocks"][5]["points"][4]["g"] = [0]
    with pytest.raises(FamilyFormatError, match=r"^blocks\[7\]\.points\[1\]:"):
        parse_family(json.dumps(doc))


_SMALL_CARRIERS = [
    AbelianGroup((4,)),
    AbelianGroup((2, 3)),
    ProductCarrier(AbelianGroup((3,)), FiniteField(2, 2)),
    ProductCarrier(AbelianGroup((2, 2)), FiniteField(3, 1)),
]


@st.composite
def _small_designs(draw):
    carrier = draw(st.sampled_from(_SMALL_CARRIERS))
    k = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, carrier.order - 1), min_size=k, max_size=k)
    rows = draw(st.lists(row, min_size=1, max_size=8))  # a repeated row gives mult > 1
    return Design(carrier, np.sort(np.array(rows, dtype=np.int64), axis=1), k)


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(_small_designs(), st.data())
def test_design_text_round_trips_and_damage_is_located(design, data):
    text = render_family(design)
    assert text == _reference_render(design)
    back = parse_family(text)
    assert render_family(back) == text
    assert sorted(back.blocks.tolist()) == sorted(design.blocks.tolist())
    doc = json.loads(text)
    bi = data.draw(st.integers(0, len(doc["blocks"]) - 1))
    j = data.draw(st.integers(0, design.k - 1))
    point = doc["blocks"][bi]["points"][j]
    if isinstance(point, dict):
        point = point[data.draw(st.sampled_from(["g", "f"]))]
    c = data.draw(st.integers(0, len(point) - 1))
    point[c] = data.draw(st.sampled_from([-1, 10**6, 2**70, 1.5, "0", True, None]))
    with pytest.raises(FamilyFormatError, match=rf"^blocks\[{bi}\]\.points\[{j}\]"):
        parse_family(json.dumps(doc))
