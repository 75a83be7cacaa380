import json

import numpy as np
import pytest

from difam.catalog import FIXTURES, example51, thm62_z5
from difam.designs import ag_design
from difam.families import DifferenceMatrix, zero_sum_dm
from difam.groups import AbelianGroup
from difam.io import FamilyFormatError, parse_family, render_family


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
