import functools
import json
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import difam.io
from difam.carrier import ProductCarrier
from difam.catalog import FIXTURES, example51, sigma_prime, thm62_z5, thm62_z7
from difam.designs import Design, DesignError, ag_design, develop
from difam.families import (
    DifferenceMatrix,
    RelativeDifferenceFamily,
    StrongDifferenceFamily,
    verify_dm,
    zero_sum_dm,
)
from difam.gf import FiniteField
from difam.groups import AbelianGroup
from difam.io import FamilyFormatError, parse_family, render_family, write_family
from difam.lifting import simple_lift


def test_fixture_roundtrips():
    for name, make in FIXTURES.items():
        obj = make()
        back = parse_family(render_family(obj))
        assert type(back) is type(obj), name
        assert back.blocks == obj.blocks, name
        assert back.k == obj.k and back.lam == obj.lam, name
        assert back.group == obj.group, name  # so additivity, derived from both, is kept


def test_rdf_roundtrip_keeps_forbidden():
    rdf = thm62_z5()
    back = parse_family(render_family(rdf))
    assert back.forbidden_members() == rdf.forbidden_members()


def test_dm_roundtrip():
    dm = zero_sum_dm(AbelianGroup((3,)), 3)
    back = parse_family(render_family(dm))
    assert isinstance(back, DifferenceMatrix)
    assert back == dm and back.columns.dtype == np.int64
    assert back != zero_sum_dm(AbelianGroup((3,)), 4) and back != zero_sum_dm(AbelianGroup((9,)), 3)
    assert back.mu == 3
    assert verify_dm(back.columns, back.group, back.k, back.mu).is_additive


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
               "forbidden": [[_ref_element(obj.group, obj.group.decode(c))
                              for c in sub.codes.tolist()] for sub in obj.forbidden_members()],
               "blocks": [[_ref_element(obj.group, e) for e in b.expand()] for b in obj.blocks]}
    elif isinstance(obj, DifferenceMatrix):
        doc = {"role": "dm", "carrier": _ref_header(obj.group), "k": obj.k, "mu": obj.mu,
               "blocks": [[_ref_element(obj.group, obj.group.decode(c)) for c in col]
                          for col in obj.columns.tolist()]}
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


@pytest.mark.parametrize("name", list(RENDERED) + ["no blocks"])
def test_written_file_is_the_rendered_text(name, tmp_path):
    if name == "no blocks":
        obj = Design(AbelianGroup((3,)), np.empty((0, 2), dtype=np.int64), 2)
    else:
        obj = RENDERED[name]()
    write_family(obj, tmp_path / "out.json")
    assert (tmp_path / "out.json").read_bytes() == render_family(obj).encode()


def test_a_write_cut_short_leaves_the_old_file(tmp_path, monkeypatch):
    pieces = difam.io._design_pieces

    def cut_short(*args):
        it = pieces(*args)
        yield next(it)
        raise KeyboardInterrupt

    out = tmp_path / "out.json"
    out.write_text("old")
    monkeypatch.setattr(difam.io, "_design_pieces", cut_short)
    with pytest.raises(KeyboardInterrupt):
        write_family(ag_design(2, 3), out)
    assert out.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.json"]


@pytest.mark.parametrize("row", [[0, 6], [-1, 2], [0, 10**6]])
def test_a_design_with_codes_outside_the_group_is_refused_before_a_byte(tmp_path, row):
    # the codes were packed base v unchecked: [0, 6] on Z_5 was written as [1, 1].
    # No such design can be made, so none reaches the writer
    out = tmp_path / "out.json"
    out.write_text("old")
    with pytest.raises(DesignError, match="design points are not the elements of the given group"):
        write_family(Design(AbelianGroup((5,)), [[0, 1], row], 2), out)
    assert out.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.json"]


def test_a_write_goes_through_a_link_and_into_a_pipe(tmp_path):
    design = ag_design(2, 3)
    text = render_family(design).encode()
    (tmp_path / "real.json").write_text("old")
    (tmp_path / "link.json").symlink_to("real.json")
    write_family(design, tmp_path / "link.json")
    assert (tmp_path / "link.json").is_symlink()
    assert (tmp_path / "real.json").read_bytes() == text
    # a pipe has no file to replace: the text goes into it
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_family(design, fifo)
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [text]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_sigma_prime_design_file_is_written_in_bounded_memory(tmp_path):
    # 15.5 MiB of text, written a piece at a time: never held whole
    design, text = _rendered("sigma-prime developed")
    tracemalloc.start()
    try:
        write_family(design, tmp_path / "sp.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "sp.json").read_bytes() == text.encode()
    assert peak <= len(text) // 2, f"{peak / 2**20:.1f} MiB"


def test_render_design_without_blocks():
    d = Design(AbelianGroup((3,)), np.empty((0, 2), dtype=np.int64), 2)
    assert render_family(d) == _reference_render(d)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "carrier", [AbelianGroup((3,)), ProductCarrier(AbelianGroup((5,)), FiniteField(5, 2))]
)
def test_design_without_blocks_round_trips(carrier, k):
    d = Design(carrier, np.empty((0, k), dtype=np.int64), k)
    text = render_family(d)
    for read in (difam.io._read_rendered_design, difam.io._parse_json, parse_family):
        back = read(text)
        assert back == d and back.blocks.shape == (0, k) and back.blocks.dtype == np.int16


@pytest.mark.parametrize("make", [example51, thm62_z5, lambda: zero_sum_dm(AbelianGroup((3,)), 3)])
def test_only_a_design_may_have_no_blocks(make):
    doc = json.loads(render_family(make()))
    doc["blocks"] = []
    with pytest.raises(FamilyFormatError, match=r"^blocks: blocks must be a non-empty list$"):
        parse_family(json.dumps(doc))


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


# coordinates of up to three digits, and multiplicities of two and three
_WIDE_CARRIERS = [
    ProductCarrier(AbelianGroup((101,)), FiniteField(11, 1)),
    AbelianGroup((12, 3)),
    ProductCarrier(AbelianGroup((2,)), FiniteField(13, 2)),
]


@st.composite
def _wide_designs(draw):
    carrier = draw(st.sampled_from(_WIDE_CARRIERS))
    k = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, carrier.order - 1), min_size=k, max_size=k)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    mults = draw(st.lists(st.sampled_from([1, 2, 10, 11, 123]), min_size=len(rows),
                          max_size=len(rows)))
    rows = np.sort(np.array(rows, dtype=np.int64), axis=1)
    return Design(carrier, np.repeat(rows, mults, axis=0), k)


@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(_wide_designs())
@example(Design(_WIDE_CARRIERS[0], np.array([[1110]] * 10 + [[0]] * 11), 1))
@example(Design(_WIDE_CARRIERS[1], np.array([[0, 35]] * 12 + [[7, 9]]), 2))
def test_render_is_byte_identical_beyond_one_digit_numbers(design):
    text = render_family(design)
    assert text == _reference_render(design)
    assert difam.io._read_rendered_design(text) == design
    assert parse_family(text) == design


# -- the fast reader of rendered design files, against the JSON reader -------


@functools.cache
def _rendered(name: str) -> tuple[Design, str]:
    design = {**RENDERED, "thm62-z7 developed": lambda: develop(thm62_z7())}[name]()
    return design, render_family(design)


def _agrees_with_the_json_reader(text: str) -> None:
    """parse_family reads `text` as the JSON reader does, or raises its error."""
    try:
        expected = difam.io._parse_json(text)
    except FamilyFormatError as exc:
        with pytest.raises(FamilyFormatError) as got:
            parse_family(text)
        assert str(got.value) == str(exc)
    else:
        got = parse_family(text)
        assert got == expected and np.array_equal(got.blocks, expected.blocks)


_DIGIT_RUN, _NOT_DIGIT = re.compile(r"[0-9]+"), re.compile(r"[^0-9]")
_NOT_NUMBERS = ["-1", "1000000", str(2**70), "1.5", '"0"', "true", "null"]


def _edit(text: str, data) -> str:
    """`text` with one edit made in place, in the blocks at a place that
    `data` draws."""
    kinds = ["number", "character", "swap", "drop line", "trailing space", "mult 0"]
    kind = data.draw(st.sampled_from(kinds))
    body = text.index('"blocks": [')
    pos = data.draw(st.integers(body, len(text) - 1))
    if kind == "number":
        run = _DIGIT_RUN.search(text, pos) or _DIGIT_RUN.search(text, body)
        return text[: run.start()] + data.draw(st.sampled_from(_NOT_NUMBERS)) + text[run.end() :]
    if kind == "character":  # the length and the digits stay: only the bytes differ
        at = _NOT_DIGIT.search(text, pos) or _NOT_DIGIT.search(text, body)
        return text[: at.start()] + data.draw(st.sampled_from(" ,x]}")) + text[at.end() :]
    if kind == "mult 0":
        at = text.find('"mult": ', pos)
        run = _DIGIT_RUN.search(text, at if at >= 0 else body)
        return text[: run.start()] + "0" + text[run.end() :]
    if kind == "drop line":
        start, end = text.rfind("\n", 0, pos) + 1, text.find("\n", pos)
        return text[:start] + (text[end + 1 :] if end >= 0 else "")
    if kind == "trailing space":
        return text + data.draw(st.sampled_from([" ", "\n", " \t\n"]))
    head, tail = text[: body + len('"blocks": [')], text[body + len('"blocks": [') :]
    blocks = tail.split(",\n  {")  # the separator between blocks, the next "{" cut off
    i, j = data.draw(st.integers(0, len(blocks) - 1)), data.draw(st.integers(0, len(blocks) - 1))
    blocks[i], blocks[j] = blocks[j], blocks[i]
    return head + ",\n  {".join(blocks)


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(_small_designs(), st.data())
def test_fast_reader_agrees_with_the_json_reader_on_small_designs(design, data):
    text = render_family(design)
    assert difam.io._read_rendered_design(text) is not None
    assert parse_family(text) == design
    _agrees_with_the_json_reader(_edit(text, data))


@settings(database=None, derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(["thm62-z5 developed", "thm62-z7 developed", "ag(3,3)"]), st.data())
def test_fast_reader_agrees_with_the_json_reader_on_developed_designs(name, data):
    design, text = _rendered(name)
    assert parse_family(text) == design
    _agrees_with_the_json_reader(_edit(text, data))


@settings(
    database=None, derandomize=True, max_examples=5, deadline=None, phases=[Phase.generate]
)
@given(st.data())
def test_fast_reader_agrees_with_the_json_reader_on_the_sigma_prime_design(data):
    # 2-(375,15,21), 14,025 blocks, repeated blocks written once with their mult;
    # a failing example is reported as drawn: shrinking 16 MB of text takes minutes
    _, text = _rendered("sigma-prime developed")
    _agrees_with_the_json_reader(_edit(text, data))


@pytest.mark.parametrize(
    "old,new,error",
    [
        ('"mult": 1', '"mult": 1000000000000000', r"^blocks\[0\]: design has more than \d+ blocks"),
        ("[\n     0,", "[\n     " + "1" * 30 + ",", r"^blocks\[0\]\.points\[0\]: .* is not an element"),
        ("[\n     0,", "[\n     \u0663,", r"^invalid JSON at line \d+, column \d+"),
    ],
)
def test_fast_reader_bounds_what_it_allocates(monkeypatch, old, new, error):
    # each edit, made in the layout the fast reader takes, is refused before
    # any array grows with the numbers read, then named by the JSON reader
    text = render_family(ag_design(2, 3))
    assert text.count(old) > 1
    edited = text.replace(old, new, 1)

    def no_repeat(*args, **kwargs):
        raise AssertionError("np.repeat ran")

    monkeypatch.setattr(np, "repeat", no_repeat)
    for read in (difam.io._parse_json, parse_family, lambda t: parse_family(t.encode())):
        with pytest.raises(FamilyFormatError, match=error):
            read(edited)


def _swap_rows(doc):
    doc["blocks"][3], doc["blocks"][4] = doc["blocks"][4], doc["blocks"][3]


def _split_mult(doc):
    # the block written twice with mult 1: AG(2,3) gains a copy, the doubled
    # design is the same design
    block = {**doc["blocks"][3], "mult": 1}
    doc["blocks"][3:4] = [block, dict(block)]


def _swap_points(doc):
    points = doc["blocks"][3]["points"]
    points[0], points[1] = points[1], points[0]


@pytest.mark.parametrize("edit", [_swap_rows, _split_mult, _swap_points])
@pytest.mark.parametrize("design", [_AG23, _doubled_ag23()], ids=["ag(2,3)", "doubled"])
def test_fast_reader_refuses_rows_out_of_order(design, edit):
    # each edit keeps the canonical layout, and the rows as read render to
    # the edited text: only the order check refuses it
    doc = json.loads(render_family(design))
    edit(doc)
    text = json.dumps(doc, indent=1)
    assert difam.io._read_rendered_design(text) is None
    _agrees_with_the_json_reader(text)


def test_sigma_prime_design_file_is_read_without_sorting_its_rows(monkeypatch):
    design, text = _rendered("sigma-prime developed")
    sort, argsort = np.sort, np.argsort

    def within_rows(name, fn):
        def refused(a, axis=-1, **kwargs):
            assert np.ndim(a) < 2 or axis not in (1, -1), f"{name} ran along rows"
            return fn(a, axis=axis, **kwargs)

        return refused

    def no_lexsort(*args, **kwargs):
        raise AssertionError("np.lexsort ran")

    monkeypatch.setattr(np, "sort", within_rows("np.sort", sort))
    monkeypatch.setattr(np, "argsort", within_rows("np.argsort", argsort))
    monkeypatch.setattr(np, "lexsort", no_lexsort)
    back = parse_family(text.encode())
    # neither reader sorts a row now that a Design holds its rows ascending:
    # the patch is shown live on a sort along the rows
    with pytest.raises(AssertionError, match="np.sort ran along rows"):
        np.sort(design.blocks, axis=1)
    monkeypatch.undo()
    assert back == design


def test_sigma_prime_design_file_is_read_without_the_json_reader(monkeypatch):
    design, text = _rendered("sigma-prime developed")

    def no_json(text):
        raise AssertionError("the JSON reader ran")

    monkeypatch.setattr(difam.io, "_parse_json", no_json)
    assert parse_family(text.encode()) == design


def _digit_runs_by_edges(chars):
    """The digit scan that diffed a mask over every byte, kept as the reference."""
    d = chars - np.uint8(ord("0"))  # wraps below "0"
    edges = np.flatnonzero(np.diff(d < 10, prepend=False, append=False))
    starts, lengths = edges[::2], edges[1::2] - edges[::2]
    if lengths.max(initial=0) > difam.io._DIGITS:
        return None
    numbers = np.zeros(starts.size, dtype=np.int64)
    for j in range(lengths.max(initial=0)):  # digit j of every run that has one
        live = lengths > j
        numbers[live] = numbers[live] * 10 + d[starts[live] + j]
    return numbers


_DIGIT_HEAVY = st.lists(
    st.one_of(st.sampled_from(b"0123456789 ,:\n[]{}\"x"), st.integers(0, 255)), max_size=300
).map(bytes)


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=200), _DIGIT_HEAVY))
@example(b"")
@example(b"7")
@example(b"0000012, 00, 0,007")
@example(b"1" * 18 + b" " + b"9" * 18)  # the longest runs read
@example(b"x" + b"1" * 19)  # one digit too many
@example(b"12" + b"0" * 30 + b"3")
def test_digit_runs_match_the_edge_scan(text):
    chars = np.frombuffer(text, np.uint8)
    got, expected = difam.io._digit_runs(chars), _digit_runs_by_edges(chars)
    if expected is None:
        assert got is None
    else:
        assert got.dtype == np.int64 and np.array_equal(got, expected)
        assert got.tolist() == [int(run) for run in re.findall(rb"[0-9]+", text)]


def test_sigma_prime_design_file_is_read_in_bounded_memory():
    # 16.3 MB of text; json.loads of it alone peaked near 100 MiB
    design, text = _rendered("sigma-prime developed")
    data = text.encode()
    tracemalloc.start()
    try:
        back = parse_family(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == design
    assert peak <= 64 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_the_design_pipeline_leaves_numpy_ma_unloaded():
    # a plain np.unique imports numpy.ma on its first call, about 13 ms and
    # 1.6 MiB in a fresh process; no step from develop to the scan needs it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = (
        "import sys\n"
        "from difam.catalog import thm62_z5\n"
        "from difam.designs import anomaly_witness, develop\n"
        "from difam.io import parse_family, render_family\n"
        "design = develop(thm62_z5())\n"
        "back = parse_family(render_family(design).encode())\n"
        "assert back == design and anomaly_witness(back, 5).anomalous\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.strip() == "False", proc.stderr
