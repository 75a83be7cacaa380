"""One JSON schema for every family role: SDF, relative DF, difference
matrix, and developed design.

The header carries the carrier (group factors and/or field p,n,modulus),
the role, k, and lambda (mu for difference matrices); the body carries the
blocks.  Group elements are residue lists, field elements ascending
coefficient lists, product elements {"g": [...], "f": [...]}.  A design
file lists each distinct block once, as {"points": [...], "mult": m} (m is
1 when absent).

Every file is laid out as json.dumps(doc, indent=1).  A design's text is
filled from its arrays into that layout, and a design file is read back by
checking and encoding all of its points at once.  parse(render(x)) == x for
every field of every role: a family's `additive` is derived from its
blocks, not stored, so the file carries no flag.  Parsing checks structure
only and runs no verifier; each CLI command verifies a family it reads
once.  Every number is a JSON integer: a float, a string or a bool is
refused, not truncated or converted, and any malformed file raises
FamilyFormatError.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Optional, Union

import numpy as np

from .carrier import ProductCarrier
from .diffs import GMultiset
from .families import (
    DifferenceMatrix,
    FamilyError,
    PartialSpread,
    RelativeDifferenceFamily,
    StrongDifferenceFamily,
)
from .designs import _CHUNK, MAX_DESIGN_BLOCKS, Design, _decode_array
from .gf import MAX_FIELD_ORDER, FieldError, FiniteField
from .groups import AbelianGroup, DifamError, GroupError, Subgroup


class FamilyFormatError(DifamError):
    """Raised with a location string for any structural problem."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(f"{where}: {message}" if where else message)
        self.where = where


Family = Union[StrongDifferenceFamily, RelativeDifferenceFamily, DifferenceMatrix, Design]


def _carrier_header(carrier) -> dict:
    if isinstance(carrier, ProductCarrier):
        return {
            "group": list(carrier.group.cyclic_orders),
            "field": {
                "p": carrier.field.p,
                "n": carrier.field.n,
                "modulus": list(carrier.field.modulus),
            },
        }
    return {"group": list(carrier.cyclic_orders)}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int(value, where: str) -> int:
    """A JSON integer: a float, a string or a bool is not read as one."""
    if not _is_int(value):
        raise FamilyFormatError(f"must be an integer, not {type(value).__name__}", where)
    return value


def _list(value, what: str, where: str) -> list:
    if not isinstance(value, list):
        raise FamilyFormatError(f"{what} must be a list", where)
    return value


def _carrier_from_header(header: dict, where: str):
    if not isinstance(header, dict):
        raise FamilyFormatError("carrier must be an object", where)
    group = header.get("group")
    field_spec = header.get("field")
    if group is None and field_spec is None:
        raise FamilyFormatError("carrier needs 'group' and/or 'field'", where)
    field = None
    if field_spec is not None:
        at = where + ".field"
        if not isinstance(field_spec, dict):
            raise FamilyFormatError("field must be an object", at)
        modulus = field_spec.get("modulus")
        if modulus is not None:
            modulus = [_int(c, at + ".modulus") for c in _list(modulus, "modulus", at)]
        p, n = _int(field_spec.get("p"), at + ".p"), _int(field_spec.get("n"), at + ".n")
        try:
            field = FiniteField(p, n, modulus)
        except FieldError as exc:
            raise FamilyFormatError(f"bad field spec: {exc}", at)
    if group is None:
        return field.additive_group, None, field
    if not (isinstance(group, list) and group and all(_is_int(n) and n >= 1 for n in group)):
        raise FamilyFormatError("group must be a non-empty list of integers >= 1", where + ".group")
    order = 1 if field is None else field.q
    for n in group:  # every n >= 1, so the running product only grows
        order *= n
        if order > MAX_FIELD_ORDER:
            raise FamilyFormatError(
                f"carrier order exceeds the supported cap {MAX_FIELD_ORDER}", where + ".group"
            )
    base = AbelianGroup(tuple(group))
    if field is None:
        return base, base, None
    return ProductCarrier(base, field), base, field


def _element_to_json(carrier, e):
    if isinstance(carrier, ProductCarrier):
        g, f = carrier.split(e)
        return {"g": list(g), "f": list(f)}
    return list(e)


def _residues(obj, where: str) -> tuple[int, ...]:
    # type() is int: a bool or a float is not a residue; one pass, no call per entry
    if not (isinstance(obj, list) and all(type(c) is int for c in obj)):
        raise FamilyFormatError("element must be a list of integers", where)
    return tuple(obj)


def _product_parts(carrier: ProductCarrier) -> tuple[tuple[str, int], ...]:
    """The keys of a product element and the residues each holds."""
    return ("g", carrier.group.rank), ("f", carrier.rank - carrier.group.rank)


def _element_from_json(carrier, obj, where: str):
    if isinstance(carrier, ProductCarrier):
        if not (isinstance(obj, dict) and set(obj) == {"g", "f"}):
            raise FamilyFormatError('product element must be {"g": [...], "f": [...]}', where)
        e = ()
        for part, width in _product_parts(carrier):
            residues = _residues(obj[part], f"{where}.{part}")
            if len(residues) != width:
                raise FamilyFormatError(f"{part} needs {width} residues", f"{where}.{part}")
            e += residues
    else:
        e = _residues(obj, where)
    try:
        return carrier.check(e)
    except GroupError as exc:
        raise FamilyFormatError(str(exc), where)


def _point_codes(carrier, points: list) -> Optional[np.ndarray]:
    """The codes of parsed design points, each check of `_element_from_json`
    made on all of them at once; None if any point fails one."""
    if isinstance(carrier, ProductCarrier):
        keys = {"g", "f"}
        if not all(type(p) is dict and p.keys() == keys for p in points):
            return None
        parts = [([p[key] for p in points], width) for key, width in _product_parts(carrier)]
    else:
        parts = [(points, carrier.rank)]
    codes, at = np.zeros(len(points), dtype=np.int64), 0
    for lists, width in parts:
        if not (set(map(type, lists)) == {list} and set(map(len, lists)) == {width}):
            return None
        flat = list(chain.from_iterable(lists))
        if set(map(type, flat)) != {int}:  # a bool or a float is not a residue
            return None
        try:
            coords = np.array(flat, dtype=np.int64).reshape(len(points), width)
        except OverflowError:  # past int64, so past every cyclic order
            return None
        if np.any((coords < 0) | (coords >= carrier.cyclic_orders[at : at + width])):
            return None
        codes += coords @ np.array(carrier._weights[at : at + width], dtype=np.int64)
        at += width
    return codes


def _parse_design(carrier, k: int, raw_blocks: list) -> Design:
    """One pass over the block entries, then the points checked and encoded
    one `_CHUNK` slice of blocks at a time."""
    points, mults, total = [], [], 0
    for bi, entry in enumerate(raw_blocks):
        where = f"blocks[{bi}]"
        if not (isinstance(entry, dict) and "points" in entry):
            raise FamilyFormatError('design block must be {"points": [...], "mult": m}', where)
        pts = _list(entry["points"], "points", where)
        if len(pts) != k:
            raise FamilyFormatError(f"block has {len(pts)} points, expected {k}", where)
        mult = entry.get("mult", 1)
        if not _is_int(mult) or mult < 1:
            raise FamilyFormatError(f"multiplicity must be an integer >= 1, got {mult!r}", where)
        total += mult
        if total > MAX_DESIGN_BLOCKS:
            raise FamilyFormatError(
                f"design has more than {MAX_DESIGN_BLOCKS} blocks counting multiplicity", where
            )
        points += pts
        mults.append(mult)
    codes = np.empty(len(points), dtype=np.int64)
    step = _CHUNK * k
    for lo in range(0, len(points), step):
        part = points[lo : lo + step]
        got = _point_codes(carrier, part)
        if got is None:  # the per-point reader names the first malformed point
            for i, point in enumerate(part, lo):
                _element_from_json(carrier, point, f"blocks[{i // k}].points[{i % k}]")
            raise AssertionError("_point_codes refused points that _element_from_json reads")
        codes[lo : lo + len(part)] = got
    rows = np.sort(codes.reshape(-1, k), axis=1)
    return Design(carrier, np.repeat(rows, mults, axis=0), k)


def _render_design(design: Design) -> str:
    """json.dumps(doc, indent=1) of the per-point design doc, filled from arrays.

    The stdlib lays out the header, the block separator and one block with
    every residue and the multiplicity left as null; each distinct row then
    fills that template, so the text is the one the encoder would write.
    """
    carrier, k = design.carrier, design.k
    rows, counts = np.unique(design.blocks, axis=0, return_counts=True)
    head = {"role": "design", "carrier": _carrier_header(carrier), "k": k}
    if not len(rows):
        return json.dumps({**head, "blocks": []}, indent=1)
    prefix, sep, suffix = json.dumps({**head, "blocks": [None, None]}, indent=1).rsplit("null", 2)
    point = _element_to_json(carrier, (None,) * carrier.rank)
    block = json.dumps({"points": [point] * k, "mult": None}, indent=1)
    template = block.replace("null", "%d").replace("\n", sep[1:])  # sep is "," + newline + indent
    parts = []
    for lo in range(0, len(rows), _CHUNK):
        part = rows[lo : lo + _CHUNK]
        coords = _decode_array(carrier, part.ravel()).reshape(len(part), k * carrier.rank)
        values = np.column_stack([coords, counts[lo : lo + _CHUNK]])
        parts.append(sep.join([template] * len(values)) % tuple(values.ravel().tolist()))
    return prefix + sep.join(parts) + suffix


def render_family(obj: Family) -> str:
    if isinstance(obj, StrongDifferenceFamily):
        doc = {
            "role": "sdf",
            "carrier": _carrier_header(obj.group),
            "k": obj.k,
            "lambda": obj.lam,
            "blocks": [
                [_element_to_json(obj.group, e) for e in b.expand()] for b in obj.blocks
            ],
        }
    elif isinstance(obj, RelativeDifferenceFamily):
        doc = {
            "role": "rdf",
            "carrier": _carrier_header(obj.group),
            "k": obj.k,
            "lambda": obj.lam,
            "forbidden": [
                [_element_to_json(obj.group, e) for e in sub.elements]
                for sub in obj.forbidden_members()
            ],
            "blocks": [
                [_element_to_json(obj.group, e) for e in b.expand()] for b in obj.blocks
            ],
        }
    elif isinstance(obj, DifferenceMatrix):
        doc = {
            "role": "dm",
            "carrier": _carrier_header(obj.group),
            "k": obj.k,
            "mu": obj.mu,
            "blocks": [
                [_element_to_json(obj.group, e) for e in col] for col in obj.columns
            ],
        }
    elif isinstance(obj, Design):
        return _render_design(obj)
    else:
        raise FamilyFormatError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(doc, indent=1)


def parse_family(text: Union[str, bytes]) -> Family:
    """The family in `text`, or bytes that must be UTF-8."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text)
    except UnicodeDecodeError as exc:
        raise FamilyFormatError(f"not UTF-8: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except RecursionError:
        raise FamilyFormatError("JSON nested too deeply")
    if not isinstance(doc, dict):
        raise FamilyFormatError("top level must be an object")
    role = doc.get("role")
    if role not in ("sdf", "rdf", "dm", "design"):
        raise FamilyFormatError(f"unknown role {role!r}", "role")
    if "carrier" not in doc:
        raise FamilyFormatError("missing carrier", "carrier")
    carrier, _group, _field = _carrier_from_header(doc["carrier"], "carrier")
    k = _int(doc.get("k"), "k")
    if k < 1:
        raise FamilyFormatError(f"must be >= 1, got {k}", "k")
    raw_blocks = doc.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise FamilyFormatError("blocks must be a non-empty list", "blocks")

    if role == "design":
        return _parse_design(carrier, k, raw_blocks)

    blocks = []
    for bi, entry in enumerate(raw_blocks):
        where = f"blocks[{bi}]"
        elems = [
            _element_from_json(carrier, e, f"{where}[{i}]")
            for i, e in enumerate(_list(entry, "block", where))
        ]
        if len(elems) != k:
            raise FamilyFormatError(f"block has {len(elems)} elements, expected {k}", where)
        blocks.append(elems)

    if role == "dm":
        mu = _int(doc.get("mu"), "mu")
        return DifferenceMatrix(carrier, k, mu, [tuple(c) for c in blocks])

    lam = _int(doc.get("lambda"), "lambda")

    msets = [GMultiset(carrier, b) for b in blocks]
    if role == "sdf":
        return StrongDifferenceFamily(carrier, k, lam, msets)

    raw_forbidden = doc.get("forbidden")
    if not isinstance(raw_forbidden, list) or not raw_forbidden:
        raise FamilyFormatError("relative family needs a forbidden list", "forbidden")
    subs = []
    for si, sub_elems in enumerate(raw_forbidden):
        where = f"forbidden[{si}]"
        elems = [
            _element_from_json(carrier, e, f"{where}[{i}]")
            for i, e in enumerate(_list(sub_elems, "subgroup", where))
        ]
        try:
            subs.append(Subgroup(carrier, elems))
        except GroupError as exc:
            raise FamilyFormatError(str(exc), where)
    try:
        forbidden = subs[0] if len(subs) == 1 else PartialSpread(subs)
    except FamilyError as exc:
        raise FamilyFormatError(str(exc), "forbidden")
    return RelativeDifferenceFamily(carrier, forbidden, k, lam, msets)
