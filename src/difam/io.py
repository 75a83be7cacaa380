"""One JSON schema for every family role: SDF, relative DF, difference
matrix, and developed design.

The header carries the carrier (group factors and/or field p,n,modulus),
the role, k, and lambda (mu for difference matrices); the body carries the
blocks.  Group elements are residue lists, field elements ascending
coefficient lists, product elements {"g": [...], "f": [...]}.  Designs may
attach a multiplicity to each block.  parse(render(x)) == x for every
field of every role: a family's `additive` is derived from its blocks, not
stored, so the file carries no flag.  Parsing checks structure only and
runs no verifier; each CLI command verifies a family it reads once.
"""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from .carrier import ProductCarrier
from .diffs import GMultiset
from .families import (
    DifferenceMatrix,
    PartialSpread,
    RelativeDifferenceFamily,
    StrongDifferenceFamily,
)
from .designs import Design
from .gf import FiniteField
from .groups import AbelianGroup, Subgroup


class FamilyFormatError(ValueError):
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


def _carrier_from_header(header: dict, where: str):
    group = header.get("group")
    field_spec = header.get("field")
    if group is None and field_spec is None:
        raise FamilyFormatError("carrier needs 'group' and/or 'field'", where)
    field = None
    if field_spec is not None:
        try:
            field = FiniteField(
                field_spec["p"], field_spec["n"], field_spec.get("modulus")
            )
        except (KeyError, ValueError) as exc:
            raise FamilyFormatError(f"bad field spec: {exc}", where + ".field")
    if group is None:
        return field.additive_group, None, field
    base = AbelianGroup(tuple(int(n) for n in group))
    if field is None:
        return base, base, None
    return ProductCarrier(base, field), base, field


def _element_to_json(carrier, e):
    if isinstance(carrier, ProductCarrier):
        g, f = carrier.split(e)
        return {"g": list(g), "f": list(f)}
    return list(e)


def _element_from_json(carrier, obj, where: str):
    if isinstance(carrier, ProductCarrier):
        if not (isinstance(obj, dict) and set(obj) == {"g", "f"}):
            raise FamilyFormatError('product element must be {"g": [...], "f": [...]}', where)
        e = tuple(int(c) for c in obj["g"]) + tuple(int(c) for c in obj["f"])
    else:
        if not isinstance(obj, list):
            raise FamilyFormatError("element must be a residue list", where)
        e = tuple(int(c) for c in obj)
    try:
        return carrier.check(e)
    except ValueError as exc:
        raise FamilyFormatError(str(exc), where)


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
        rows, counts = np.unique(obj.blocks, axis=0, return_counts=True)
        doc = {
            "role": "design",
            "carrier": _carrier_header(obj.carrier),
            "k": obj.k,
            "blocks": [
                {
                    "points": [
                        _element_to_json(obj.carrier, obj.carrier.decode(int(c)))
                        for c in row
                    ],
                    "mult": int(m),
                }
                for row, m in zip(rows, counts)
            ],
        }
    else:
        raise FamilyFormatError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(doc, indent=1)


def parse_family(text: str) -> Family:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    if not isinstance(doc, dict):
        raise FamilyFormatError("top level must be an object")
    role = doc.get("role")
    if role not in ("sdf", "rdf", "dm", "design"):
        raise FamilyFormatError(f"unknown role {role!r}", "role")
    if "carrier" not in doc:
        raise FamilyFormatError("missing carrier", "carrier")
    carrier, _group, _field = _carrier_from_header(doc["carrier"], "carrier")
    try:
        k = int(doc["k"])
    except (KeyError, TypeError, ValueError):
        raise FamilyFormatError("missing or bad k", "k")
    raw_blocks = doc.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise FamilyFormatError("blocks must be a non-empty list", "blocks")

    if role == "design":
        rows = []
        for bi, entry in enumerate(raw_blocks):
            where = f"blocks[{bi}]"
            if not (isinstance(entry, dict) and "points" in entry):
                raise FamilyFormatError('design block must be {"points": [...], "mult": m}', where)
            pts = [
                _element_from_json(carrier, e, f"{where}.points[{i}]")
                for i, e in enumerate(entry["points"])
            ]
            if len(pts) != k:
                raise FamilyFormatError(f"block has {len(pts)} points, expected {k}", where)
            mult = int(entry.get("mult", 1))
            if mult < 1:
                raise FamilyFormatError(f"multiplicity must be >= 1, got {mult}", where)
            row = sorted(carrier.encode(e) for e in pts)
            rows.extend([row] * mult)
        return Design(carrier, np.array(rows, dtype=np.int64), k)

    blocks = []
    for bi, entry in enumerate(raw_blocks):
        where = f"blocks[{bi}]"
        if not isinstance(entry, list):
            raise FamilyFormatError("block must be a list of elements", where)
        elems = [
            _element_from_json(carrier, e, f"{where}[{i}]") for i, e in enumerate(entry)
        ]
        if len(elems) != k:
            raise FamilyFormatError(f"block has {len(elems)} elements, expected {k}", where)
        blocks.append(elems)

    if role == "dm":
        try:
            mu = int(doc["mu"])
        except (KeyError, TypeError, ValueError):
            raise FamilyFormatError("difference matrix needs mu", "mu")
        return DifferenceMatrix(carrier, k, mu, [tuple(c) for c in blocks])

    try:
        lam = int(doc["lambda"])
    except (KeyError, TypeError, ValueError):
        raise FamilyFormatError("missing or bad lambda", "lambda")

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
            for i, e in enumerate(sub_elems)
        ]
        try:
            subs.append(Subgroup(carrier, elems))
        except ValueError as exc:
            raise FamilyFormatError(str(exc), where)
    forbidden = subs[0] if len(subs) == 1 else PartialSpread(subs)
    return RelativeDifferenceFamily(carrier, forbidden, k, lam, msets)
