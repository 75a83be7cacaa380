"""One JSON schema for every family role: SDF, relative DF, difference
matrix, and developed design.

The header carries the carrier (group factors and/or field p,n,modulus),
the role, k, and lambda (mu for difference matrices); the body carries the
blocks.  Group elements are residue lists, field elements ascending
coefficient lists, product elements {"g": [...], "f": [...]}: the edge
where element tuples meet the code arrays that blocks, forbidden subgroups
and difference matrices hold.  A design file lists each distinct block
once, as {"points": [...], "mult": m} (m is 1 when absent).

Every file is laid out as json.dumps(doc, indent=1), in ASCII.  A
design's text is filled into that layout from a table of point texts,
each distinct point formatted once, and made in byte pieces of at most
2^14 point texts: write_family writes each piece as it is made, so the
text is never held whole, to a file that replaces the target file once
complete (a pipe is written directly); render_family joins them into one
str.  parse(render(x)) == x for every field of every role, a
design with no blocks included: additivity is derived from the blocks,
not stored, so the file carries no flag.  Parsing checks structure
only and runs no verifier; each CLI command verifies a family it reads once.

There are two readers.  A design file whose text is exactly what
render_family writes (every file `difam develop` writes) is read by
scanning its digits with numpy: one pass finds the digit bytes, and a
number starts where their positions jump.  Its rows must be sorted and
strictly increasing, as the writer's row dedupe leaves them, and it is
accepted only if the writer's byte pieces of them, as read, are the text,
byte for byte, each compared where it falls; nothing is re-sorted on
read.  Any other text, and every file of the other roles, goes to the
JSON reader, which alone names errors: every number is a JSON
integer (a float, a string or a bool is refused, not truncated or
converted), every element is checked on its own, and any malformed file
raises FamilyFormatError.  Both readers bound a design's blocks and block
points, counted with their multiplicities, before they repeat its rows,
and make its code rows slice by slice in the design's code type (see
designs.py), with no int64 copy of the whole.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from typing import Iterator, Optional, Union

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
from .designs import _CHUNK, MAX_DESIGN_BLOCKS, MAX_DESIGN_POINTS, Design
from .designs import _code_type, _unique_rows
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
        return field.additive_group
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
    return base if field is None else ProductCarrier(base, field)


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


def _element_from_json(carrier, obj, where: str):
    if isinstance(carrier, ProductCarrier):
        if not (isinstance(obj, dict) and set(obj) == {"g", "f"}):
            raise FamilyFormatError('product element must be {"g": [...], "f": [...]}', where)
        e = ()
        for part, width in ("g", carrier.group.rank), ("f", carrier.rank - carrier.group.rank):
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


def _parse_design(carrier, k: int, raw_blocks: list) -> Design:
    """One pass over the block entries, blocks and block points bounded with
    multiplicity, then each point read by `_element_from_json` and encoded
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
        if total > MAX_DESIGN_BLOCKS or total * k > MAX_DESIGN_POINTS:
            raise FamilyFormatError(
                f"design has more than {MAX_DESIGN_BLOCKS} blocks or {MAX_DESIGN_POINTS} "
                "block points, counting multiplicity", where
            )
        points += pts
        mults.append(mult)
    codes = np.empty(len(points), dtype=_code_type(carrier.order))
    for lo in range(0, len(points), _CHUNK * k):
        part = enumerate(points[lo : lo + _CHUNK * k], lo)
        xs = [_element_from_json(carrier, x, f"blocks[{i // k}].points[{i % k}]") for i, x in part]
        codes[lo : lo + len(xs)] = carrier.encode_array(np.array(xs, dtype=np.int64))
    return Design(carrier, np.repeat(np.sort(codes.reshape(-1, k), axis=1), mults, axis=0), k)


def _design_pieces(carrier, k: int, rows: np.ndarray, counts: np.ndarray) -> Iterator[bytes]:
    """json.dumps(doc, indent=1) of the per-point design doc of the (b, k)
    code rows `rows`, row i with "mult" counts[i], in ASCII pieces: the
    writer writes them as they come and `_read_rendered_design` compares
    them with its text.

    The stdlib lays out the header, the block separator, a block of two
    null points and one point of null residues.  Each distinct code in
    `rows` is formatted once, into a table indexed by the code's rank among
    them; a row's text joins its points' texts between the block's opening
    and closing literals, then the "mult" tail of its multiplicity.
    """
    head = {"role": "design", "carrier": _carrier_header(carrier), "k": k}
    if not len(rows):
        yield json.dumps({**head, "blocks": []}, indent=1).encode()
        return
    layout = json.dumps({**head, "blocks": [None, None]}, indent=1).encode()
    prefix, sep, suffix = layout.rsplit(b"null", 2)
    block = json.dumps({"points": [None, None], "mult": None}, indent=1).encode()
    # sep[1:] is newline + indent
    opening, point_sep, closing, end = block.replace(b"\n", sep[1:]).split(b"null")
    point = json.dumps(_element_to_json(carrier, (None,) * carrier.rank), indent=1).encode()
    point = point.replace(b"\n", point_sep[1:]).replace(b"null", b"%d")
    # the distinct codes; lookup: code - used[0] -> rank, if smaller than rows
    used, lookup = _unique_rows(rows.reshape(-1, 1), carrier.order)[0].ravel(), None
    if used[-1] - used[0] < rows.size:
        lookup = np.zeros(used[-1] - used[0] + 1, dtype=np.intp)
        lookup[used - used[0]] = np.arange(len(used))
    texts = np.array([point % tuple(c) for c in carrier.decode_array(used).tolist()], dtype=object)
    inner, last = texts + point_sep, texts + closing
    tails = {m: b"%d%s" % (m, end) for m in set(counts.tolist())}
    yield prefix
    step = max(1, _CHUNK * 4 // (k + 2))  # rows a piece: bytes.join holds a buffer view per cell
    for lo in range(0, len(rows), step):
        part = rows[lo : lo + step]
        ranks = lookup[part - used[0]] if lookup is not None else np.searchsorted(used, part)
        cells = np.empty((len(part), k + 2), dtype=object)
        cells[:, 0] = sep + opening  # np.full would copy the bytes into every cell
        if not lo:
            cells[0, 0] = opening
        cells[:, 1:k], cells[:, k] = inner[ranks[:, :-1]], last[ranks[:, -1]]
        cells[:, k + 1] = [tails[m] for m in counts[lo : lo + step].tolist()]
        yield b"".join(cells.ravel().tolist())
    yield suffix


def _ascending(rows: np.ndarray) -> bool:
    """Whether each row is non-decreasing and the rows strictly increase in
    lexicographic order: whether `rows` is its own np.unique(axis=0)."""
    step = rows[1:] - rows[:-1]
    first = (step != 0).argmax(axis=1)  # 0 for two equal rows, whose step there is 0
    lex = step[np.arange(len(step)), first] > 0
    return bool(np.all(rows[:, 1:] >= rows[:, :-1]) and np.all(lex))


# where the text of `_design_pieces` starts and where its blocks start: a
# quick refusal and a cut; the rendering, not these, decides what is read
_DESIGN_START = b'{\n "role": "design",\n'
_BLOCKS_KEY = b'\n "blocks": ['
_SLICE = 1 << 20  # bytes of a design body scanned at once
_DIGITS = 18  # the longest digit run read: 10**18 - 1 < 2**63
_NON_DIGIT = re.compile(rb"[^0-9]")


def _digit_runs(chars: np.ndarray) -> Optional[np.ndarray]:
    """The numbers spelled by the runs of ASCII digits in a uint8 array, in
    order; None if a run is longer than `_DIGITS`.  The digits' positions
    come from one pass over the bytes; a run starts where they jump."""
    d = chars - np.uint8(ord("0"))  # wraps below "0"
    at = np.flatnonzero(d < 10)
    first = np.ones(at.size, dtype=bool)
    np.not_equal(at[1:], at[:-1] + 1, out=first[1:])
    starts = np.flatnonzero(first)  # each run's first digit, as a place in `at`
    lengths = np.diff(starts, append=at.size)
    if lengths.max(initial=0) > _DIGITS:
        return None
    digits = d[at]
    numbers = digits[starts].astype(np.int64)
    for j in range(1, lengths.max(initial=0)):  # digit j of every run that has one
        live = np.flatnonzero(lengths > j)
        numbers[live] = numbers[live] * 10 + digits[starts[live] + j]
    return numbers


def _read_rendered_design(text: Union[str, bytes]) -> Optional[Design]:
    """The design whose rendering is `text`, or None.

    The header is read by json.loads up to the "blocks" key.  The body is
    read as its digit runs, k * rank coordinates and a mult to a row, one
    `_SLICE` of bytes at a time: each slice's whole rows are checked and
    encoded, and a partial row is carried to the next.  Coordinates,
    multiplicities, the block total and the block points it makes are
    bounded before any array grows with them.  The rows R read must be
    `_ascending`, and the rendering of R and the multiplicities C read, as
    read, must be `text`, byte for byte.

    So the texts accepted are those render_family writes.  Such a text is
    render(R', C'), R' and C' the distinct sorted rows of its design and
    their counts; rendering is injective and the digit runs of the text are
    R' and C' in order, so R = R', C = C', and R is ascending.  Conversely,
    ascending rows are their own np.unique(axis=0), so render(R, C) is what
    render_family writes for R, row i taken C[i] times: the design returned,
    built only once the bytes match.  Any other text gives None, and the
    JSON reader names what is wrong with it.
    """
    if isinstance(text, str) and text.isascii():
        text = text.encode("ascii")
    if not (isinstance(text, bytes) and text.startswith(_DESIGN_START)):
        return None
    at = text.find(_BLOCKS_KEY)
    if at < 0:
        return None
    try:
        role, carrier, k = _header(json.loads(text[:at].removesuffix(b",") + b"}"))
    except (ValueError, RecursionError):  # FamilyFormatError is a ValueError
        return None
    width = k * carrier.rank + 1
    if role != "design" or width > len(text):
        return None
    orders, dtype = np.array(carrier.cyclic_orders), _code_type(carrier.order)
    codes, mults, carry = [], [], np.empty(0, dtype=np.int64)
    lo = at
    while lo < len(text):
        hi = min(lo + _SLICE, len(text))
        if hi < len(text):  # cut before a non-digit, so that no digit run is split
            cut = _NON_DIGIT.search(text, hi, hi + _DIGITS + 1)
            if cut is None:
                return None
            hi = cut.start()
        numbers = _digit_runs(np.frombuffer(text, np.uint8, hi - lo, lo))
        if numbers is None:
            return None
        numbers = np.concatenate([carry, numbers])
        whole = numbers.size - numbers.size % width
        table, carry = numbers[:whole].reshape(-1, width), numbers[whole:]
        coords = table[:, :-1].reshape(-1, carrier.rank)
        if np.any(coords >= orders):
            return None
        codes.append(carrier.encode_array(coords).reshape(-1, k).astype(dtype))
        mults.append(table[:, -1].copy())  # a view would keep all of `numbers`
        lo = hi
    rows, mults = np.concatenate(codes), np.concatenate(mults)
    del codes
    if carry.size or not 1 <= mults.min(initial=1) <= mults.max(initial=1) <= MAX_DESIGN_BLOCKS:
        return None
    total = int(mults.sum())
    if total > MAX_DESIGN_BLOCKS or total * k > MAX_DESIGN_POINTS or not _ascending(rows):
        return None
    pos = 0
    for piece in _design_pieces(carrier, k, rows, mults):
        if not text.startswith(piece, pos):
            return None
        pos += len(piece)
    return Design(carrier, np.repeat(rows, mults, axis=0), k) if pos == len(text) else None


def _pieces(obj: Family) -> Iterator[bytes]:
    """The ASCII text of `obj`, in pieces; a design's pieces are made as
    they are asked for, everything else up front."""
    if isinstance(obj, Design):
        return _design_pieces(obj.carrier, obj.k, *_unique_rows(obj.blocks, obj.v))

    def listed(rows) -> list:
        return [[_element_to_json(obj.group, e) for e in row] for row in rows]

    if isinstance(obj, DifferenceMatrix):
        role, body, blocks = "dm", {"mu": obj.mu}, obj.group.decode_array(obj.columns).tolist()
    elif isinstance(obj, (StrongDifferenceFamily, RelativeDifferenceFamily)):
        role, body, blocks = "sdf", {"lambda": obj.lam}, [b.expand() for b in obj.blocks]
        if isinstance(obj, RelativeDifferenceFamily):
            subs = [obj.group.decode_array(sub.codes).tolist() for sub in obj.forbidden_members()]
            role, body["forbidden"] = "rdf", listed(subs)
    else:
        raise FamilyFormatError(f"cannot serialize {type(obj).__name__}")
    head = {"role": role, "carrier": _carrier_header(obj.group), "k": obj.k}
    return iter([json.dumps({**head, **body, "blocks": listed(blocks)}, indent=1).encode()])


def render_family(obj: Family) -> str:
    return b"".join(_pieces(obj)).decode()


def write_family(obj: Family, path) -> None:
    """Write `render_family(obj)` to the file at `path`, piece by piece as
    the pieces are made: a design's text is never held whole.  The pieces
    go to a file beside the one `path` names, through any links, that
    replaces it once all are written, so a write that fails or is cut
    short leaves that file as it was.  A path that names something other
    than a file, such as a pipe or a terminal, is written directly."""
    pieces = _pieces(obj)  # refuses an object it cannot write before a file is opened
    if os.path.exists(path) and not os.path.isfile(path):  # nothing there to replace
        with open(path, "wb") as out:
            out.writelines(pieces)
        return
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    part = os.path.join(head, f".{name}.{os.getpid()}.part")
    try:
        with open(part, "wb") as out:
            out.writelines(pieces)
        os.replace(part, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise


def parse_family(text: Union[str, bytes]) -> Family:
    """The family in `text`, or bytes that must be UTF-8."""
    design = _read_rendered_design(text)
    return design if design is not None else _parse_json(text)


def _header(doc) -> tuple[str, AbelianGroup, int]:
    """The role, carrier and k of a parsed document."""
    if not isinstance(doc, dict):
        raise FamilyFormatError("top level must be an object")
    role = doc.get("role")
    if role not in ("sdf", "rdf", "dm", "design"):
        raise FamilyFormatError(f"unknown role {role!r}", "role")
    if "carrier" not in doc:
        raise FamilyFormatError("missing carrier", "carrier")
    carrier = _carrier_from_header(doc["carrier"], "carrier")
    k = _int(doc.get("k"), "k")
    if k < 1:
        raise FamilyFormatError(f"must be >= 1, got {k}", "k")
    return role, carrier, k


def _parse_json(text: Union[str, bytes]) -> Family:
    """The family in `text`, read by json.loads: the reader of every layout,
    and the one that names what is wrong with a malformed file."""
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
    role, carrier, k = _header(doc)
    raw_blocks = doc.get("blocks")
    if not isinstance(raw_blocks, list) or not (raw_blocks or role == "design"):
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
        columns = carrier.encode_elements([e for c in blocks for e in c]).reshape(-1, k)
        return DifferenceMatrix(carrier, k, mu, columns)

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
            subs.append(Subgroup(carrier, carrier.encode_elements(elems)))
        except GroupError as exc:
            raise FamilyFormatError(str(exc), where)
    try:
        forbidden = subs[0] if len(subs) == 1 else PartialSpread(subs)
    except FamilyError as exc:
        raise FamilyFormatError(str(exc), "forbidden")
    return RelativeDifferenceFamily(carrier, forbidden, k, lam, msets)
