"""Development of difference families into 2-designs and design verification.

Points of a design are the elements of its carrier group, stored as encoded
integers 0..v-1; blocks are rows of a numpy array, sorted within each row.
Verification is exact: each pair is counted at its row-major place, over
the first b*C(k,2) + 1 of the C(v,2) places only (see `verify_design`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from sympy import isprime

from .families import RelativeDifferenceFamily, verify_rdf
from .groups import AbelianGroup, DifamError, Element


class DesignError(DifamError):
    pass


_CHUNK = 1 << 12  # blocks per slice in the array builders: bounds their temporaries

# the most blocks a design may have: bounds what a design file or ag_design allocates
MAX_DESIGN_BLOCKS = 2**24


@dataclass
class Design:
    """A block design on the points of an abelian group carrier."""

    carrier: AbelianGroup
    blocks: np.ndarray  # (b, k) encoded point indices, each row sorted
    k: int

    @property
    def v(self) -> int:
        return self.carrier.order

    @property
    def b(self) -> int:
        return self.blocks.shape[0]

    def block_points(self, i: int) -> list[Element]:
        return [self.carrier.decode(int(c)) for c in self.blocks[i]]


@dataclass
class DesignVerdict:
    is_design: bool
    lambda_found: Optional[int]
    is_simple: bool
    replication_ok: bool
    witness_pair: Optional[tuple[Element, Element]]  # a miscovered pair, if any


@dataclass
class SuperRegularVerdict:
    is_regular: bool
    is_strictly_additive: bool

    @property
    def is_super_regular(self) -> bool:
        return self.is_regular and self.is_strictly_additive


@dataclass
class AnomalyVerdict:
    anomalous: bool
    witness: Optional[tuple[int, int]]  # block indices whose closure misbehaves
    closure_size: Optional[int]
    inconclusive: bool


def _encode_rows(carrier: AbelianGroup, coords: np.ndarray) -> np.ndarray:
    """coords (..., rank) -> encoded ints, same leading shape."""
    weights = np.array(carrier._weights, dtype=np.int64)
    return coords.astype(np.int64) @ weights


def _blocks_array(carrier: AbelianGroup, blocks: Sequence[Sequence[Element]]) -> np.ndarray:
    rows = []
    for b in blocks:
        rows.append(sorted(carrier.encode(carrier.check(e)) for e in b))
    return np.array(rows, dtype=np.int64)


def make_design(carrier: AbelianGroup, blocks: Sequence[Sequence[Element]], k: int) -> Design:
    arr = _blocks_array(carrier, blocks)
    if arr.ndim != 2 or arr.shape[1] != k:
        raise DesignError(f"blocks must all have {k} points")
    return Design(carrier, arr, k)


def develop(rdf: RelativeDifferenceFamily, lambda_copies: Optional[int] = None) -> Design:
    """All translates of the base blocks plus lambda copies of every coset
    of every forbidden subgroup.
    """
    if not verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, rdf.k, rdf.lam).is_rdf:
        raise DesignError("difference family does not verify; refusing to develop it")
    lam = rdf.lam if lambda_copies is None else lambda_copies
    return Design(rdf.group, _develop_rows(rdf, lam), rdf.k)


def _develop_rows(rdf: RelativeDifferenceFamily, lam: int) -> np.ndarray:
    """The rows of `develop`, for any family, verified or not."""
    carrier = rdf.group
    orders = np.array(carrier.cyclic_orders, dtype=np.int64)
    all_elems = np.array(list(carrier.elements()), dtype=np.int64)  # (|G|, rank)
    base = np.array(
        [[list(e) for e in b.expand()] for b in rdf.blocks], dtype=np.int64
    )  # (s, k, rank)
    n = all_elems.shape[0]
    cosets = []  # the distinct cosets of each forbidden subgroup, as sorted rows
    for sub in rdf.forbidden_members():
        if sub.order != rdf.k:
            raise DesignError(
                f"forbidden subgroup of order {sub.order} cannot supply {rdf.k}-point blocks"
            )
        sub_arr = np.array(sub.elements, dtype=np.int64)
        coset_rows = _encode_rows(carrier, (sub_arr[None, :, :] + all_elems[:, None, :]) % orders)
        coset_rows.sort(axis=1)
        cosets.append(np.unique(coset_rows, axis=0))
    n_translates = base.shape[0] * n
    rows = np.empty((n_translates + lam * sum(len(c) for c in cosets), rdf.k), dtype=np.int64)
    for i, block in enumerate(base):  # one base block at a time: |G| x k x rank
        out = rows[i * n : (i + 1) * n]
        out[:] = _encode_rows(carrier, (block[None, :, :] + all_elems[:, None, :]) % orders)
        out.sort(axis=1)
    lo = n_translates
    for unique in cosets:  # lam copies of each coset
        rows[lo : lo + lam * len(unique)] = np.repeat(unique, lam, axis=0)
        lo += lam * len(unique)
    return rows


def _pair_index(u, w, v):
    """The row-major place of the pair u < w among the pairs of 0..v-1 (arrays too)."""
    return u * (2 * v - u - 1) // 2 + w - u - 1


def _pair_points(t: int, v: int) -> tuple[int, int]:
    """The pair u < w at row-major place t: the inverse of `_pair_index`."""
    # the smaller root of u(2v-u-1)/2 = t, rounded down; isqrt can leave it one off
    u = (2 * v - 1 - math.isqrt((2 * v - 1) ** 2 - 8 * t)) // 2
    if _pair_index(u, u + 1, v) > t:
        u -= 1
    elif _pair_index(u + 1, u + 2, v) <= t:
        u += 1
    return u, t - _pair_index(u, u + 1, v) + u + 1


def verify_design(design: Design, t: int = 2) -> DesignVerdict:
    """Exact pair-coverage count, simplicity, and replication check.

    Each pair u < w is counted at its row-major place, over the first
    `window` = min(C(v,2), b*C(k,2) + 1) places only.  Rows strictly increase,
    so a block covers a pair at most once.  A short window has more places
    than there are pair slots, so one is uncovered: the first pair whose
    count differs from that of (0, 1) lies in it, unless (0, 1) is itself
    uncovered, and then it is the least pair covered.  A row that does not
    strictly increase fails the design outright; simplicity still says
    whether any block repeats.
    """
    if t != 2:
        raise DesignError("only pair coverage (t=2) is supported")
    v, k, arr = design.v, design.k, design.blocks
    if arr.size == 0:
        return DesignVerdict(False, None, False, False, None)
    i_idx, j_idx = np.triu_indices(k, 1)
    n_pairs = v * (v - 1) // 2
    window = min(n_pairs, arr.shape[0] * i_idx.size + 1)
    counts = np.zeros(window, dtype=np.min_scalar_type(arr.shape[0]))
    least = n_pairs  # the least place covered
    for lo in range(0, arr.shape[0], _CHUNK):
        part = arr[lo : lo + _CHUNK]
        if np.any(np.diff(part, axis=1) <= 0):
            del counts  # before the keys, so the two peaks do not add
            return DesignVerdict(False, None, _no_repeated_blocks(arr, v), False, None)
        idx = _pair_index(part[:, i_idx], part[:, j_idx], v)
        least = min(least, int(idx.min(initial=least)))
        np.add.at(counts, idx[idx < window], counts.dtype.type(1))  # a plain 1 takes the slow loop
    lam = int(counts[0]) if window else 0  # the pair (0, 1)
    off = counts != lam
    if off.any():
        first_bad = int(np.argmax(off))
    else:  # a short window is then all uncovered, (0, 1) with it
        first_bad = least if window < n_pairs else n_pairs
    uniform = first_bad == n_pairs  # no pair is miscovered
    ok = uniform and lam >= 1
    witness = None if uniform else tuple(map(design.carrier.decode, _pair_points(first_bad, v)))
    del counts, off  # before the keys, so the two peaks do not add
    simple = _no_repeated_blocks(arr, v)
    repl_ok = False
    if ok:
        r, rem = divmod(lam * (v - 1), k - 1)
        point_counts = np.bincount(arr.ravel(), minlength=v)
        repl_ok = rem == 0 and bool(np.all(point_counts == r))
    return DesignVerdict(ok and repl_ok, lam if uniform else None, simple, repl_ok, witness)


def _no_repeated_blocks(arr: np.ndarray, v: int) -> bool:
    """True iff no two rows hold the same points, in whatever order."""
    keys = _sorted_row_keys(arr, v)
    return not np.any(np.all(keys[1:] == keys[:-1], axis=1))


def _decode_array(carrier: AbelianGroup, flat: np.ndarray) -> np.ndarray:
    orders = np.array(carrier.cyclic_orders, dtype=np.int64)
    dec = np.empty((flat.size, carrier.rank), dtype=np.int64)
    rem = flat.astype(np.int64).copy()
    for pos in range(carrier.rank - 1, -1, -1):
        dec[:, pos] = rem % orders[pos]
        rem //= orders[pos]
    return dec


def _sorted_row_keys(arr: np.ndarray, v: int, step: Optional[tuple[int, int]] = None) -> np.ndarray:
    """Each row as a point set, in lexicographic order: (b, words) int64 keys.

    A row is sorted and packed base v, as many digits per word as stay below
    2^62, so comparing keys compares rows.  With step = (w, n), every point
    is first moved by the unit generator of the cyclic factor of order n and
    weight w.
    """
    k = arr.shape[1]
    per_word = 1
    while per_word < k and v ** (per_word + 1) < 2**62:
        per_word += 1
    starts = np.arange(0, k, per_word)
    weights = np.array([v ** (per_word - 1 - i % per_word) for i in range(k)], dtype=np.int64)
    keys = np.empty((arr.shape[0], starts.size), dtype=np.int64)
    for lo in range(0, arr.shape[0], _CHUNK):
        part = arr[lo : lo + _CHUNK]
        if step is not None:
            w, n = step
            part = part + w - n * w * ((part // w) % n == n - 1)
        part = np.sort(part, axis=1)
        keys[lo : lo + part.shape[0]] = np.add.reduceat(part * weights, starts, axis=1)
    return np.sort(keys, axis=0) if starts.size == 1 else keys[np.lexsort(keys.T[::-1])]


def verify_super_regular(design: Design, group: AbelianGroup) -> SuperRegularVerdict:
    """Regularity (the block multiset, each block taken as a point set, is
    fixed by every translation) and strict additivity (every block zero-sum).

    The translations that fix the multiset form a subgroup of G, so it is
    enough that the unit generator of each cyclic factor fixes it: regular
    iff, for each factor, the sorted keys of the moved blocks equal those of
    the blocks.
    """
    if design.carrier != group or design.v != group.order:
        raise DesignError("design points are not the elements of the given group")
    if design.k < 1:
        raise DesignError(f"need blocks of at least one point, got k={design.k}")
    arr, v = design.blocks, design.v
    steps = list(zip(group._weights, group.cyclic_orders))
    additive = all(
        not np.any(((arr[lo : lo + _CHUNK] // w) % n).sum(axis=1) % n)
        for w, n in steps
        for lo in range(0, arr.shape[0], _CHUNK)
    )
    keys = _sorted_row_keys(arr, v)
    regular = all(np.array_equal(_sorted_row_keys(arr, v, step), keys) for step in steps)
    return SuperRegularVerdict(regular, additive)


def ag_design(n: int, p: int) -> Design:
    """The points and lines of the affine space of dimension n over Z_p.

    Lines are grouped by direction (directions in lexicographic order, each
    scaled so that its first nonzero coordinate is 1) and, within a
    direction, ordered by their least point.
    """
    if n < 2:
        raise DesignError(f"need dimension n >= 2, got {n}")
    if not isprime(p):
        raise DesignError(f"need a prime p, got {p}")
    # AG(n,p) has more than p^n >= 2^n lines: a large n is refused before p^n is formed
    if n > MAX_DESIGN_BLOCKS.bit_length() or p**n * (p**n - 1) // (p * (p - 1)) > MAX_DESIGN_BLOCKS:
        raise DesignError(f"AG({n},{p}) has more than {MAX_DESIGN_BLOCKS} lines")
    carrier = AbelianGroup((p,) * n)
    v = carrier.order
    points = _decode_array(carrier, np.arange(v, dtype=np.int64))  # (v, n), row i is point i
    nonzero = points != 0
    lead = points[np.arange(v), nonzero.argmax(axis=1)]
    directions = points[nonzero.any(axis=1) & (lead == 1)]
    steps = np.arange(p, dtype=np.int64)[None, :, None]
    blocks = []
    for d in directions:
        lines = _encode_rows(carrier, (points[:, None, :] + steps * d) % p)  # (v, p)
        lines.sort(axis=1)
        # each line once: from the start point that is its least point
        blocks.append(lines[lines[:, 0] == np.arange(v)])
    return Design(carrier, np.concatenate(blocks, axis=0), p)


def _pair_block_table(design: Design) -> np.ndarray:
    """The block through each pair of points, for Steiner designs only.

    One v*v int32 array: entry u*v+w, for u < w, holds the index of the
    block through u and w, and -1 where there is none; entries with u >= w
    are -1.  Filled one `_CHUNK` slice of blocks at a time.
    """
    v, k = design.v, design.k
    table = np.full(v * v, -1, dtype=np.int32)
    i_idx, j_idx = np.triu_indices(k, 1)
    for lo in range(0, design.b, _CHUNK):
        part = design.blocks[lo : lo + _CHUNK]
        ids = np.arange(lo, lo + part.shape[0], dtype=np.int32)
        table[(part[:, i_idx] * v + part[:, j_idx]).ravel()] = np.repeat(ids, i_idx.size)
    return table


def closure(
    design: Design,
    block1: Sequence[int],
    block2: Sequence[int],
    max_points: Optional[int] = None,
    _table: Optional[np.ndarray] = None,
    _rows: Optional[dict[int, list[int]]] = None,
) -> set[int]:
    """Least point set containing both blocks and closed under "add the
    unique block through any two member points"; points are encoded indices.

    The members are taken in the order they join.  Each member looks up the
    block through itself and every earlier member; blocks met before are
    skipped, and only new ones are read for new points.  A closure of n
    points thus costs C(n,2) lookups and reads about n(n-1)/(k(k-1))
    blocks, each once.

    With max_points set, iteration stops as soon as the set grows past it
    (the partial set is returned; its size already exceeds the bound).

    `_table` (the design's `_pair_block_table`) and `_rows` (block index ->
    that block's points as a list of ints, filled as blocks are read) are
    private caches shared across the closures of one scan.
    """
    b1, b2 = set(map(int, block1)), set(map(int, block2))
    if b1 == b2:
        raise DesignError("closure needs two distinct blocks")
    if len(b1 & b2) != 1:
        raise DesignError(f"blocks must meet in exactly one point, share {len(b1 & b2)}")
    # Python ints throughout: numpy scalars would cost more than the set work
    table = memoryview(_pair_block_table(design) if _table is None else _table)
    rows = {} if _rows is None else _rows
    blocks = design.blocks
    v = design.v
    pts = sorted(b1 | b2)  # grows as members join; each is visited once
    members = set(pts)
    seen = set()  # blocks already read
    for i, c in enumerate(pts):
        for m in pts[:i]:
            bi = table[m * v + c if m < c else c * v + m]
            if bi in seen:
                continue
            if bi < 0:
                raise DesignError(f"no block through pair ({m}, {c}); design is not Steiner")
            seen.add(bi)
            row = rows.get(bi)
            if row is None:
                row = rows[bi] = blocks[bi].tolist()
            for x in row:
                if x not in members:
                    members.add(x)
                    pts.append(x)
                    if max_points is not None and len(members) > max_points:
                        return members
    return members


def anomaly_witness(design: Design, p: int, scan_cap: int = 10**4) -> AnomalyVerdict:
    """Look for a pair of blocks through a common point whose closure is not
    a p^2-point plane; such a pair separates the design from the point-line
    design of the affine space.
    """
    if p < 2:
        raise DesignError(f"need p >= 2, got {p}")
    v = design.v
    m = v
    while m > 1:
        if m % p:
            raise DesignError(f"design order {v} is not a power of {p}")
        m //= p
    if design.k != p:
        raise DesignError(f"block size {design.k} != {p}")
    if design.b * p * (p - 1) != v * (v - 1):  # before the v*v pair table
        raise DesignError(f"{design.b} blocks of {p} points cannot be a 2-({v},{p},1) design")
    table = _pair_block_table(design)
    rows: dict[int, list[int]] = {}
    target = p * p
    scanned = 0
    # blocks grouped by their least point, in increasing order of it, by
    # index within a group: witnesses tend to be local
    blocks = design.blocks
    order = np.argsort(blocks[:, 0], kind="stable")
    cuts = (np.flatnonzero(np.diff(blocks[order, 0])) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [order.size]):
        ids = order[lo:hi].tolist()
        sets = [set(r) for r in blocks[ids].tolist()]
        for a in range(len(ids)):
            s1 = sets[a]
            for b in range(a + 1, len(ids)):
                s2 = sets[b]
                if len(s1 & s2) != 1:
                    continue
                scanned += 1
                cl = closure(design, s1, s2, max_points=target, _table=table, _rows=rows)
                if len(cl) != target:
                    return AnomalyVerdict(True, (ids[a], ids[b]), len(cl), False)
                if scanned >= scan_cap:
                    return AnomalyVerdict(False, None, None, True)
    return AnomalyVerdict(False, None, None, True)


def subspace_replace(m: int, n: int, p: int, anomalous_design: Design) -> Design:
    """Swap the lines of AG(m,p) lying in the coordinate subspace
    x_{n+1} = ... = x_m = 0 for the blocks of a 2-(p^n,p,1) design on that
    subspace, giving a 2-(p^m,p,1) design that inherits the anomaly.
    """
    if m < n:
        raise DesignError(f"need m >= n, got m={m}, n={n}")
    if anomalous_design.carrier != AbelianGroup((p,) * n):
        raise DesignError("replacement design must live on the p^n coordinate subspace")
    if anomalous_design.k != p:
        raise DesignError(f"replacement design has blocks of size {anomalous_design.k}, need {p}")
    if m == n:
        return anomalous_design
    big = ag_design(m, p)
    # codes are row-major, so a point has trailing zeros iff its code is a
    # multiple of scale, and a point c of the subspace has code c * scale
    scale = p ** (m - n)
    keep = big.blocks[np.any(big.blocks % scale, axis=1)]
    embedded = np.sort(anomalous_design.blocks, axis=1) * scale
    return Design(big.carrier, np.concatenate([keep, embedded], axis=0), p)
