"""Development of difference families into 2-designs and design verification.

Points of a design are the elements of its carrier group, stored as encoded
integers 0..v-1; blocks are rows of a numpy array, sorted within each row.
A `Design` refuses a code outside 0..v-1 when it is made, so its readers
take every code as a point; it is frozen and holds its blocks read-only,
in one C-contiguous array of the least of int16, int32 and int64 that
holds v-1.
int16 and int32 products wrap silently: widen codes to int64 before
multiplying them (a pair place u*v + w, a scaled code), and count points
per slice.
Verification is exact: each pair is counted at its row-major place, over
the first b*C(k,2) + 1 of the C(v,2) places only (see `verify_design`); a
regular design's counts come from its blocks through 0 alone (see
`verify_developed`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .diffs import stack_rows
from .families import RelativeDifferenceFamily, verify_rdf
from .groups import _CHUNK, MAX_DESIGN_POINTS, AbelianGroup, DifamError, Element, _slice_rows
from .groups import _orbit_batch, _orbit_rows, is_prime


class DesignError(DifamError):
    pass


class DesignTooLarge(DesignError):
    """A design, pair table or count window refused for its size alone."""


# the most blocks a design may have: bounds what a design file or ag_design allocates
MAX_DESIGN_BLOCKS = 2**24
# the largest v*v pair table the anomaly scan makes (v = 16,807 takes 1.05 GiB),
# and the largest pair-count window `verify_design` makes (141 MB at v = 16,807)
MAX_PAIR_TABLE_BYTES = 2**31


@dataclass(frozen=True, eq=False)  # eq=False keeps the __eq__ and __hash__ below
class Design:
    """A block design on the points of an abelian group carrier.  Every
    block code lies in 0..v-1, checked once, when the design is made; the
    design is frozen, so its blocks cannot be swapped for unchecked ones."""

    carrier: AbelianGroup
    blocks: np.ndarray  # (b, k) encoded point indices, each row sorted, read-only; see `_code_type`
    k: int
    # the base code rows of the lambda = 1 family that `develop` built this
    # from, in its row layout; read only by `_difference_oracle`
    _base: Optional[np.ndarray] = field(default=None, repr=False, kw_only=True)

    def __post_init__(self):
        """Refuse a code outside 0..v-1, read in the array as given, before
        a cast could wrap it; then hold the blocks read-only in
        `_code_type(v)`, copied only when the given type or layout differs
        (an array given in that type and layout is itself made read-only)."""
        arr = np.asarray(self.blocks)
        if arr.size and arr.dtype.kind not in "iu":  # a cast would truncate, not refuse
            raise DesignError(f"design blocks must be integer codes, not {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.v):
            raise DesignError("design points are not the elements of the given group")
        blocks = np.ascontiguousarray(arr, dtype=_code_type(self.v))
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    @property
    def v(self) -> int:
        return self.carrier.order

    @property
    def b(self) -> int:
        return self.blocks.shape[0]

    def __eq__(self, other) -> bool:
        """Same carrier, same k and the same multiset of blocks, each block
        taken as a point set."""
        if not (isinstance(other, Design) and self.carrier == other.carrier and self.k == other.k):
            return False
        if self.blocks.shape != other.blocks.shape:
            return False
        return self.blocks.size == 0 or np.array_equal(
            _sorted_row_keys(self.blocks, self.v), _sorted_row_keys(other.blocks, other.v)
        )

    __hash__ = None  # compared by content, which an array does not hash


def _code_type(v: int) -> np.dtype:
    """The least of int16, int32 and int64 that holds v - 1: the type of a
    design's blocks."""
    for dtype in map(np.dtype, (np.int16, np.int32, np.int64)):
        if v - 1 <= np.iinfo(dtype).max:
            return dtype
    raise DesignError(f"the codes of a {v}-point design do not fit in int64")


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
    closures_scanned: int  # pairs the scan decided, the witness among them


def develop(rdf: RelativeDifferenceFamily) -> Design:
    """All translates of the base blocks plus lambda copies of every coset
    of every forbidden subgroup.

    Row h|G| + g is base block h plus g, g in code order; then come lambda
    copies of each distinct coset, subgroup by subgroup, in lexicographic
    order.  A design from a lambda = 1 family keeps the base rows, so that
    the anomaly scan can find blocks by `_difference_oracle`.
    """
    if not verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, rdf.k, rdf.lam).is_rdf:
        raise DesignError("difference family does not verify; refusing to develop it")
    base = stack_rows(rdf.blocks, rdf.k) if rdf.lam == 1 else None
    return Design(rdf.group, _develop_rows(rdf), rdf.k, _base=base)


def _develop_rows(rdf: RelativeDifferenceFamily) -> np.ndarray:
    """The rows of `develop`, for any family, verified or not: the orbits
    of the base blocks, made by `_orbit_rows`, then the distinct cosets of
    each forbidden subgroup, made by `_distinct_translates`."""
    carrier, lam = rdf.group, rdf.lam
    n = carrier.order
    coset_blocks = []  # the distinct cosets of each forbidden subgroup, as sorted rows
    for sub in rdf.forbidden_members():
        if sub.order != rdf.k:
            raise DesignError(
                f"forbidden subgroup of order {sub.order} cannot supply {rdf.k}-point blocks"
            )
        coset_blocks.append(_distinct_translates(carrier, sub.codes))
    n_translates = len(rdf.blocks) * n
    b = n_translates + lam * sum(len(c) for c in coset_blocks)
    _check_points(b, rdf.k)
    rows = np.empty((b, rdf.k), dtype=_code_type(n))
    _orbit_rows(carrier, stack_rows(rdf.blocks, rdf.k), rows[:n_translates])
    lo = n_translates
    for unique in coset_blocks:  # lam copies of each coset
        rows[lo : lo + lam * len(unique)] = np.repeat(unique, lam, axis=0)
        lo += lam * len(unique)
    return rows


def _check_points(b: int, k: int) -> None:
    """Refuse a design of b blocks of k points past MAX_DESIGN_POINTS."""
    if b * k > MAX_DESIGN_POINTS:
        raise DesignTooLarge(
            f"a design of {b} blocks of {k} points has {b * k} block points, "
            f"over the cap of {MAX_DESIGN_POINTS}"
        )


def _check_table(what: str, v: int, size: int) -> None:
    """Refuse a pair table or window of `size` bytes past MAX_PAIR_TABLE_BYTES."""
    if size > MAX_PAIR_TABLE_BYTES:
        raise DesignTooLarge(
            f"{what} for a {v}-point design: {size / 2**30:.2f} GiB, "
            f"over the {MAX_PAIR_TABLE_BYTES / 2**30:.2f} GiB cap"
        )


def _pair_index(u, w, v):
    """The row-major place of the pair u < w among the pairs of 0..v-1:
    ints, or arrays of any int type, whose places come in int64 (they run
    past 2^31 for v > 65,536)."""
    if isinstance(u, np.ndarray):
        u = u.astype(np.int64, copy=False)
    return (u * (2 * v - 3 - u) >> 1) + (w - 1)  # u(2v-u-1)/2 + w-u-1, with no division


def _pair_points(t: int, v: int) -> tuple[int, int]:
    """The pair u < w at row-major place t: the inverse of `_pair_index`."""
    # the smaller root of u(2v-u-1)/2 = t, rounded down; isqrt can leave it one off
    u = (2 * v - 1 - math.isqrt((2 * v - 1) ** 2 - 8 * t)) // 2
    if _pair_index(u, u + 1, v) > t:
        u -= 1
    elif _pair_index(u + 1, u + 2, v) <= t:
        u += 1
    return u, t - _pair_index(u, u + 1, v) + u + 1


def verify_design(design: Design) -> DesignVerdict:
    """Exact pair-coverage count, simplicity, and replication check.

    Each pair u < w is counted at its row-major place, over the first
    `window` = min(C(v,2), b*C(k,2) + 1) places only.  Rows strictly increase,
    so a block covers a pair at most once.  A short window has more places
    than there are pair slots, so one is uncovered: the first pair whose
    count differs from that of (0, 1) lies in it, unless (0, 1) is itself
    uncovered, and then it is the least pair covered.  A row that does not
    strictly increase fails the design outright; simplicity still says
    whether any block repeats.  A design with every pair covered exactly
    once is simple without a look at its blocks: a repeated block of k >= 2
    strictly increasing points would cover each of its pairs twice.

    Counts are kept in one byte each, so each byte holds its true count
    mod 256.  A count reduced mod 256 is at most the count, and equal to it
    iff it is below 256; so the bytes sum to the number of places counted
    iff no count wrapped.  Only when they fall short are the pairs counted
    again, in the least unsigned type that holds b.  Each window past
    MAX_PAIR_TABLE_BYTES is refused before it is made; blocks go in
    `_slice_rows` slices.
    """
    v, k, arr = design.v, design.k, design.blocks
    if arr.size == 0:  # no blocks, or blocks of no points: simple unless two repeat
        return DesignVerdict(False, None, arr.shape[0] < 2, False, None)
    n_pairs = v * (v - 1) // 2
    window = min(n_pairs, arr.shape[0] * (k * (k - 1) // 2) + 1)
    _check_table("pair counts", v, window)
    counts, least, added = _count_pairs(arr, v, window, np.dtype(np.uint8))
    if counts is None:
        return DesignVerdict(False, None, _no_repeated_blocks(arr, v), False, None)
    if int(counts.sum(dtype=np.int64)) != added:  # a count wrapped past 255
        del counts
        dtype = np.min_scalar_type(arr.shape[0])
        _check_table("pair counts", v, window * dtype.itemsize)
        counts = _count_pairs(arr, v, window, dtype)[0]
    lam = int(counts[0]) if window else 0  # the pair (0, 1)
    first_bad = _first_other(counts, lam)
    if first_bad is None:  # a short window is then all uncovered, (0, 1) with it
        first_bad = least if window < n_pairs else n_pairs
    del counts  # before the keys, so the two peaks do not add
    uniform = first_bad == n_pairs  # no pair is miscovered
    ok = uniform and lam >= 1
    witness = None if uniform else tuple(map(design.carrier.decode, _pair_points(first_bad, v)))
    simple = (uniform and lam == 1) or _no_repeated_blocks(arr, v)
    repl_ok = False
    if ok:
        r, rem = divmod(lam * (v - 1), k - 1)
        point_counts = np.zeros(v, dtype=np.int64)
        for lo in range(0, arr.shape[0], _CHUNK):  # bincount makes an intp copy of what it reads
            point_counts += np.bincount(arr[lo : lo + _CHUNK].ravel(), minlength=v)
        repl_ok = rem == 0 and bool(np.all(point_counts == r))
    return DesignVerdict(ok and repl_ok, lam if uniform else None, simple, repl_ok, witness)


def _count_pairs(
    arr: np.ndarray, v: int, window: int, dtype: np.dtype
) -> tuple[Optional[np.ndarray], int, int]:
    """The pair counts of the rows of `arr` over the first `window` places,
    in `dtype`; the least place covered, of a short window only; and how
    many places were counted.  The counts are None, and freed, if a row does
    not strictly increase.  The place of (u, w) is that of (u, 0) plus w."""
    i_idx, j_idx = np.triu_indices(arr.shape[1], 1)
    counts = np.zeros(window, dtype=dtype)
    least, added = v * (v - 1) // 2, 0
    full = window == least  # every place is counted: no mask, and no least
    step = _slice_rows(arr.shape[1])
    for lo in range(0, arr.shape[0], step):
        part = arr[lo : lo + step]
        if not _rows_increase(part):
            return None, least, added
        # a copy, added to in place: one temporary fewer
        idx = _pair_index(part, 0, v)[:, i_idx]
        idx += part[:, j_idx]
        if full:
            added += idx.size
            # idx is column-major, as a fancy index on axis 1 makes it: "K" keeps it a view
            np.add.at(counts, idx.ravel("K"), counts.dtype.type(1))  # a plain 1 takes the slow loop
            continue
        least = min(least, int(idx.min(initial=least)))
        # rebinding idx to its kept places instead had glibc map fresh pages for
        # every slice: 775,000 minor faults and 1.5 s more at v = 16,807
        keep = idx < window
        added += int(np.count_nonzero(keep))
        np.add.at(counts, idx[keep], counts.dtype.type(1))
    return counts, least, added


def _rows_increase(part: np.ndarray) -> bool:
    """Whether every row of `part` strictly increases: one compare of each
    point with the next in the flat array, the places between rows passed."""
    flat = part.ravel()
    up = flat[1:] > flat[:-1]
    up[part.shape[1] - 1 :: part.shape[1]] = True
    return bool(up.all())


def _first_other(counts: np.ndarray, value: int) -> Optional[int]:
    """The first place in `counts` that does not hold `value`, or None;
    compared a `_CHUNK` * 32 places at a time."""
    step = _CHUNK * 32
    for lo in range(0, counts.size, step):
        off = counts[lo : lo + step] != value
        if off.any():
            return lo + int(off.argmax())
    return None


def _no_repeated_blocks(arr: np.ndarray, v: int) -> bool:
    """True iff no two rows hold the same points, in whatever order."""
    keys = _sorted_row_keys(arr, v)
    return not np.any(np.all(keys[1:] == keys[:-1], axis=1))


def _sorted_row_keys(arr: np.ndarray, v: int) -> np.ndarray:
    """Each row as a point set, in lexicographic order: (b, words) int64
    keys.  A row is sorted and then packed as `_packed_keys` packs it; a
    slice whose rows all strictly increase is its own sort."""
    return _packed_keys(arr, v, lambda part: part if _rows_increase(part) else np.sort(part, axis=1))


def _unique_rows(arr: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `arr`, points 0..v-1, in lexicographic order,
    and how often each occurs: np.unique(arr, axis=0, return_counts=True),
    from the sorted `_packed_keys` of the rows as given."""
    keys = _packed_keys(arr, v, lambda part: part)
    new = np.ones(keys.shape[0], dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    weights, per_word = _key_weights(arr.shape[1], v)
    word = np.arange(arr.shape[1]) // per_word
    rows = keys[starts][:, word] // weights % v  # each key's digits, unpacked
    return rows.astype(arr.dtype, copy=False), np.diff(starts, append=keys.shape[0])


def _key_weights(k: int, v: int) -> tuple[np.ndarray, int]:
    """The weights of k base-v digits packed as many to an int64 word as
    stay below 2^62, and that many."""
    per_word = 1
    while per_word < k and v ** (per_word + 1) < 2**62:
        per_word += 1
    weights = np.array([v ** (per_word - 1 - i % per_word) for i in range(k)], dtype=np.int64)
    return weights, per_word


def _pack_rows(rows: np.ndarray, v: int, out: np.ndarray) -> None:
    """Write the keys of `rows` (of k >= 1 points 0..v-1, as given) into
    `out`, of one row per word: base v by `_key_weights`, so comparing keys
    compares rows.  A _CHUNK of rows at a time, as the product makes an
    int64 copy of the rows it reads."""
    weights, per_word = _key_weights(rows.shape[1], v)
    for lo in range(0, rows.shape[0], _CHUNK):
        part = rows[lo : lo + _CHUNK]
        for word, s in enumerate(range(0, rows.shape[1], per_word)):
            out[word, lo : lo + _CHUNK] = part[:, s : s + per_word] @ weights[s : s + per_word]


def _packed_keys(arr: np.ndarray, v: int, prepare: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The rows `prepare` makes of `arr` (of k >= 1 points), in
    lexicographic order, as (b, words) int64 keys: `prepare` maps each
    `_CHUNK` of rows to rows of points 0..v-1, which `_pack_rows` packs
    and `_sort_keys` sorts."""
    per_word = _key_weights(arr.shape[1], v)[1]
    words = np.empty((-(-arr.shape[1] // per_word), arr.shape[0]), dtype=np.int64)
    for lo in range(0, arr.shape[0], _CHUNK):
        part = prepare(arr[lo : lo + _CHUNK])
        _pack_rows(part, v, words[:, lo : lo + part.shape[0]])
    return _sort_keys(words)


def _sort_keys(words: np.ndarray) -> np.ndarray:
    """Sort the keys held as the columns of `words` (one row per word) into
    lexicographic order, in place, and return them as (b, words).

    Keys of more than one word are sorted by their first word; only the
    runs of keys whose first words tie are then sorted in full.
    """
    if words.shape[0] == 1:
        words.sort(axis=1)
        return words.T
    order = np.argsort(words[0])
    for row in words:  # one word at a time: a copy of one row, not of all
        row[:] = row[order]
    tie = words[0, 1:] == words[0, :-1]
    if tie.any():
        # the tied keys keep their places by first word, so sorting them
        # among themselves sorts each run
        tied = np.zeros(words.shape[1], dtype=bool)
        tied[1:] = tie
        tied[:-1] |= tie
        runs = words[:, tied]
        words[:, tied] = runs[:, np.lexsort(runs[::-1])]
    return words.T


def verify_super_regular(design: Design, group: AbelianGroup) -> SuperRegularVerdict:
    """Regularity (the block multiset, each block taken as a point set, is
    fixed by every translation) and strict additivity (every block zero-sum).

    A design is regular iff it is the development of its blocks through 0,
    and that is what is checked: the design D is rebuilt as D', which must
    equal D.  Let D_0 be the blocks of D through 0, repeats counted.  For B
    in D_0 and each distinct point b of B, B - b is a block through 0; B's
    rep is the least of these by packed key, s is how many b reach it, and
    p is how many distinct points B has.  The b with B - b = rep are a
    coset of B's stabiliser, so s is its order.  D_0 is grouped by rep, c
    rows a class, and each class gets multiplicity m = c s / p.  D' is m
    copies of the v/s distinct translates of each rep.  D is regular iff
    every m is an integer, the sum of m v/s is b (checked before any orbit
    is made, which bounds the work and the memory), and D' and D have the
    same sorted row keys.

    Soundness needs nothing of how the reps were chosen: every translation
    fixes D' by construction, so D = D' is regular.  Completeness: let D
    be regular, and O one of its orbits, with multiplicity m_O and
    stabiliser order s, its blocks of p distinct points.  R + g holds 0 iff
    -g is a point of R, so the blocks of O through 0 are the R - c, for one
    such block R and c a point of R: p/s distinct blocks, each m_O times in
    D.  They share one rep, which lies in O, so its class has c = m_O p/s
    rows, m = m_O, and D' = D.

    A design with fewer block points than group elements (b >= 1, v > bk)
    is not regular, and no keys are built: a translation g that fixes a
    block B moves B[0] into B, so g lies in B - B[0], the stabiliser of B
    has at most k elements, B has at least v/k > b distinct translates, and
    a regular design holds them all.  With b = 0 the design is regular.
    Past that bound v <= bk, so the per-code tables built here, the digit
    sums of `zero_sum_rows` and one batch of orbits, of at most b or v
    rows, are at most k times the size of the block array.  The check
    itself is `_rows_through_zero`; additivity is `_additive`, from the
    rows through 0 of a regular design.
    """
    if design.carrier != group or design.v != group.order:
        raise DesignError("design points are not the elements of the given group")
    through = _rows_through_zero(design)  # refuses k < 1 first
    return SuperRegularVerdict(through is not None, _additive(design, through))


def _additive(design: Design, through: Optional[np.ndarray]) -> bool:
    """Whether every block of the design sums to 0, given `through`, the
    design's `_rows_through_zero`.

    For a regular design with b >= 1 it comes from those rows alone, rows
    sorted or not: every block of D is R + g for some R in D_0 and g in G
    (a block through x is a row of D_0 plus x), and every R + g is one (D
    is the development of D_0).  The k points of R + g sum to sum(R) + kg.
    So every block sums to 0 iff every row of D_0 does (g = 0) and kg = 0
    for every g, that is iff each cyclic order of G divides k.  Any other
    design sums every row.
    """
    group = design.carrier
    if through is None or not design.b:
        return bool(group.zero_sum_rows(design.blocks).all())
    kills = all(design.k % n == 0 for n in group.cyclic_orders)  # kg = 0 for every g
    return kills and bool(group.zero_sum_rows(through).all())


def _rows_through_zero(design: Design) -> Optional[np.ndarray]:
    """D_0, the rows of the design through 0 as given, repeats counted,
    when the design is regular; None when it is not.  Refuses k < 1.  The
    regularity check of `verify_super_regular`, on the design's own
    carrier."""
    if design.k < 1:
        raise DesignError(f"need blocks of at least one point, got k={design.k}")
    arr, v, k, group = design.blocks, design.v, design.k, design.carrier
    if not arr.shape[0]:  # regular; and no keys, whose weights number k, are built
        return arr
    if v > arr.size:
        return None
    through = np.flatnonzero(arr.ravel() == 0) // k  # a row once per 0 it holds
    through = arr[through[np.diff(through, prepend=-1) != 0]]
    reps, counts = _unique_rows(_least_translates(through, group)[0], v)
    _, stab, points = _least_translates(reps, group)  # the same for every row of a class
    copies, off = np.divmod(counts * stab, points)
    if off.any() or int((copies * (v // stab)).sum()) != arr.shape[0]:
        return None
    keys = _sorted_row_keys(arr, v)
    words, at = np.empty(keys.T.shape, dtype=np.int64), 0  # D'
    free = stab == 1  # orbits of v distinct translates, made `_orbit_batch` reps a call
    orbits, per = np.repeat(reps[free], copies[free], axis=0), _orbit_batch(v)
    buffer = np.empty((min(per, len(orbits)) * v, k), dtype=arr.dtype)
    for lo in range(0, len(orbits), per):
        batch = orbits[lo : lo + per]
        rows = buffer[: len(batch) * v]
        _orbit_rows(group, batch, rows)
        _pack_rows(rows, v, words[:, at : at + len(rows)])
        at += len(rows)
    for rep, m in zip(reps[~free], copies[~free].tolist()):
        rows = _distinct_translates(group, rep)
        for _ in range(m):
            _pack_rows(rows, v, words[:, at : at + len(rows)])
            at += len(rows)
    return through if np.array_equal(_sort_keys(words), keys) else None


def _distinct_translates(group: AbelianGroup, rep: np.ndarray) -> np.ndarray:
    """The distinct translates of a sorted row through 0, each sorted: rep + t
    for t the least code of each coset of rep's stabiliser S, in order of t.
    When rep is a subgroup, rep = S, that is lexicographic order: the least
    point of t + S is t.

    S is the set of points b of rep with rep - b = rep.  The least code of
    g + S comes for every g at once: for each generator h of S, taken
    greedily, a window of multiples of h doubles until it holds <h>, so it
    costs log |<h>| gathers over the v codes, not |S| translates of v rows.
    """
    codes = np.arange(group.order, dtype=np.int64)

    def add(a, b):
        return group.sub_codes(a, group.sub_codes(0, b))

    moved = np.sort(group.sub_codes(rep[None, :], rep[:, None]), axis=1)  # rep - rep[j]
    least, span = codes, {0}  # span: the part of S generated so far
    for h in sorted(set(rep[(moved == rep).all(axis=1)].tolist())):
        if h in span:
            continue
        digits = group.decode(h)
        order = math.lcm(*(n // math.gcd(n, d) for n, d in zip(group.cyclic_orders, digits)))
        multiples = group.encode_array(np.outer(np.arange(order), digits) % group.cyclic_orders)
        span = set(add(np.array(sorted(span))[:, None], multiples).ravel().tolist())
        step, window = h, 1  # least[g] is the least code of g + <window multiples of h>
        while window < order:
            least = np.minimum(least, least[add(codes, step)])
            step, window = add(step, step), 2 * window
    t = np.flatnonzero(least == codes)
    return np.sort(add(rep[None, :], t[:, None]), axis=1)


def verify_developed(design: Design) -> tuple[DesignVerdict, SuperRegularVerdict]:
    """`verify_design` and `verify_super_regular` on the design's carrier,
    with no pair count when the design is regular.

    Let D be regular, with rows that strictly increase, and D_0 its rows
    through 0, repeats counted (`_rows_through_zero`).  Then:
    - translation by -u maps the blocks through u and w one to one onto
      those through 0 and w - u, multiplicities kept, so lambda(u, w) =
      lambda(0, w - u), the number of rows of D_0 that hold w - u: one
      bincount of D_0's points, as no row holds a point twice;
    - places are row-major, so the pairs (0, d) come first.  A pair (u, w)
      whose count differs from lambda(0, 1) makes (0, w - u) differ too, so
      the first miscovered place is (0, d), d the least code whose count
      differs from lambda(0, 1).  That is `verify_design`'s witness, and
      lambda(0, 1) its lambda.  A short window agrees: it falls back on the
      least pair covered only when lambda(0, 1) = 0, and that pair is then
      the least (0, d) covered;
    - translation maps D_0 one to one onto the blocks through any point, so
      every point lies on |D_0| blocks.  When every pair is covered lambda
      times, the k - 1 pairs (0, d) of each row of D_0 add up to
      |D_0| (k - 1) = lambda (v - 1), so replication holds;
    - D repeats a block B iff D_0 repeats a row: translate both copies by
      -b for a point b of B, a repeat in a regular design; and D_0 is part
      of D.
    So the verdict from D_0 is `verify_design`'s.  A design that is not
    regular, has a row that does not strictly increase, or has no block
    points gets `verify_design`'s own verdict.  Additivity is
    `verify_super_regular`'s, from D_0 (`_additive`).
    """
    arr, v, group = design.blocks, design.v, design.carrier
    if not arr.size:  # no blocks, or blocks of no points: as the two verifiers say
        return verify_design(design), verify_super_regular(design, group)
    through = _rows_through_zero(design)
    regular = SuperRegularVerdict(through is not None, _additive(design, through))
    if through is None or not _rows_increase(arr):
        return verify_design(design), regular
    counts = np.bincount(through.ravel(), minlength=v)  # lambda(0, d) at d != 0
    lam = int(counts[1]) if v > 1 else 0
    other = np.flatnonzero(counts[1:] != lam)
    uniform = not other.size
    witness = None if uniform else (group.decode(0), group.decode(int(other[0]) + 1))
    ok = uniform and lam >= 1  # and then replication holds
    simple = _no_repeated_blocks(through, v)
    return DesignVerdict(ok, lam if uniform else None, simple, ok, witness), regular


def _least_translates(
    rows: np.ndarray, group: AbelianGroup
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each row B of k points: the least of the sorted B - b, b a
    distinct point of B, by packed key; how many b reach it; and how many
    distinct points B has.  Rows go in `_slice_rows` slices."""
    v, (n, k) = group.order, rows.shape
    weights, per_word = _key_weights(k, v)
    reps, reach, distinct = np.empty_like(rows), np.empty(n, np.int64), np.empty(n, np.int64)
    step = _slice_rows(k)
    for lo in range(0, n, step):
        part = np.sort(rows[lo : lo + step], axis=1)
        first = np.ones(part.shape, dtype=bool)  # the first place of each distinct point
        first[:, 1:] = part[:, 1:] != part[:, :-1]
        moved = np.sort(group.sub_codes(part[:, None, :], part[:, :, None]), axis=2)  # B - B[j]
        least = first.copy()  # the b whose B - b ties the least so far, word by word
        for s in range(0, k, per_word):
            word = moved[..., s : s + per_word] @ weights[s : s + per_word]
            word[~least] = np.iinfo(np.int64).max
            least &= word == word.min(axis=1, keepdims=True)
        hi = lo + part.shape[0]
        reps[lo:hi] = moved[np.arange(part.shape[0]), least.argmax(axis=1)]
        reach[lo:hi], distinct[lo:hi] = least.sum(axis=1), first.sum(axis=1)
    return reps, reach, distinct


def ag_design(n: int, p: int) -> Design:
    """The points and lines of the affine space of dimension n over Z_p.

    Lines are grouped by direction (directions in lexicographic order, each
    scaled so that its first nonzero coordinate is 1) and, within a
    direction, ordered by their least point.
    """
    if n < 2:
        raise DesignError(f"need dimension n >= 2, got {n}")
    # AG(n,p) has more than p^n >= 2^n lines: a large n is refused before p^n is
    # formed, and a large p before it is tested for primality
    fits = p > 1 and n <= MAX_DESIGN_BLOCKS.bit_length()
    n_lines = p**n * (p**n - 1) // (p * (p - 1)) if fits else None
    if p > 1 and (n_lines is None or n_lines > MAX_DESIGN_BLOCKS):
        raise DesignError(f"AG({n},{p}) has more than {MAX_DESIGN_BLOCKS} lines")
    if not is_prime(p):
        raise DesignError(f"need a prime p, got {p}")
    _check_points(n_lines, p)
    carrier = AbelianGroup((p,) * n)
    v = carrier.order
    points = carrier.decode_array(np.arange(v))  # (v, n), row i is point i
    nonzero = points != 0
    lead = points[np.arange(v), nonzero.argmax(axis=1)]
    directions = points[nonzero.any(axis=1) & (lead == 1)]
    steps = np.arange(p, dtype=np.int64)[None, :, None]
    blocks = []
    for d in directions:
        # each line of direction d once: from its point on x_i = 0, i the lead of d
        starts = points[points[:, np.flatnonzero(d)[0]] == 0]
        lines = carrier.encode_array((starts[:, None, :] + steps * d) % p)  # (v/p, p)
        lines.sort(axis=1)
        blocks.append(lines[np.argsort(lines[:, 0])])
    return Design(carrier, np.concatenate(blocks, axis=0), p)


def _pair_block_table(design: Design) -> np.ndarray:
    """The block through each pair of points, for Steiner designs only.

    One v*v int32 array: entry u*v+w, for u < w, holds the index of the
    block through u and w, and -1 where there is none; entries with u >= w
    are -1.  Filled one `_slice_rows` slice of blocks at a time.  A table of more
    than MAX_PAIR_TABLE_BYTES is refused before it is made.
    """
    v, k = design.v, design.k
    _check_table("pair table", v, v * v * np.dtype(np.int32).itemsize)
    table = np.full(v * v, -1, dtype=np.int32)
    i_idx, j_idx = np.triu_indices(k, 1)
    step = _slice_rows(k)
    for lo in range(0, design.b, step):
        part = design.blocks[lo : lo + step].astype(np.int64)  # u * v passes int16 at v > 181
        ids = np.arange(lo, lo + part.shape[0], dtype=np.int32)
        table[(part[:, i_idx] * v + part[:, j_idx]).ravel()] = np.repeat(ids, i_idx.size)
    return table


# points u, w (int arrays of shapes that broadcast) -> a block through both, or -1
BlockLookup = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _block_lookup(design: Design) -> BlockLookup:
    """The difference oracle on a design that `develop` built from a
    lambda = 1 family, the pair table on any other."""
    oracle = _difference_oracle(design)
    return _table_lookup(design) if oracle is None else oracle


def _table_lookup(design: Design) -> BlockLookup:
    """Lookups in the design's `_pair_block_table`, for points of any int type."""
    table, v = _pair_block_table(design), design.v
    return lambda u, w: table[np.minimum(u, w).astype(np.int64) * v + np.maximum(u, w)]


def _difference_oracle(design: Design) -> Optional[BlockLookup]:
    """The block through u and w from w - u, on a design in `develop`'s
    layout; None on a design without base rows, or whose base differences
    are not distinct (lambda > 1).

    Row h|G| + x of that layout is B_h + x.  When the s k(k-1) differences
    b_j - b_i of the base blocks are distinct, w - u = b_j - b_i names h and
    b_i, and the block is row h|G| + (u - b_i).  The rows past the translates
    are the cosets of each forbidden subgroup, |G|/k rows a subgroup, and a
    nonzero w - u in the subgroup of a section names the coset row of u.
    The tables hold one entry per code of G: h and b_i by difference, and
    the coset row by point, per subgroup.  No answer is trusted: one whose
    row does not hold both u and w becomes -1.  The points asked must be
    codes 0..v-1.
    """
    base, carrier, blocks = design._base, design.carrier, design.blocks
    if base is None:
        return None
    n, (s, k) = carrier.order, base.shape
    sections, rem = divmod((design.b - s * n) * k, n)
    if rem or sections < 0:
        return None
    i_idx, j_idx = np.nonzero(~np.eye(k, dtype=bool))
    diffs = carrier.sub_codes(base[:, j_idx], base[:, i_idx]).ravel()
    counts = np.bincount(diffs, minlength=n)
    if counts[0] or counts.max() > 1:
        return None
    which = np.full(n, -1, dtype=np.int64)  # difference -> h, or -2 - section
    which[diffs] = np.repeat(np.arange(s), k * (k - 1))
    first = np.zeros(n, dtype=np.int64)  # difference -> b_i
    first[diffs] = base[:, i_idx].ravel()
    coset_row = np.full((max(sections, 1), n), -1, dtype=np.int64)  # section, point -> row
    for j in range(sections):
        lo = s * n + j * (n // k)
        section = blocks[lo : lo + n // k]
        members = carrier.sub_codes(section[0], section[0, 0])
        which[members[members != 0]] = -2 - j
        coset_row[j, section.ravel()] = np.repeat(np.arange(lo, lo + len(section)), k)

    def lookup(u, w):
        u, w = np.minimum(u, w), np.maximum(u, w)  # one answer for either order
        d = carrier.sub_codes(w, u)
        h = which[d]
        ids = np.where(h >= 0, h * n + carrier.sub_codes(u, first[d]), -1)
        ids = np.where(h < -1, coset_row[np.maximum(-2 - h, 0), u], ids)
        rows = blocks[ids]
        held = (rows == u[..., None]).any(-1) & (rows == w[..., None]).any(-1)
        return np.where(held, ids, -1)

    return lookup


# the most (member, earlier member) pairs one `closure` lookup call takes
_CLOSURE_LOOKUPS = 2**16


def closure(
    design: Design,
    block1: Sequence[int],
    block2: Sequence[int],
    max_points: Optional[int] = None,
    _lookup: Optional[BlockLookup] = None,
    _rows: Optional[dict[int, list[int]]] = None,
) -> set[int]:
    """Least point set containing both blocks and closed under "add the
    unique block through any two member points"; points are encoded indices.

    The members are taken in the order they join.  Each member looks up the
    block through itself and every earlier member; blocks met before are
    skipped, and only new ones are read for new points.  A closure of n
    points thus costs C(n,2) lookups and reads about n(n-1)/(k(k-1))
    blocks, each once.  The lookups of all members known at one time form
    one batch, walked in that order; they are made in consecutive slices of
    at most _CLOSURE_LOOKUPS pairs, one lookup call a slice, so an uncapped
    closure of a large design never asks for all its pairs at once.

    With max_points set, iteration stops as soon as the set grows past it
    (the partial set is returned; its size already exceeds the bound).

    `_lookup` (the design's `_block_lookup`: a difference oracle on a
    design from `develop`, else a v*v pair table) and `_rows` (block index
    -> that block's points as a list of ints, filled as blocks are read)
    are private caches shared across the closures of one scan.  A point of
    the two blocks outside 0..v-1 is refused: every other point is read
    from the design, whose codes were checked when it was made.
    """
    b1, b2 = set(map(int, block1)), set(map(int, block2))
    if b1 == b2:
        raise DesignError("closure needs two distinct blocks")
    if len(b1 & b2) != 1:
        raise DesignError(f"blocks must meet in exactly one point, share {len(b1 & b2)}")
    pts = sorted(b1 | b2)  # grows as members join; each is visited once
    if pts[0] < 0 or pts[-1] >= design.v:
        raise DesignError("design points are not the elements of the given group")
    lookup = _block_lookup(design) if _lookup is None else _lookup
    rows = {} if _rows is None else _rows
    blocks = design.blocks
    members = set(pts)
    seen = set()  # blocks already read
    done = 0  # members whose lookups are made
    while done < len(pts):
        # member c = done, done+1, ... with each earlier member m, by c then m:
        # pair t of the batch is (c, m) with t = starts[c - done] + m
        late = np.arange(done, len(pts))
        starts = np.cumsum(late) - late
        total = int(late.sum())
        known = np.array(pts)
        done = len(pts)
        for lo in range(0, total, _CLOSURE_LOOKUPS):
            t = np.arange(lo, min(lo + _CLOSURE_LOOKUPS, total))
            at = np.searchsorted(starts, t, side="right") - 1
            c, m = late[at], t - starts[at]
            # Python ints in the walk: numpy scalars would cost more than the set work
            for j, bi in enumerate(lookup(known[m], known[c]).tolist()):
                if bi in seen:
                    continue
                if bi < 0:
                    pair = (pts[m[j]], pts[c[j]])
                    raise DesignError(f"no block through pair {pair}; design is not Steiner")
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


# the most block lookups one chunk of plane certificates makes
_CERT_ENTRIES = 2**16
# the most pairs of blocks one slice of `_meeting_pairs` compares
_SLICE_PAIRS = 2**12
# the most pairs one anomaly scan decides
SCAN_CAP = 10**4


def anomaly_witness(design: Design, p: int) -> AnomalyVerdict:
    """Look for a pair of blocks through a common point whose closure is not
    a p^2-point plane; such a pair separates the design from the point-line
    design of the affine space.

    The first SCAN_CAP pairs of `_meeting_pairs` are decided in order,
    in chunks of 1, 2, 4, ... pairs: `_plane_certificates` accepts the
    planes of a chunk, and `closure` decides every other pair.  The
    certificates of one scan share one dict of verdicts, a point set S to
    whether S certifies, so each distinct S is certified once: at most
    SCAN_CAP entries, freed when the scan returns.
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
    if design.b * p * (p - 1) != v * (v - 1):  # before the block lookup
        raise DesignError(f"{design.b} blocks of {p} points cannot be a 2-({v},{p},1) design")
    lookup = _block_lookup(design)
    rows: dict[int, list[int]] = {}
    verdicts: dict[bytes, bool] = {}
    blocks, target = design.blocks, p * p
    lookups = target * (target - 1) // 2  # per certificate
    certify = lookups <= _CERT_ENTRIES  # else `closure` decides every pair
    scanned = 0
    for chunk in _pair_chunks(_meeting_pairs(blocks, v), max(1, _CERT_ENTRIES // lookups)):
        chunk = chunk[: SCAN_CAP - scanned]
        if certify:
            planes = _plane_certificates(design, lookup, chunk, verdicts)
        else:
            planes = np.zeros(len(chunk), bool)
        for j in np.flatnonzero(~planes).tolist():
            a, b = chunk[j].tolist()
            one, two = blocks[a].tolist(), blocks[b].tolist()
            cl = closure(design, one, two, max_points=target, _lookup=lookup, _rows=rows)
            if len(cl) != target:
                return AnomalyVerdict(True, (a, b), len(cl), False, scanned + j + 1)
        scanned += len(chunk)
        if scanned >= SCAN_CAP:
            break
    return AnomalyVerdict(False, None, None, True, scanned)


def _meeting_pairs(blocks: np.ndarray, v: int):
    """Pairs of blocks with the same point x in column 0 that meet only in
    x, as point sets, by increasing x and then by block index (witnesses
    tend to be local), as (n, 2) arrays of block indices.

    The column-0 points are read in windows of x that double: [0, 1),
    [1, 3), [3, 7), ..., at most ceil(log2 v) + 1 of them.  A window is one
    `np.flatnonzero` pass for its block indices, in index order, and a
    stable sort of those alone by x, so a scan that stops early sorts only
    the windows it reached.  The points are cast to the smallest type that
    holds them: numpy sorts 8- and 16-bit keys stably by radix.

    A group is the blocks of one x, in index order.  Each array is a slice
    of it: rows a0 .. a0+m-1 compared with every later row of the group in
    one broadcast.  m is 1 at the start of each group and doubles while a
    slice of m rows makes at most `_SLICE_PAIRS` comparisons, so a scan that
    stops at its first pair compares only the first row of its group.
    """
    least = blocks[:, 0].astype(np.min_scalar_type(v - 1))
    start = 0
    while start < v:
        stop = 2 * start + 1
        window = np.flatnonzero((least >= start) & (least < stop))
        window = window[np.argsort(least[window], kind="stable")]
        cuts = (np.flatnonzero(np.diff(least[window])) + 1).tolist()
        start = stop
        for lo, hi in zip([0] + cuts, cuts + [window.size]):
            ids = window[lo:hi]
            group = blocks[ids]
            # the points of each row past column 0 that a later row may share:
            # those other than the row's own column-0 point
            tail = group[:, 1:]
            other = tail != group[:, :1]
            a0, m = 0, 1
            while a0 < ids.size - 1:
                later = group[a0 + 1 :]
                shared = tail[a0 : a0 + m, None, :, None] == later[None, :, None, :]
                shared &= other[a0 : a0 + m, None, :, None]
                # row a0 + i pairs with later row a0 + 1 + j for j >= i only
                past = np.arange(later.shape[0]) >= np.arange(shared.shape[0])[:, None]
                i, j = np.nonzero(past & ~shared.any(axis=(2, 3)))
                yield np.column_stack([ids[a0 + i], ids[a0 + 1 + j]])
                a0 += m
                if 2 * m * (ids.size - a0 - 1) <= _SLICE_PAIRS:
                    m *= 2


def _pair_chunks(slices, most: int):
    """The pairs of `slices`, in order, as (n, 2) arrays of n = 1, 2, 4, ...
    up to `most` pairs: a scan that stops early decides few extra pairs.
    A slice is drawn only when the pairs held cannot fill the next chunk."""
    width = 1
    held = np.empty((0, 2), dtype=np.intp)
    for pairs in slices:
        held = np.concatenate([held, pairs])
        lo = 0
        while held.shape[0] - lo >= width:
            yield held[lo : lo + width]
            lo += width
            width = min(2 * width, most)
        held = held[lo:]
    if held.size:
        yield held


def _plane_certificates(
    design: Design, lookup: BlockLookup, pairs: np.ndarray, verdicts: dict[bytes, bool]
) -> np.ndarray:
    """For each pair of blocks L1, L2 of p = k points meeting only in x,
    their column-0 point: True only if `closure(..., max_points=p*p)` with
    the same `lookup` (the design's `_block_lookup`) returns p^2 points.

    Let S be L1, L2 and the blocks through a and b, for a in L1 and b in
    L2 other than x (columns 1 to p-1; a pair with a = b is refused).  A
    pair is accepted iff none of those blocks is missing (-1 from `lookup`),
    |S| = p^2, and the C(p^2, 2) pairs of S all have blocks, with exactly
    p(p+1) distinct indices among them.

    Then the closure is S.  An index covers only pairs within its block's
    point set, at most C(p,2) of those of S; since C(p^2,2) = p(p+1)C(p,2),
    each of the p(p+1) covers exactly C(p,2), so its block's p points all
    lie in S.  Every lookup of the closure walk is a pair of members, so by
    induction from L1 and L2 the members stay in S, and the walk neither
    meets a -1 nor passes p^2 points.  Complete, it holds L1, L2 and the
    block through each pair of distinct members, so all of S.  This holds
    for any lookup whose answers hold both points, not only a Steiner
    design's, as long as it answers a pair the same way in either order.

    The work comes in two stages.  Stage 1, for every pair, makes the
    (p-1)^2 lookups of a and b and finds S; it refuses a = b and |S| != p^2.
    Stage 2 makes the C(p^2, 2) lookups of S and checks them.  A -1 of
    stage 1 is the lookup of a pair of points of S, so stage 2 meets it
    too.  Stage 2 reads only S and `lookup`, and a scan passes one lookup
    to all its chunks, so its verdict is a function of S within the scan:
    `verdicts` maps the bytes of each S seen, its points sorted, to that
    verdict, and stage 2 runs once for each distinct S not in it yet.

    In a Steiner design a closure of p^2 points is a 2-(p^2,p,1) design,
    an affine plane of order p, and for p >= 3 it is always accepted: a
    point c of it off L1 and L2 has p+1 lines, and only three of them miss
    L1 or L2 outside x (the parallels to L1 and to L2, and the line cx).
    So one of the blocks through a and b holds c, and only witnesses and
    closures that fail are refused.  For p = 2, |S| <= 3: all are refused.
    """
    blocks, v, p = design.blocks, design.v, design.k
    n, plane = len(pairs), p * p
    one, two = blocks[pairs[:, 0]], blocks[pairs[:, 1]]
    a, b = one[:, 1:, None], two[:, None, 1:]
    through = lookup(a, b).reshape(n, -1)
    ok = (a != b).all(axis=(1, 2))
    pts = np.concatenate([one, two[:, 1:], blocks[through].reshape(n, -1)], axis=1)
    pts.sort(axis=1)
    new = np.ones(pts.shape, dtype=bool)
    new[:, 1:] = pts[:, 1:] != pts[:, :-1]
    live = np.flatnonzero(ok & (new.sum(axis=1) == plane))
    # the points of S in the least type that holds a place u * v + w of a pair table
    s = pts[live][new[live]].reshape(live.size, plane).astype(np.min_scalar_type(-v * v))
    raw, width = s.tobytes(), plane * s.itemsize
    keys = [raw[i : i + width] for i in range(0, len(raw), width)]
    fresh = {key: i for i, key in enumerate(keys) if key not in verdicts}  # S -> a row of it
    if fresh:
        u, w = np.triu_indices(plane, 1)
        todo = s[list(fresh.values())]
        ids = lookup(todo[:, u], todo[:, w])
        ids.sort(axis=1)
        distinct = (ids[:, 1:] != ids[:, :-1]).sum(axis=1) + 1
        verdicts.update(zip(fresh, ((ids[:, 0] >= 0) & (distinct == p * (p + 1))).tolist()))
    ok[:] = False
    ok[live] = [verdicts[key] for key in keys]
    return ok


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
    embedded = np.sort(anomalous_design.blocks, axis=1).astype(np.int64) * scale
    return Design(big.carrier, np.concatenate([keep, embedded], axis=0), p)
