"""Finite abelian groups presented as direct products of cyclic groups.

An element is an int code: its residues, one per cyclic factor, read as
one mixed-radix number, most significant first, so codes run in the order
of the elements.  Blocks, subgroups and difference matrices hold int64 code
arrays, and all arithmetic is on codes (`sub_codes`, `sum_codes`).  Tuples
of residues appear only at the edges: `encode_elements` and `check` take
them in, `decode`, `decode_array` and `elements` give them out.  Two groups
compare equal when their `_key`s do: the factor list, plus the field
modulus for a product carrier G x F_q.  Isomorphic groups with different
presentations are distinct values on purpose.  `_orbit_rows` lays out the
translates of rows of codes by every element, each row sorted: `develop`
and the super-regular check of `difam.designs` build their orbits with it.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Sequence

import numpy as np

Element = tuple[int, ...]

_CHUNK = 1 << 12  # rows per slice in the array builders: bounds their temporaries
# the most block points (b*k) a design or a family's rows may have; v = 16,807 has 47,076,407
MAX_DESIGN_POINTS = 2**27
_TRIAL_LIMIT, _FACTOR_BITS = 2**16, 256  # the bounds of the search in `radical`


def _slice_rows(k: int) -> int:
    """Rows per slice of blocks of k points: _CHUNK, or fewer for blocks
    of more than 32 pairs, so that a slice holds at most _CHUNK * 32 pairs."""
    return max(1, _CHUNK * 32 // max(32, k * (k - 1) // 2))


class DifamError(ValueError):
    """Base of every error the package raises for a bad input or request."""


class GroupError(DifamError):
    pass


class AbelianGroup:
    """Direct product Z_{n_1} x ... x Z_{n_t} with componentwise addition."""

    def __init__(self, cyclic_orders: Sequence[int]):
        orders = tuple(int(n) for n in cyclic_orders)
        if not orders:
            raise GroupError("group needs at least one cyclic factor")
        if any(n < 1 for n in orders):
            raise GroupError(f"cyclic orders must be >= 1, got {orders}")
        self.cyclic_orders = orders
        self.order = math.prod(orders)
        self.rank = len(orders)
        # mixed-radix weights for encode/decode, most significant first
        w = []
        acc = 1
        for n in reversed(orders):
            w.append(acc)
            acc *= n
        self._weights = tuple(reversed(w))

    @property
    def _key(self) -> tuple:
        """What equality compares: the cyclic orders and the field modulus, or None."""
        return self.cyclic_orders, None

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianGroup) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"AbelianGroup{self.cyclic_orders}"

    # -- elements at the edges ---------------------------------------------

    def contains(self, g: Element) -> bool:
        return (
            isinstance(g, tuple)
            and len(g) == self.rank
            and all(0 <= c < n for c, n in zip(g, self.cyclic_orders))
        )

    def check(self, g: Element) -> Element:
        if not self.contains(g):
            raise GroupError(f"{g!r} is not an element of {self}")
        return g

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic order."""
        return itertools.product(*(range(n) for n in self.cyclic_orders))

    def encode(self, g: Element) -> int:
        return sum(c * w for c, w in zip(g, self._weights))

    def decode(self, i: int) -> Element:
        coords = []
        for n in reversed(self.cyclic_orders):
            coords.append(i % n)
            i //= n
        return tuple(reversed(coords))

    # -- int-code arrays ---------------------------------------------------

    def encode_array(self, coords) -> np.ndarray:
        """Residues (..., rank) -> int64 codes (...)."""
        return np.asarray(coords, dtype=np.int64) @ np.array(self._weights, dtype=np.int64)

    def encode_elements(self, elems: Sequence[Element]) -> np.ndarray:
        """The codes of a list of elements; GroupError names one that is not."""
        try:
            coords = np.array(elems, dtype=np.int64).reshape(len(elems), self.rank)
            if not np.any((coords < 0) | (coords >= self.cyclic_orders)):
                return self.encode_array(coords)
        except (ValueError, TypeError, OverflowError):
            pass
        bad = next((g for g in elems if not self.contains(g)), elems)
        raise GroupError(f"{bad!r} is not an element of {self}")

    def decode_array(self, codes) -> np.ndarray:
        """Codes (...) -> int64 residues (..., rank)."""
        codes = np.asarray(codes, dtype=np.int64)
        return np.stack([codes // w % n for w, n in zip(self._weights, self.cyclic_orders)], -1)

    def sub_codes(self, a, b) -> np.ndarray:
        """The codes of a - b, digit by digit, for int64 code arrays (or ints)."""
        # a // w and the digit of a at weight w agree mod n
        return sum((a // w - b // w) % n * w for w, n in zip(self._weights, self.cyclic_orders))

    def sum_codes(self, codes) -> np.ndarray:
        """The code of the sum of each row (last axis) of a code array,
        repeats counted; the empty sum is 0."""
        return self.encode_array(self.decode_array(codes).sum(-2) % self.cyclic_orders)

    def _per_code(self, columns) -> np.ndarray:
        """The int64 table t over codes with t[x] = sum_i columns[i][x_i],
        x_i the digits of x: an outer sum, most significant factor first.
        Columns of shape (m, n_i) give m tables, as an (m, codes) array;
        no columns give the table [0]."""
        table = np.zeros(1, dtype=np.int64)
        for col in columns:
            table = table[..., :, None] + col[..., None, :]
            table = table.reshape(*table.shape[:-2], -1)
        return table

    def zero_sum_rows(self, rows: np.ndarray) -> np.ndarray:
        """For a (b, k) array of codes, whether each row sums to zero.

        When the group has no more elements than `rows` has entries, the
        digits are read from a per-code table, no larger than `rows`: each
        digit sits in its own bit field of an int64 word, wide enough for
        k(n_i - 1), so the gathered columns add every digit without a carry
        between factors; fields past 62 bits go to further words.  Otherwise,
        or if one field alone needs more than 62 bits, the digits are divided
        out.  Rows go in slices of _CHUNK; each table is built once.
        """
        b, k = rows.shape
        widths = [(k * (n - 1)).bit_length() for n in self.cyclic_orders]
        ok = np.ones(b, dtype=bool)
        if self.order > rows.size or max(widths) > 62:
            digits = list(zip(self._weights, self.cyclic_orders))
            for lo in range(0, b, _CHUNK):
                part = rows[lo : lo + _CHUNK]
                ok[lo : lo + _CHUNK] = ~np.any([(part // w % n).sum(1) % n for w, n in digits], 0)
            return ok
        words = []  # per word, the shift of each factor's field in it
        for i, width in enumerate(widths):
            if width == 0:
                continue  # a factor of order 1: its digit is always zero
            if not words or used + width > 62:
                words.append({})
                used = 0
            words[-1][i] = used
            used += width
        for shifts in words:
            table = self._per_code(
                np.arange(n, dtype=np.int64) << shifts[i] if i in shifts else np.zeros(n, np.int64)
                for i, n in enumerate(self.cyclic_orders)
            )
            for lo in range(0, b, _CHUNK):
                part = rows[lo : lo + _CHUNK]
                sums = table[part[:, 0]]
                for j in range(1, k):
                    sums += table[part[:, j]]
                for i, s in shifts.items():
                    field = (sums >> s & (1 << widths[i]) - 1) % self.cyclic_orders[i]
                    ok[lo : lo + _CHUNK] &= field == 0
        return ok


def _orbit_batch(v: int) -> int:
    """Reps in one batch of `_orbit_rows`: as many orbits of v rows as
    4 * _CHUNK rows hold, and at least one."""
    return max(1, 4 * _CHUNK // v)


def _orbit_rows(group: AbelianGroup, reps: np.ndarray, out: np.ndarray) -> None:
    """Fill `out`, of len(reps) * v rows, with the orbits of the rows of
    `reps`: row i*v + g is reps[i] + g, sorted, with g in code order.

    x + g over all g is the outer sum of one column per factor, x's digit
    rolled through it (`AbelianGroup._per_code`), in out's code type: each
    sum is below v.  A batch is `_orbit_batch` whole reps, or for a v over
    4 * _CHUNK the g of one rep that share their digits before factor f and
    run over a range of f's digits.  `_sorting_network` sorts each batch.
    """
    v, k, most = group.order, reps.shape[1], 4 * _CHUNK
    weights, orders = group._weights, group.cyclic_orders
    f = next(i for i, w in enumerate(weights) if w <= most)
    span = min(orders[f], most // weights[f])  # digits of factor f in a batch
    per = _orbit_batch(v)
    for lo in range(0, reps.shape[0], per):
        points = reps[lo : lo + per].ravel()
        cols = [(points[:, None] // w + np.arange(n)) % n * w for w, n in zip(weights, orders)]
        parts = group._per_code(cols[:f]), cols[f], group._per_code(cols[f + 1 :])
        head, mid, tail = (part.astype(out.dtype) for part in parts)
        for prefix in range(v // (orders[f] * weights[f])):
            for d in range(0, orders[f], span):
                sums = head[..., prefix, None, None] + mid[:, d : d + span, None]
                sums = sums + tail[..., None, :]  # (points, digits of f, later codes)
                places = list(sums.reshape(-1, k, sums[0].size).transpose(1, 0, 2))
                for i, j in _sorting_network(k):
                    a, b = places[i], places[j]
                    places[i], places[j] = np.minimum(a, b), np.maximum(a, b)
                start = lo * v + (prefix * orders[f] + d) * weights[f]
                rows = out[start : start + sums.size // k]
                np.stack(places, axis=2, out=rows.reshape(-1, sums[0].size, k, copy=False))


@functools.cache
def _sorting_network(k: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort on k places, as pairs i < j that each
    put the lesser value at i: the network on the next power of two, less
    the pairs that touch a pad place (it holds +inf: they move nothing)."""
    n, pairs = 1 << (k - 1).bit_length(), []
    for p in (1 << a for a in range(n.bit_length() - 1)):  # merge runs of p into 2p
        for q in (p >> a for a in range(p.bit_length())):
            for j in range(q % p, n - q, 2 * q):
                for i in range(j, min(j + q, k - q)):
                    if i // (2 * p) == (i + q) // (2 * p):
                        pairs.append((i, i + q))
    return tuple(pairs)


def _distinct_codes(group: AbelianGroup, codes) -> np.ndarray:
    """The sorted distinct codes of a 1-d array of the group's codes."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 1 or np.any((codes < 0) | (codes >= group.order)):
        raise GroupError(f"subgroup elements must be a 1-d array of codes of {group}")
    codes = np.sort(codes)  # np.unique hashes many distinct ints, far slower
    return codes[np.diff(codes, prepend=-1) != 0]


def _span(group: AbelianGroup, codes: np.ndarray, limit: int):
    """The sorted codes of the subgroup that `codes` generate, or None once
    it has more than `limit` elements.  Built coset by coset: a code g not
    yet in the span S adds the cosets S + j*g for 0 < j < t, t the least
    j > 0 with j*g in S, so each round costs about the size of the new span."""
    span, orders, left = np.zeros(1, dtype=np.int64), np.array(group.cyclic_orders), codes
    while (left := left[~np.isin(left, span)]).size:
        digits = group.decode_array(left[0])
        order = np.lcm.reduce(orders // np.gcd(digits, orders))  # order * g = 0, in S
        j = np.arange(min(order, limit // span.size) + 1)[:, None]
        multiples = group.encode_array(j * digits % orders)  # j * g
        back = np.flatnonzero(np.isin(multiples[1:], span))
        if not back.size:
            return None
        neg = group.sub_codes(0, multiples[: back[0] + 1, None])
        span = np.sort(group.sub_codes(span[None], neg).ravel())
    return span


class Subgroup:
    """A verified subgroup: the sorted, distinct int64 codes of its elements."""

    def __init__(self, parent: AbelianGroup, codes):
        self.parent = parent
        self.codes = _distinct_codes(parent, codes)
        self.order = self.codes.size
        span = _span(parent, self.codes, self.order)
        if span is None or span.size != self.order:
            what = "miss the identity" if self.codes[:1].tolist() != [0] else "are not closed"
            raise GroupError(f"{self.order} elements of {parent} {what}: not a subgroup")
        self.codes.flags.writeable = False

    def __eq__(self, other) -> bool:
        same_parent = isinstance(other, Subgroup) and self.parent == other.parent
        return same_parent and np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash((self.parent, self.codes.tobytes()))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent})"


def generated_subgroup(group: AbelianGroup, codes) -> Subgroup:
    """Smallest subgroup containing the elements with these codes."""
    return Subgroup(group, _span(group, _distinct_codes(group, codes), group.order))


def involution_subgroup(group: AbelianGroup) -> Subgroup:
    """I(G) = {g : 2g = 0}, the involutions together with zero."""
    codes = np.arange(group.order)
    return Subgroup(group, codes[group.sub_codes(0, codes) == codes])


def is_binary(group: AbelianGroup) -> bool:
    """True when the group has exactly one involution."""
    return involution_subgroup(group).order == 2


def is_zero_sum_group(group: AbelianGroup) -> bool:
    """True iff all elements of the group sum to the identity."""
    return int(group.sum_codes(np.arange(group.order))) == 0


def is_prime(n: int) -> bool:
    """Primality by trial division, for the n <= MAX_FIELD_ORDER callers pass."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def radical(n: int) -> tuple[int, int]:
    """(r, m): r the product of the distinct primes found in n, m the part
    of n left unfactored (1, or composite and prime to r), so r = rad(n)
    when m = 1.  Bounded in time: the primes below _TRIAL_LIMIT are divided
    out, then factorint, bounded by the same limit, factors what is left of
    at most _FACTOR_BITS bits."""
    from sympy import factorint, isprime, primerange  # slow to import: only here

    if n <= 0:
        raise DifamError(f"radical needs n >= 1, got {n}")
    r = 1
    for p in primerange(_TRIAL_LIMIT):
        if p * p > n:  # n is 1 or a prime
            return r * n, 1
        if n % p == 0:
            r *= p
            while n % p == 0:
                n //= p
    if n == 1 or n.bit_length() > _FACTOR_BITS:
        return r, n
    found = factorint(n, limit=_TRIAL_LIMIT)
    left = math.prod(p for p in found if not isprime(p))
    return r * math.prod(found) // left, left
