"""Multisets over group elements and the difference-list calculus.

Every family notion in this package (strong difference families, relative
difference families, difference matrices) reduces to statements about the
multiset of differences b_i - b_j of its blocks, so this module is the
shared foundation: GMultiset for blocks, `delta_family` for the difference
list as a count array indexed by element code, and `coverage` for the
verdict "every carrier element outside the excluded set is hit exactly
lambda times, every excluded one never".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .groups import AbelianGroup, Element, GroupError, Subgroup

_CHUNK = 1 << 12  # blocks per slice in the array builders: bounds their temporaries


class GMultiset:
    """Immutable multiset of elements of an abelian group carrier."""

    def __init__(self, carrier: AbelianGroup, entries: Iterable[Element] | Counter):
        self.carrier = carrier
        if isinstance(entries, Counter):
            counts = +entries
        else:
            counts = Counter(entries)
        for e in counts:
            carrier.check(e)
        self.entries: dict[Element, int] = dict(sorted(counts.items()))
        self.size = sum(self.entries.values())

    def items(self):
        return self.entries.items()

    def expand(self) -> list[Element]:
        """Sorted list with multiplicities written out."""
        out = []
        for e, m in self.entries.items():
            out.extend([e] * m)
        return out

    def multiplicity(self, e: Element) -> int:
        return self.entries.get(e, 0)

    def is_set(self) -> bool:
        return len(self.entries) == self.size  # every multiplicity is at least 1

    def union(self, other: "GMultiset") -> "GMultiset":
        if other.carrier != self.carrier:
            raise GroupError("multiset union across different carriers")
        c = Counter(self.entries)
        c.update(other.entries)
        return GMultiset(self.carrier, c)

    def translate(self, g: Element) -> "GMultiset":
        add = self.carrier.add
        return GMultiset(self.carrier, Counter({add(e, g): m for e, m in self.entries.items()}))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GMultiset)
            and self.carrier == other.carrier
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.carrier, tuple(self.entries.items())))

    def __repr__(self) -> str:
        return f"GMultiset({self.expand()})"


@dataclass
class CoverageVerdict:
    constant_lambda: Optional[int]  # None when coverage is not constant
    excluded_clean: bool  # every excluded element has multiplicity 0
    # (element, count) off target: excluded elements first, then the rest,
    # each ascending; Python ints throughout
    failures: list[tuple[Element, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.constant_lambda is not None and self.excluded_clean


class FamilyCodes(NamedTuple):
    """Blocks as rows of codes, padded with 0 (the code of zero) up to the
    longest block, and the (b, width) mask of the real entries."""

    carrier: AbelianGroup
    rows: np.ndarray
    mask: np.ndarray


def block_codes(carrier: AbelianGroup, blocks: Sequence) -> FamilyCodes:
    """The FamilyCodes of blocks that are GMultisets, each expanded once, or
    sequences of elements."""
    blocks = [b.expand() if isinstance(b, GMultiset) else b for b in blocks]
    sizes = np.array([len(b) for b in blocks], dtype=np.int64)
    mask = np.arange(sizes.max(initial=0)) < sizes[:, None]
    coords = np.array([e for b in blocks for e in b], dtype=np.int64).reshape(-1, carrier.rank)
    if len(coords) != sizes.sum() or np.any((coords < 0) | (coords >= carrier.cyclic_orders)):
        raise GroupError(f"blocks hold points that are not elements of {carrier}")
    rows = np.zeros(mask.shape, dtype=np.int64)
    rows[mask] = carrier.encode_array(coords)
    return FamilyCodes(carrier, rows, mask)


def delta_family(blocks: Sequence[GMultiset] | FamilyCodes) -> np.ndarray:
    """The multiset union of the blocks' difference lists (b_i - b_j over
    ordered pairs of distinct positions), as a count per element code."""
    if not isinstance(blocks, FamilyCodes):
        if not blocks:
            raise GroupError("empty family has no carrier; pass at least one block")
        carrier = blocks[0].carrier
        if any(b.carrier is not carrier and b.carrier != carrier for b in blocks):
            raise GroupError("blocks on mixed carriers")
        blocks = block_codes(carrier, blocks)
    carrier, rows, mask = blocks
    if (mask.sum(axis=1) < 2).any():
        raise GroupError("difference list needs blocks of size >= 2")
    counts = np.zeros(carrier.order, dtype=np.int64)
    i_idx, j_idx = np.nonzero(~np.eye(rows.shape[1], dtype=bool))
    for lo in range(0, len(rows), _CHUNK):
        part, real = rows[lo : lo + _CHUNK], mask[lo : lo + _CHUNK]
        diffs = carrier.sub_codes(part[:, i_idx], part[:, j_idx])
        # add.at costs per difference, a bincount per slice would cost v
        np.add.at(counts, diffs[real[:, i_idx] & real[:, j_idx]], np.int64(1))
    return counts


def coverage(
    counts: np.ndarray,
    carrier: AbelianGroup,
    excluded: Optional[Subgroup | Sequence[Subgroup]] = None,
) -> CoverageVerdict:
    """Check constant-lambda coverage outside `excluded`, zero inside.

    `counts` holds the multiplicity of every element code of the carrier.
    `excluded` may be a single subgroup or a partial-spread-like list of
    subgroups; their union is the excluded point set.  Lambda is the count
    of the least element outside it (0, vacuously, when nothing is outside).
    """
    if counts.shape != (carrier.order,):
        raise GroupError("difference counts are over a different carrier")
    inside = np.zeros(carrier.order, dtype=bool)
    if excluded is not None:
        members = [excluded] if isinstance(excluded, Subgroup) else list(excluded)
        for sub in members:
            if sub.parent != carrier:
                raise GroupError("excluded subgroup has the wrong parent")
            inside[carrier.encode_array(sub.elements)] = True
    dirty = np.flatnonzero(inside & (counts != 0))
    lam: Optional[int] = 0  # vacuously constant when everything is excluded
    off = dirty[:0]
    if not inside.all():
        lam = int(counts[np.argmin(inside)])  # the least element outside
        off = np.flatnonzero((counts != lam) & ~inside)
        if off.size:
            lam = None
    bad = np.concatenate([dirty, off])
    failures = [(carrier.decode(c), m) for c, m in zip(bad.tolist(), counts[bad].tolist())]
    return CoverageVerdict(lam, not dirty.size, failures)
