"""Blocks as sorted runs of element codes, and the difference-list calculus.

Every family notion in this package (strong difference families, relative
difference families, difference matrices) reduces to statements about the
multiset of differences b_i - b_j of its blocks, so this module is the
shared foundation: GMultiset for blocks, `delta_family` for the difference
list as a count array indexed by element code, and `coverage` for the
verdict "every carrier element outside the excluded set is hit exactly
lambda times, every excluded one never".

A block is one sorted run of int64 element codes (`AbelianGroup.encode`),
repeats kept; code order is element order.  On a product carrier G x F_q
the code of (g, x) is group_code * q + field_code, so the builders work on
code rows and never form a tuple.  Tuples appear only where a block is made
from elements or `expand`ed back into them: at the API and io edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .groups import AbelianGroup, Element, GroupError, Subgroup, _slice_rows


class GMultiset:
    """Immutable multiset of elements of an abelian group carrier: the bytes
    of its sorted int64 code run, which `codes` reads as an array."""

    __slots__ = ("carrier", "_row")

    def __init__(self, carrier: AbelianGroup, elements: Sequence[Element]):
        self.carrier = carrier
        self._row = np.sort(carrier.encode_elements(list(elements))).tobytes()

    @property
    def codes(self) -> np.ndarray:
        return np.frombuffer(self._row, dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self._row) >> 3

    def expand(self) -> list[Element]:
        """Sorted list with multiplicities written out."""
        return list(map(tuple, self.carrier.decode_array(self.codes).tolist()))

    def is_set(self) -> bool:
        return not np.any(np.diff(self.codes) == 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GMultiset)
            and self.carrier == other.carrier
            and self._row == other._row
        )

    def __hash__(self) -> int:
        return hash((self.carrier, self._row))

    def __repr__(self) -> str:
        return f"GMultiset({self.expand()})"


def blocks_of(carrier: AbelianGroup, rows: np.ndarray) -> list[GMultiset]:
    """One block per row of a (b, k) int64 array of the carrier's codes.
    The codes are not checked; the rows are sorted in place."""
    rows.sort(axis=1)
    width, raw = 8 * rows.shape[1], rows.tobytes()
    return [_block(carrier, raw[i * width : (i + 1) * width]) for i in range(len(rows))]


def _block(carrier: AbelianGroup, row: bytes) -> GMultiset:
    block = GMultiset.__new__(GMultiset)
    block.carrier, block._row = carrier, row
    return block


def stack_rows(blocks: Sequence[GMultiset], k: int) -> np.ndarray:
    """The read-only (b, k) int64 array of the codes of blocks of k points."""
    return np.frombuffer(b"".join([b._row for b in blocks]), np.int64).reshape(len(blocks), k)


def block_rows(blocks: Sequence[GMultiset]) -> list[np.ndarray]:
    """The blocks' codes as one (b_k, k) array per block size k, ascending."""
    sizes = sorted({b.size for b in blocks})
    return [stack_rows([b for b in blocks if b.size == k], k) for k in sizes]


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


def delta_family(rows: np.ndarray, carrier: AbelianGroup) -> np.ndarray:
    """The multiset union of the difference lists (b_i - b_j over ordered
    pairs of distinct positions) of the rows of a (b, k) array of the
    carrier's codes, as a count per element code."""
    if rows.shape[1] < 2 and len(rows):
        raise GroupError("difference list needs blocks of size >= 2")
    counts = np.zeros(carrier.order, dtype=np.int64)
    i_idx, j_idx = np.nonzero(~np.eye(rows.shape[1], dtype=bool))
    step = _slice_rows(rows.shape[1])
    for lo in range(0, len(rows), step):
        part = rows[lo : lo + step]
        # add.at costs per difference, a bincount per slice would cost v
        np.add.at(counts, carrier.sub_codes(part[:, i_idx], part[:, j_idx]), np.int64(1))
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
            inside[sub.codes] = True
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
