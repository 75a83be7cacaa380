"""Strong difference families, relative difference families, partial
spreads and difference matrices: types, verifiers, and the explicit
constructions (Paley multisets, the all-zero-sum-tuples difference matrix,
the product composition, and the core SDF behind the general existence
argument).

Verifiers return verdicts rather than booleans: lambda, whether the
forbidden elements stay clean, and every element covered off target with
its count, so a failing family can be diagnosed and a passing one
certified.  The verifiers stack the blocks' code rows (`diffs`) into one
array and count on it, decoding nothing.  The constructions build code rows;
on a product G x H the code of (g, h) is g_code * |H| + h_code, as it is
group_code * q + field_code on G x F_q.  A difference matrix holds its
columns as the rows of one code array, and subgroups and partial spreads
their sorted code arrays; tuples appear only in the verdicts' failure lists.

Additivity is never stored: a strong difference family derives `additive`
from its current blocks on every access through `blocks_are_additive`, the
helper the verifiers use for `is_additive`; the other types report it only
in their verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .diffs import CoverageVerdict, GMultiset, block_rows, blocks_of, coverage, delta_family
from .diffs import stack_rows
from .gf import MAX_FIELD_ORDER, FiniteField
from .groups import MAX_DESIGN_POINTS, AbelianGroup, DifamError, Element, Subgroup
from .params import Condition, ParamVerdict, largest_odd_prime_power_factor, main_status


class FamilyError(DifamError):
    pass


@dataclass
class PartialSpread:
    """Subgroups of a common parent with pairwise trivial intersections."""

    members: list[Subgroup]

    def __post_init__(self):
        if any(sub.parent != self.members[0].parent for sub in self.members):
            raise FamilyError("spread members must share a parent group")
        parts = [np.zeros(0, np.int64)] + [sub.codes[1:] for sub in self.members]  # 0 is first
        nonzero = np.sort(np.concatenate(parts))  # no nonzero code may be in two members
        if np.any(nonzero[1:] == nonzero[:-1]):
            raise FamilyError("spread members must intersect trivially")


Forbidden = Union[Subgroup, PartialSpread]


def _members(forbidden: Forbidden) -> list[Subgroup]:
    return [forbidden] if isinstance(forbidden, Subgroup) else forbidden.members


def blocks_are_additive(
    group: AbelianGroup, parts: Sequence[np.ndarray], forbidden: Sequence[Subgroup]
) -> bool:
    """Every block sums to zero and no forbidden subgroup is binary (has
    exactly one involution); absolute families pass no forbidden subgroups.
    `parts` holds the blocks as (b, k) code arrays (`diffs.block_rows`)."""
    return all(group.zero_sum_rows(rows).all() for rows in parts) and not any(
        _subgroup_is_binary(sub) for sub in forbidden
    )


def _subgroup_is_binary(sub: Subgroup) -> bool:  # zero plus exactly one g with -g = g
    return np.count_nonzero(sub.parent.sub_codes(0, sub.codes) == sub.codes) == 2


@dataclass
class StrongDifferenceFamily:
    group: AbelianGroup
    k: int
    lam: int
    blocks: list[GMultiset]

    @property
    def s(self) -> int:
        return len(self.blocks)

    @property
    def additive(self) -> bool:
        return blocks_are_additive(self.group, block_rows(self.blocks), ())


@dataclass
class RelativeDifferenceFamily:
    group: AbelianGroup
    forbidden: Forbidden
    k: int
    lam: int
    blocks: list[GMultiset]

    @property
    def s(self) -> int:
        return len(self.blocks)

    def forbidden_members(self) -> list[Subgroup]:
        return _members(self.forbidden)


@dataclass
class DifferenceMatrix:
    group: AbelianGroup
    k: int
    mu: int
    columns: np.ndarray  # (mu |H|, k) int64 codes, one row per column of the matrix

    def __eq__(self, other) -> bool:  # the generated one would compare the arrays by ==
        if not isinstance(other, DifferenceMatrix):
            return NotImplemented
        same = (self.group, self.k, self.mu) == (other.group, other.k, other.mu)
        return same and np.array_equal(self.columns, other.columns)


@dataclass
class SdfVerdict:
    is_sdf: bool
    is_additive: bool
    lam: Optional[int]
    coverage: CoverageVerdict


@dataclass
class RdfVerdict:
    is_rdf: bool
    is_additive: bool
    lam: Optional[int]
    coverage: CoverageVerdict


@dataclass
class DmVerdict:
    is_dm: bool
    is_additive: bool
    failures: list[tuple[int, int, Element, int]]  # (row i, row j, element, count)


def verify_sdf(
    blocks: Sequence[GMultiset], group: AbelianGroup, k: int, lam: int
) -> SdfVerdict:
    """Is this a (G,k,lam) strong difference family?  No blocks, or a block
    of the wrong size or carrier, fail it; a block under two points raises
    GroupError (`delta_family`)."""
    # `is` first: the blocks of one family mostly share one carrier object
    if not blocks or any(b.size != k or (b.carrier is not group and b.carrier != group)
                         for b in blocks):
        return SdfVerdict(False, False, None, CoverageVerdict(0, True))
    rows = stack_rows(blocks, k)  # one code array for both checks
    cov = coverage(delta_family(rows, group), group)
    is_sdf = cov.ok and cov.constant_lambda == lam
    return SdfVerdict(is_sdf, blocks_are_additive(group, [rows], ()), cov.constant_lambda, cov)


def verify_rdf(
    blocks: Sequence[GMultiset],
    group: AbelianGroup,
    forbidden: Forbidden,
    k: int,
    lam: int,
) -> RdfVerdict:
    """Is this a difference family relative to a subgroup or partial spread?"""
    members = _members(forbidden)
    for sub in members:
        if sub.parent != group:
            raise FamilyError("forbidden subgroup has the wrong parent group")
    if any(b.size != k or (b.carrier is not group and b.carrier != group) for b in blocks):
        return RdfVerdict(False, False, None, CoverageVerdict(0, True))
    rows = stack_rows(blocks, k)
    if np.any(rows[:, 1:] == rows[:, :-1]):  # rows are sorted: a repeat is adjacent
        return RdfVerdict(False, False, None, CoverageVerdict(0, True))
    cov = coverage(delta_family(rows, group), group, members)
    is_rdf = cov.ok and cov.constant_lambda == lam
    additive = blocks_are_additive(group, [rows], members)
    return RdfVerdict(is_rdf, additive, cov.constant_lambda, cov)


def spread_conditions(group: AbelianGroup | int, k: int, s: int) -> ParamVerdict:
    """The arithmetic necessary conditions for a DF relative to a type-{k^s} spread."""
    if k < 2:
        raise FamilyError(f"need k >= 2, got k={k}")
    v = group.order if isinstance(group, AbelianGroup) else int(group)
    verdict = ParamVerdict({"v": v, "k": k, "s": s})
    verdict.conditions.append(Condition("k divides v", v % k == 0, {"v mod k": v % k}))
    ratio_ok = v % k == 0 and (v // k) % (k - 1) == 1 % (k - 1)
    cert = {"v/k mod k-1": (v // k) % (k - 1) if v % k == 0 else "n/a"}
    verdict.conditions.append(Condition("v/k = 1 (mod k-1)", ratio_ok, cert))
    verdict.conditions.append(
        Condition("s = 1 (mod k)", s % k == 1 % k, {"s mod k": s % k})
    )
    if isinstance(group, AbelianGroup):
        # spread members of order k can jointly hold at most s(k-1)+1 elements
        i_order = 1
        for n in group.cyclic_orders:
            i_order *= 2 if n % 2 == 0 else 1
        feasible = i_order <= s * (k - 1) + 1
        verdict.conditions.append(
            Condition(
                "involutions can fit in the spread",
                feasible,
                {"|I(G)|": i_order, "capacity": s * (k - 1) + 1},
            )
        )
    return verdict


def field_for_prime_power(q: int) -> FiniteField:
    """GF(q); a q past MAX_FIELD_ORDER is refused before it is factored."""
    from sympy import factorint  # slow to import: only here

    if q > MAX_FIELD_ORDER:
        raise FamilyError(f"field order {q} exceeds the supported cap {MAX_FIELD_ORDER}")
    fac = factorint(q)
    if len(fac) != 1:
        raise FamilyError(f"{q} is not a prime power")
    (p, n), = fac.items()
    return FiniteField(p, n)


def paley_sdf(q: int) -> StrongDifferenceFamily:
    """The one-block (q,q,q-1) difference multiset {0} u 2*squares; q odd."""
    if q % 2 == 0:
        raise FamilyError(f"q must be odd, got {q}")
    fld = field_for_prime_power(q)
    block = np.concatenate(([0], np.repeat(fld.exp[::2], 2)))  # zero, then each square twice
    blocks = blocks_of(fld.additive_group, block[None])
    return StrongDifferenceFamily(fld.additive_group, q, q - 1, blocks)


def verify_dm(rows: np.ndarray, group: AbelianGroup, k: int, mu: int) -> DmVerdict:
    """Row-pair coverage check over all unordered row pairs of the matrix
    whose columns are the rows of an (n, k) code array.

    The (j,i) direction follows from (i,j) by negation symmetry of the
    coverage requirement, so only i<j is scanned.
    """
    if not isinstance(rows, np.ndarray) or rows.shape[1:] != (k,) or rows.dtype != np.int64:
        raise FamilyError(f"a difference matrix is an (n, {k}) int64 array of codes")
    if np.any((rows < 0) | (rows >= group.order)):
        raise FamilyError(f"difference matrix entries must be codes of {group}")
    if len(rows) != mu * group.order:
        return DmVerdict(False, False, [(-1, -1, group.decode(0), len(rows))])
    failures = []
    for i in range(k):
        for j in range(i + 1, k):
            counts = np.bincount(group.sub_codes(rows[:, i], rows[:, j]), minlength=group.order)
            off = np.flatnonzero(counts != mu).tolist()
            failures += [(i, j, group.decode(c), m) for c, m in zip(off, counts[off].tolist())]
    return DmVerdict(not failures, bool(group.zero_sum_rows(rows).all()), failures)


# the most columns zero_sum_dm builds
MAX_DM_COLUMNS = 10**6


def zero_sum_dm(group: AbelianGroup, k: int) -> DifferenceMatrix:
    """Difference matrix whose columns are all |H|^(k-1) zero-sum k-tuples:
    the heads in lexicographic order, each completed by minus its sum."""
    if k < 2:
        raise FamilyError(f"a difference matrix needs k >= 2 rows, got k={k}")
    # a k past the cap's bit length is refused before |H|^(k-1) is formed
    n_cols = group.order ** (k - 1) if k <= MAX_DM_COLUMNS.bit_length() else None
    if n_cols is None or n_cols > MAX_DM_COLUMNS:
        raise FamilyError(
            f"zero-sum DM for |H|={group.order}, k={k} is past the cap of {MAX_DM_COLUMNS} columns"
        )
    heads = np.arange(n_cols)[:, None] // group.order ** np.arange(k - 2, -1, -1) % group.order
    last = group.sub_codes(0, group.sum_codes(heads))
    return DifferenceMatrix(group, k, group.order ** (k - 2), np.column_stack([heads, last]))


def jungnickel_compose(
    sdf: StrongDifferenceFamily, dm: DifferenceMatrix
) -> StrongDifferenceFamily:
    """Compose an SDF over G with a DM over H into an SDF over G x H."""
    if sdf.k != dm.k:
        raise FamilyError(f"block size mismatch: SDF k={sdf.k}, DM k={dm.k}")
    product = AbelianGroup(sdf.group.cyclic_orders + dm.group.cyclic_orders)
    # the code of (g, h) is g_code * |H| + h_code; block-major, column-minor
    rows = stack_rows(sdf.blocks, sdf.k)[:, None, :] * dm.group.order
    rows = rows + dm.columns[None]
    return StrongDifferenceFamily(
        product, sdf.k, sdf.lam * dm.mu, blocks_of(product, rows.reshape(-1, sdf.k))
    )


def theorem82_coverage_forms(q: int, r: int) -> dict[str, int]:
    """Closed-form multiplicities for the core SDF's difference lists."""
    return {
        "alpha0": (2 * q - 1) * r * r - q * r,
        "alphax": (q - 1) * r * r,
        "beta0": q * r * (r - 1),
        "betax": q * r * r,
        "sigma": (q * r - 1) * r * r,
    }


def theorem82_core_sdf(k: int) -> StrongDifferenceFamily:
    """The (q, k, (k-1)r^2)-SDF over F_q with q the largest odd prime power
    factor of k and r = k/q: one block r*{0} u 2r*squares plus r-1 copies
    of r*F_q.

    Only defined for k that is neither a prime power, nor singly even, nor
    of the form 2^n*3.  A k past MAX_FIELD_ORDER is refused before it is
    factored (a lifting needs a field of order q' > k), and an SDF of more
    than MAX_DESIGN_POINTS block points (its r x k rows) before it is built.
    """
    if k > MAX_FIELD_ORDER:
        raise FamilyError(f"k={k}: no field under the cap {MAX_FIELD_ORDER} lifts its SDF")
    status = main_status(k)
    if status != "constructible":
        raise FamilyError(f"k={k} is out of reach for this construction ({status})")
    q, r = largest_odd_prime_power_factor(k)
    if r * k > MAX_DESIGN_POINTS:
        raise FamilyError(f"k={k}: {r} blocks of {k} points, over the cap of {MAX_DESIGN_POINTS}")
    fld = field_for_prime_power(q)
    block_a = np.concatenate((np.zeros(r, np.int64), np.repeat(fld.exp[::2], 2 * r)))
    block_b = np.repeat(np.arange(q), r)
    rows = np.stack([block_a] + [block_b] * (r - 1))
    return StrongDifferenceFamily(
        fld.additive_group, k, (k - 1) * r * r, blocks_of(fld.additive_group, rows)
    )
