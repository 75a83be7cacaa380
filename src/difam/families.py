"""Strong difference families, relative difference families, partial
spreads and difference matrices: types, verifiers, and the explicit
constructions (Paley multisets, the all-zero-sum-tuples difference matrix,
the product composition, and the core SDF behind the general existence
argument).

Verifiers return verdicts carrying full coverage maps rather than booleans,
so a failing family can be diagnosed and a passing one certified.

Additivity is never stored: each family type derives `additive` from its
current blocks on every access through `blocks_are_additive`, the same
helper the verifiers use for `is_additive`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from sympy import factorint

from .diffs import CoverageVerdict, GMultiset, coverage, delta_family
from .gf import FiniteField, nonzero_squares
from .groups import AbelianGroup, Element, GroupError, Subgroup, sum_of
from .params import Condition, ParamVerdict, largest_odd_prime_power_factor, main_status


class FamilyError(ValueError):
    pass


@dataclass
class PartialSpread:
    """Subgroups of a common parent with pairwise trivial intersections."""

    members: list[Subgroup]

    def __post_init__(self):
        if self.members:
            parent = self.members[0].parent
            zero = parent.zero
            for sub in self.members:
                if sub.parent != parent:
                    raise FamilyError("spread members must share a parent group")
            for i, a in enumerate(self.members):
                for b in self.members[i + 1 :]:
                    if set(a.elements) & set(b.elements) != {zero}:
                        raise FamilyError("spread members must intersect trivially")

    @property
    def parent(self) -> AbelianGroup:
        return self.members[0].parent

    def covered(self) -> set[Element]:
        out: set[Element] = set()
        for sub in self.members:
            out.update(sub.elements)
        return out


Forbidden = Union[Subgroup, PartialSpread]


def _members(forbidden: Forbidden) -> list[Subgroup]:
    return [forbidden] if isinstance(forbidden, Subgroup) else forbidden.members


def blocks_are_additive(group: AbelianGroup, blocks, forbidden: Sequence[Subgroup]) -> bool:
    """Every block sums to zero and no forbidden subgroup is binary (has
    exactly one involution); absolute families pass no forbidden subgroups."""
    return all(sum_of(group, b) == group.zero for b in blocks) and not any(
        _subgroup_is_binary(sub) for sub in forbidden
    )


def _subgroup_is_binary(sub: Subgroup) -> bool:
    group = sub.parent
    involutions = sum(1 for g in sub.elements if group.add(g, g) == group.zero)
    return involutions == 2  # zero plus exactly one involution


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
        return blocks_are_additive(self.group, self.blocks, ())


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

    @property
    def additive(self) -> bool:
        return blocks_are_additive(self.group, self.blocks, self.forbidden_members())

    def forbidden_members(self) -> list[Subgroup]:
        return _members(self.forbidden)


@dataclass
class DifferenceMatrix:
    group: AbelianGroup
    k: int
    mu: int
    columns: list[tuple[Element, ...]]

    @property
    def additive(self) -> bool:
        return blocks_are_additive(self.group, self.columns, ())


@dataclass
class SdfVerdict:
    is_sdf: bool
    is_additive: bool
    lam: Optional[int]
    coverage: CoverageVerdict

    @property
    def ok(self) -> bool:
        return self.is_sdf


@dataclass
class RdfVerdict:
    is_rdf: bool
    is_additive: bool
    lam: Optional[int]
    coverage: CoverageVerdict

    @property
    def ok(self) -> bool:
        return self.is_rdf


@dataclass
class DmVerdict:
    is_dm: bool
    is_additive: bool
    failures: list[tuple[int, int, Element, int]]  # (row i, row j, element, count)


def verify_sdf(
    blocks: Sequence[GMultiset], group: AbelianGroup, k: int, lam: int
) -> SdfVerdict:
    """Is this a (G,k,lam) strong difference family?  Never raises on bad input."""
    if not blocks or any(b.size != k for b in blocks) or any(b.carrier != group for b in blocks):
        empty = coverage(GMultiset(group, []), group)
        return SdfVerdict(False, False, None, empty)
    cov = coverage(delta_family(list(blocks)), group)
    is_sdf = cov.ok and cov.constant_lambda == lam
    return SdfVerdict(is_sdf, blocks_are_additive(group, blocks, ()), cov.constant_lambda, cov)


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
    bad_shape = any(b.size != k or not b.is_set() or b.carrier != group for b in blocks)
    if bad_shape:
        empty = coverage(GMultiset(group, []), group, members)
        return RdfVerdict(False, False, None, empty)
    delta = (
        delta_family(list(blocks)) if blocks else GMultiset(group, [])
    )
    cov = coverage(delta, group, members)
    is_rdf = cov.ok and cov.constant_lambda == lam
    additive = blocks_are_additive(group, blocks, members)
    return RdfVerdict(is_rdf, additive, cov.constant_lambda, cov)


def spread_conditions(group: AbelianGroup | int, k: int, s: int) -> ParamVerdict:
    """The arithmetic necessary conditions for a DF relative to a type-{k^s} spread."""
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
    group = fld.additive_group
    entries: Counter = Counter({fld.zero: 1})
    for sq in nonzero_squares(fld):
        entries[sq] += 2
    return StrongDifferenceFamily(group, q, q - 1, [GMultiset(group, entries)])


def verify_dm(
    columns: Sequence[Sequence[Element]], group: AbelianGroup, k: int, mu: int
) -> DmVerdict:
    """Row-pair coverage check over all unordered row pairs.

    The (j,i) direction follows from (i,j) by negation symmetry of the
    coverage requirement, so only i<j is scanned.
    """
    cols = [tuple(c) for c in columns]
    if any(len(c) != k for c in cols):
        raise FamilyError("ragged matrix: every column must have k entries")
    if len(cols) != mu * group.order:
        return DmVerdict(False, False, [(-1, -1, group.zero, len(cols))])
    for c in cols:
        for e in c:
            group.check(e)
    failures = []
    for i in range(k):
        for j in range(i + 1, k):
            counts: Counter = Counter(group.sub(c[i], c[j]) for c in cols)
            for e in group.elements():
                if counts.get(e, 0) != mu:
                    failures.append((i, j, e, counts.get(e, 0)))
    return DmVerdict(not failures, blocks_are_additive(group, cols, ()), failures)


def zero_sum_dm(group: AbelianGroup, k: int, cap: int = 10**6) -> DifferenceMatrix:
    """Difference matrix whose columns are all |H|^(k-1) zero-sum k-tuples."""
    import itertools

    n_cols = group.order ** (k - 1)
    if n_cols > cap:
        raise FamilyError(
            f"zero-sum DM for |H|={group.order}, k={k} needs {n_cols} columns; "
            f"raise cap (currently {cap}) to build it"
        )
    elems = sorted(group.elements())
    columns = []
    for head in itertools.product(elems, repeat=k - 1):
        columns.append(head + (group.neg(sum_of(group, head)),))
    return DifferenceMatrix(group, k, group.order ** (k - 2), columns)


def jungnickel_compose(
    sdf: StrongDifferenceFamily, dm: DifferenceMatrix
) -> StrongDifferenceFamily:
    """Compose an SDF over G with a DM over H into an SDF over G x H."""
    if sdf.k != dm.k:
        raise FamilyError(f"block size mismatch: SDF k={sdf.k}, DM k={dm.k}")
    product = AbelianGroup(sdf.group.cyclic_orders + dm.group.cyclic_orders)
    blocks = []
    for block in sdf.blocks:
        expanded = block.expand()
        for col in dm.columns:
            blocks.append(
                GMultiset(product, [b + m for b, m in zip(expanded, col)])
            )
    return StrongDifferenceFamily(product, sdf.k, sdf.lam * dm.mu, blocks)


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
    of the form 2^n*3.
    """
    status = main_status(k)
    if status != "constructible":
        raise FamilyError(f"k={k} is out of reach for this construction ({status})")
    q, r = largest_odd_prime_power_factor(k)
    fld = field_for_prime_power(q)
    group = fld.additive_group
    a_entries: Counter = Counter({fld.zero: r})
    for sq in nonzero_squares(fld):
        a_entries[sq] += 2 * r
    block_a = GMultiset(group, a_entries)
    block_b = GMultiset(group, Counter({e: r for e in group.elements()}))
    blocks = [block_a] + [block_b] * (r - 1)
    return StrongDifferenceFamily(group, k, (k - 1) * r * r, blocks)
