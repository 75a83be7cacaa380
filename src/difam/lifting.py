"""Lifting strong difference families into relative difference families.

The pipeline: pick a class-assignment map psi on the ordered position pairs
of the SDF blocks, search for second coordinates in F_q whose pairwise
differences land in the prescribed cyclotomic classes, then multiply by a
multiplier set to spread each difference list over all of F_q^*.  Searches
are backtracking with deterministic candidate order (least log index first,
permuted by a seed); every accepted lifting is re-verified by an
independent checker, never trusted from the search itself.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .carrier import ProductCarrier
from .diffs import GMultiset
from .families import (
    FamilyError,
    RdfVerdict,
    RelativeDifferenceFamily,
    StrongDifferenceFamily,
    verify_rdf,
)
from .gf import (
    CyclotomicClassIndex,
    FieldError,
    FiniteField,
    coset_reps,
    subfield_embed,
    x_set,
)
from .groups import Element, sum_of


class LiftingError(ValueError):
    def __init__(self, message: str, nodes: int = 0, deepest: int = 0):
        super().__init__(message)
        self.nodes = nodes
        self.deepest = deepest


@dataclass
class PsiAssignment:
    """Map (block h, position i, position j) -> residue in Z_lambda.

    For every group element g the restriction to the triples whose block
    difference equals g is a bijection onto Z_lambda, and transposing the
    positions adds lambda/2.
    """

    sdf: StrongDifferenceFamily
    lam: int
    table: dict[tuple[int, int, int], int]


@dataclass
class Lifting:
    sdf: StrongDifferenceFamily
    field: FiniteField
    second_coords: list[list[Element]]  # per block, aligned with block.expand()
    strategy: str

    def carrier(self) -> ProductCarrier:
        return ProductCarrier(self.sdf.group, self.field)

    def lifted_blocks(self) -> list[GMultiset]:
        carrier = self.carrier()
        out = []
        for block, coords in zip(self.sdf.blocks, self.second_coords):
            pairs = [carrier.join(b, x) for b, x in zip(block.expand(), coords)]
            if len(set(pairs)) != len(pairs):
                raise LiftingError("lifted block has repeated pairs")
            out.append(GMultiset(carrier, pairs))
        return out


@dataclass
class MultiplierSet:
    field: FiniteField
    elements: list[Element]

    def __post_init__(self):
        self.elements = sorted(set(self.elements))
        if any(e == self.field.zero for e in self.elements):
            raise FamilyError("multipliers must be nonzero")


def _ordered_triples(sdf: StrongDifferenceFamily):
    """All (h, i, j) with i != j, plus the group difference of each."""
    group = sdf.group
    for h, block in enumerate(sdf.blocks):
        elems = block.expand()
        k = len(elems)
        for i in range(k):
            for j in range(k):
                if i != j:
                    yield (h, i, j), group.sub(elems[i], elems[j])


def build_psi(sdf: StrongDifferenceFamily, lam: int, seed: int = 0) -> PsiAssignment:
    """Construct a valid psi for an even lambda; deterministic given the seed.

    Triples are grouped by block difference g; pairs of transposed triples
    sit in T_g and T_{-g}, so assigning a bijection on one side forces the
    other.  When g is its own negative the triples pair up inside T_g and
    receive complementary residues c, c + lambda/2.
    """
    if lam % 2 != 0:
        raise LiftingError(f"lambda must be even (the transpose rule needs lambda/2), got {lam}")
    if sdf.lam != lam:
        raise LiftingError(f"SDF has lambda={sdf.lam}, psi requested for {lam}")
    group = sdf.group
    by_g: dict[Element, list[tuple[int, int, int]]] = {}
    for triple, g in _ordered_triples(sdf):
        by_g.setdefault(g, []).append(triple)
    if any(len(triples) != lam for triples in by_g.values()):
        raise LiftingError("difference lists are not constant; verify the SDF first")
    rng = random.Random(seed)
    half = lam // 2
    table: dict[tuple[int, int, int], int] = {}
    for g in sorted(by_g):
        triples = by_g[g]
        neg = group.neg(g)
        if neg != g:
            if any(t in table for t in triples):
                continue  # already filled from the transposes in T_{-g}
            residues = list(range(lam))
            rng.shuffle(residues)
            for t, c in zip(triples, residues):
                table[t] = c
                h, i, j = t
                table[(h, j, i)] = (c + half) % lam
        else:
            # transposition acts inside T_g itself, without fixed points
            pairs = [((h, i, j), (h, j, i)) for (h, i, j) in triples if i < j]
            low = list(range(half))
            rng.shuffle(low)
            for (t, tbar), c in zip(pairs, low):
                table[t] = c
                table[tbar] = (c + half) % lam
    return PsiAssignment(sdf, lam, table)


def verify_psi(psi: PsiAssignment) -> bool:
    """Independent check of both psi invariants."""
    lam, half = psi.lam, psi.lam // 2
    by_g: dict[Element, list[int]] = {}
    for triple, g in _ordered_triples(psi.sdf):
        if triple not in psi.table:
            return False
        h, i, j = triple
        if psi.table[(h, j, i)] != (psi.table[triple] + half) % lam:
            return False
        by_g.setdefault(g, []).append(psi.table[triple])
    return all(sorted(vals) == list(range(lam)) for vals in by_g.values())


def _pair_classes(field: FiniteField, coords: Sequence[Element], lam: int):
    """(i, j, c) for every ordered pair i != j: c is the order-lam cyclotomic
    class of coords[i] - coords[j], or None when that difference is zero."""
    for i, x in enumerate(coords):
        for j, y in enumerate(coords):
            if i != j:
                d = field.sub(x, y)
                yield i, j, None if d == field.zero else field.log[d] % lam


def _block_lifts(
    field: FiniteField, coords: Sequence[Element], psi: PsiAssignment, h: int
) -> bool:
    # a zero difference (class None) never matches a psi residue
    return all(c == psi.table[(h, i, j)] for i, j, c in _pair_classes(field, coords, psi.lam))


def check_lifting(lifting: Lifting, psi: PsiAssignment) -> bool:
    """Do all ordered pairs of every lifted block hit their prescribed class?"""
    return all(
        _block_lifts(lifting.field, coords, psi, h)
        for h, coords in enumerate(lifting.second_coords)
    )


def _require_congruence(field: FiniteField, lam: int) -> None:
    if field.q % (2 * lam) != (lam + 1) % (2 * lam):
        raise LiftingError(
            f"need q = lambda+1 (mod 2*lambda): q={field.q}, lambda={lam}"
        )


class _Budget:
    def __init__(self, cap: int):
        self.cap = cap
        self.nodes = 0
        self.deepest = 0

    def tick(self, depth: int) -> None:
        self.nodes += 1
        self.deepest = max(self.deepest, depth)
        if self.nodes > self.cap:
            raise LiftingError(
                f"search budget exhausted after {self.nodes} nodes "
                f"(deepest level {self.deepest})",
                self.nodes,
                self.deepest,
            )


def _candidate_order(field: FiniteField, elems: Sequence[Element], rng) -> list[Element]:
    out = sorted(elems, key=lambda e: field.log.get(e, -1))
    rng.shuffle(out)
    return out


def greedy_lift(
    sdf: StrongDifferenceFamily,
    field: FiniteField,
    psi: PsiAssignment,
    budget: int = 10**7,
    seed: int = 0,
) -> Lifting:
    """Position-by-position lifting: each new second coordinate is drawn
    from the set of field elements whose differences to all earlier ones
    land in the psi-prescribed classes.  Backtracks when a set empties.
    """
    _require_congruence(field, psi.lam)
    rng = random.Random(seed)
    tracker = _Budget(budget)
    coords: list[list[Element]] = []
    for h, block in enumerate(sdf.blocks):
        k = block.size
        chosen: list[Element] = []

        def extend(i: int) -> bool:
            if i == k:
                return True
            tracker.tick(i)
            if i == 0:
                cands = _candidate_order(field, list(field.elements()), rng)
            else:
                constraints = [
                    (chosen[j], psi.table[(h, i, j)]) for j in range(i)
                ]
                cands = _candidate_order(field, x_set(field, constraints, psi.lam), rng)
            for x in cands:
                chosen.append(x)
                if extend(i + 1):
                    return True
                chosen.pop()
            return False

        if not extend(0):
            raise LiftingError(
                f"no lifting found for block {h} "
                f"({tracker.nodes} nodes, deepest level {tracker.deepest})",
                tracker.nodes,
                tracker.deepest,
            )
        coords.append(chosen)
    lifting = Lifting(sdf, field, coords, "greedy")
    if not check_lifting(lifting, psi):
        raise LiftingError("search produced a lifting that fails the pair checker")
    return lifting


def zero_sum_adjust(rdf: RelativeDifferenceFamily, k: int) -> RelativeDifferenceFamily:
    """Translate each block in the field direction so it becomes zero-sum.

    Only valid when k is invertible in the field (rad(q) does not divide k);
    translation leaves every difference list unchanged.
    """
    carrier = rdf.group
    if not isinstance(carrier, ProductCarrier):
        raise LiftingError("zero_sum_adjust needs a G x F_q carrier")
    fld = carrier.field
    if k % fld.p == 0:
        raise LiftingError(f"k={k} is zero in characteristic {fld.p}")
    new_blocks = []
    for block in rdf.blocks:
        sigma = carrier.field_part(sum_of(carrier, block))
        shift = carrier.join(carrier.group.zero, fld.neg(fld.div_int(sigma, k)))
        new_blocks.append(block.translate(shift))
    return RelativeDifferenceFamily(carrier, rdf.forbidden, rdf.k, rdf.lam, new_blocks)


def zero_sum_lift(
    sdf: StrongDifferenceFamily,
    field: FiniteField,
    psi: PsiAssignment,
    budget: int = 10**7,
    seed: int = 0,
) -> Lifting:
    """Lifting with zero-sum blocks when rad(q) divides k.

    Follows the careful end-game: free choices through position k-4, an
    exclusion at k-3 in characteristic 3, the Y-set exclusions at k-2, the
    doubled constraint set X' at k-1, and a forced final element.
    """
    lam = psi.lam
    _require_congruence(field, lam)
    k = sdf.k
    if k == 3:
        raise LiftingError("k=3 is excluded from the zero-sum lifting")
    if k % field.p != 0:
        raise LiftingError(
            f"rad(q)={field.p} must divide k={k}; use greedy_lift + zero_sum_adjust instead"
        )
    half = lam // 2
    minus_two = field.neg(field.from_int(2))
    alpha = field.log[minus_two] % lam
    rng = random.Random(seed)
    tracker = _Budget(budget)
    inv2 = field.inv(field.from_int(2))

    coords: list[list[Element]] = []
    for h, block in enumerate(sdf.blocks):
        chosen: list[Element] = []

        def sigma(upto: int) -> Element:
            return sum_of(field.additive_group, chosen[:upto])

        def candidates(i: int) -> list[Element]:
            # 0-based position i corresponds to the (i+1)-th chosen element
            if i == k - 1:
                forced = field.neg(sigma(k - 1))
                return [forced]
            if i == 0:
                base = list(field.elements())
            elif i < k - 2:
                constraints = [(chosen[j], psi.table[(h, i, j)]) for j in range(i)]
                base = x_set(field, constraints, lam)
            else:  # i == k - 2: the doubled constraint set X'
                s = sigma(k - 2)
                cons: list[tuple[Element, int]] = []
                for j in range(k - 2):
                    cons.append((chosen[j], psi.table[(h, k - 2, j)]))
                for j in range(k - 2):
                    c = field.neg(field.add(s, chosen[j]))
                    cons.append((c, (psi.table[(h, k - 1, j)] + half) % lam))
                c_last = field.neg(field.mul(s, inv2))
                cons.append((c_last, (psi.table[(h, k - 1, k - 2)] - alpha) % lam))
                points = [c for c, _ in cons]
                if len(set(points)) != len(points):
                    # the earlier exclusions should make this unreachable;
                    # treat it as a dead branch rather than aborting
                    return []
                base = x_set(field, cons, lam)
            if i == k - 4 and field.p == 3:
                banned = {field.neg(sigma(k - 4))}
                base = [x for x in base if x not in banned]
            if i == k - 3:
                s3 = sigma(k - 3)
                banned = set()
                for a in range(k - 3):
                    for b in range(a, k - 3):
                        banned.add(
                            field.neg(field.add(s3, field.add(chosen[a], chosen[b])))
                        )
                for a in range(k - 3):
                    y2 = field.neg(field.add(s3, chosen[a]))
                    banned.add(y2)
                    banned.add(field.mul(y2, inv2))
                if field.p != 3:
                    banned.add(field.neg(field.div_int(s3, 3)))
                base = [x for x in base if x not in banned]
            return base

        def extend(i: int) -> bool:
            if i == k:
                return _block_lifts(field, chosen, psi, h)
            tracker.tick(i)
            for x in _candidate_order(field, candidates(i), rng):
                chosen.append(x)
                if extend(i + 1):
                    return True
                chosen.pop()
            return False

        if not extend(0):
            raise LiftingError(
                f"no zero-sum lifting found for block {h} "
                f"({tracker.nodes} nodes, deepest level {tracker.deepest})",
                tracker.nodes,
                tracker.deepest,
            )
        coords.append(chosen)
    lifting = Lifting(sdf, field, coords, "zero-sum")
    if not check_lifting(lifting, psi):
        raise LiftingError("search produced a lifting that fails the pair checker")
    if any(sum_of(field.additive_group, c) != field.zero for c in coords):
        raise LiftingError("zero-sum lifting produced a non-zero-sum block")
    return lifting


# -- signed (plus/minus) liftings ----------------------------------------


def _signed_shape(block: GMultiset) -> list[Element]:
    """The set A for a block of shape {0} u 2*A; raises if the shape is wrong."""
    zero = block.carrier.zero
    a = []
    for e, m in block.items():
        if e == zero:
            if m != 1:
                raise LiftingError(f"zero must appear exactly once, has multiplicity {m}")
        elif m == 2:
            a.append(e)
        else:
            raise LiftingError(f"element {e} has multiplicity {m}, expected 2")
    if 2 * len(a) + 1 != block.size:
        raise LiftingError("block is not of the shape {0} u 2*A")
    return sorted(a)


def _signed_coords(block: GMultiset, field: FiniteField, assign: dict) -> list[Element]:
    """Second coordinates aligned with block.expand() for a signed assignment."""
    out = []
    pending: dict[Element, int] = Counter()
    for e in block.expand():
        if e == block.carrier.zero:
            out.append(field.zero)
        else:
            y = assign[e]
            out.append(y if pending[e] == 0 else field.neg(y))
            pending[e] += 1
    return out


def verify_signed_lifting(
    sdf: StrongDifferenceFamily,
    field: FiniteField,
    assign_per_block: Sequence[dict],
    half_lambda: int,
) -> bool:
    """Check the signed success condition: for every g, the half difference
    list is a transversal of the cyclotomic classes of order half_lambda.
    """
    if (field.q - 1) % half_lambda != 0 or ((field.q - 1) // 2) % half_lambda != 0:
        raise LiftingError(
            f"half_lambda={half_lambda} needs -1 inside the index-{half_lambda} subgroup"
        )
    group = sdf.group
    counts: Counter = Counter()
    for block, assign in zip(sdf.blocks, assign_per_block):
        a_set = _signed_shape(block)
        if set(assign) != set(a_set):
            raise LiftingError("assignment does not match the block's half set")
        gs, ys = [group.zero], [field.zero]
        for a in a_set:
            gs += [a, a]
            ys += [assign[a], field.neg(assign[a])]
        for i, j, c in _pair_classes(field, ys, half_lambda):
            if c is None:
                return False
            counts[(group.sub(gs[i], gs[j]), c)] += 1
    expected = {
        (g, c): 2 for g in group.elements() for c in range(half_lambda)
    }
    return dict(counts) == expected


def signed_lift(
    sdf: StrongDifferenceFamily,
    field: FiniteField,
    half_lambda: int,
    budget: int = 10**7,
    seed: int = 0,
) -> Lifting:
    """Symmetric lifting (x, +-y) for SDFs whose blocks are {0} u 2*A.

    Zero-sum is automatic; success means every half difference list is a
    transversal of the order-half_lambda cyclotomic classes, tracked as a
    global count map (each (g, class) hit exactly twice by the symmetric
    full lists).
    """
    if field.q % 2 == 0:
        raise LiftingError("signed liftings need an odd-order field")
    if sdf.lam != 2 * half_lambda:
        raise LiftingError(
            f"SDF lambda={sdf.lam} must equal 2*half_lambda={2 * half_lambda}"
        )
    if (field.q - 1) % half_lambda != 0 or ((field.q - 1) // 2) % half_lambda != 0:
        raise LiftingError(
            f"half_lambda={half_lambda} needs -1 inside the index-{half_lambda} subgroup"
        )
    group = sdf.group
    shapes = [_signed_shape(b) for b in sdf.blocks]
    variables = [(h, a) for h, a_set in enumerate(shapes) for a in a_set]
    rng = random.Random(seed)
    tracker = _Budget(budget)
    # one representative per {y, -y} pair; both give the same lifted block
    half_field = [field.exp[i] for i in range((field.q - 1) // 2)]

    counts: Counter = Counter()
    assigns: list[dict] = [{} for _ in sdf.blocks]

    def new_diffs(h: int, a: Element, y: Element) -> list[tuple[Element, int]]:
        """Ordered differences contributed by the pair (a, +-y): each comes
        out twice per (g, class) key because -1 lies in C^half_lambda."""
        out = []

        def add2(g: Element, d: Element) -> bool:
            if d == field.zero:
                return False
            key = (g, field.log[d] % half_lambda)
            out.append(key)
            out.append(key)
            return True

        neg_a = group.neg(a)
        ok = add2(group.zero, field.add(y, y))  # (a,y) vs (a,-y), both orders
        ok = ok and add2(a, y) and add2(neg_a, y)  # vs the (0, 0) point
        for b, z in assigns[h].items():
            g = group.sub(a, b)
            neg_g = group.neg(g)
            for d in (field.sub(y, z), field.add(y, z)):
                ok = ok and add2(g, d) and add2(neg_g, d)
            if not ok:
                break
        return out if ok else []

    def extend(idx: int) -> bool:
        if idx == len(variables):
            return True
        tracker.tick(idx)
        h, a = variables[idx]
        for y in _candidate_order(field, half_field, rng):
            diffs = new_diffs(h, a, y)
            if not diffs:
                continue
            tally: Counter = Counter(diffs)
            if any(counts[key] + extra > 2 for key, extra in tally.items()):
                continue
            counts.update(tally)
            assigns[h][a] = y
            if extend(idx + 1):
                return True
            del assigns[h][a]
            counts.subtract(tally)
        return False

    if not extend(0):
        raise LiftingError(
            f"no signed lifting found ({tracker.nodes} nodes, "
            f"deepest level {tracker.deepest})",
            tracker.nodes,
            tracker.deepest,
        )
    if not verify_signed_lifting(sdf, field, assigns, half_lambda):
        raise LiftingError("search produced a lifting that fails the transversal checker")
    coords = [
        _signed_coords(block, field, assign)
        for block, assign in zip(sdf.blocks, assigns)
    ]
    return Lifting(sdf, field, coords, "signed")


def signed_lifting_from_assignments(
    sdf: StrongDifferenceFamily, field: FiniteField, assign_per_block: Sequence[dict]
) -> Lifting:
    """Wrap externally chosen plus/minus assignments as a Lifting."""
    coords = [
        _signed_coords(block, field, dict(assign))
        for block, assign in zip(sdf.blocks, assign_per_block)
    ]
    return Lifting(sdf, field, coords, "signed")


# -- multipliers, extension, and the cyclotomy-free lifting ----------------


@dataclass
class MultiplierVerdict:
    ok: bool
    failing_g: Optional[Element]
    rdf_verdict: Optional[RdfVerdict]


def _multiply_out(
    carrier: ProductCarrier, point_lists: Sequence[Sequence[Element]], mults: Sequence[Element]
) -> list[GMultiset]:
    """One block per (point list, multiplier): the field parts scaled by m."""
    return [
        GMultiset(carrier, [carrier.scale_field(e, m) for e in pts])
        for pts in point_lists
        for m in mults
    ]


def apply_multipliers(
    lifting: Lifting, multipliers: MultiplierSet
) -> tuple[RelativeDifferenceFamily, MultiplierVerdict]:
    """Expand a lifting by a multiplier set and verify the result as a DF
    relative to G x {0}.

    Delta_g * M covers F_q^* exactly once for every g exactly when the
    expansion verifies; on failure `failing_g` is the least group part among
    the uncovered or overcovered elements.
    """
    fld = lifting.field
    sdf = lifting.sdf
    lam = sdf.lam
    if len(multipliers.elements) * lam != fld.q - 1:
        raise FamilyError(
            f"need |M| = (q-1)/lambda = {(fld.q - 1) // lam}, got {len(multipliers.elements)}"
        )
    carrier = lifting.carrier()
    lifted = [block.expand() for block in lifting.lifted_blocks()]
    blocks = _multiply_out(carrier, lifted, multipliers.elements)
    forbidden = carrier.forbidden_subgroup()
    rdf_verdict = verify_rdf(blocks, carrier, forbidden, sdf.k, 1)
    failing = min(
        (carrier.group_part(e) for e, _ in rdf_verdict.coverage.failures), default=None
    )
    rdf = RelativeDifferenceFamily(carrier, forbidden, sdf.k, 1, blocks)
    return rdf, MultiplierVerdict(rdf_verdict.is_rdf, failing, rdf_verdict)


def extend_field(rdf: RelativeDifferenceFamily, n: int) -> RelativeDifferenceFamily:
    """Expand a DF over G x F_q to one over G x F_{q^n} by multiplying the
    field coordinates by a full system of coset representatives of F_q^*.
    """
    if n < 1:
        raise LiftingError(f"extension degree must be >= 1, got {n}")
    if n == 1:
        return rdf
    carrier = rdf.group
    if not isinstance(carrier, ProductCarrier):
        raise LiftingError("extend_field needs a G x F_q carrier")
    base = carrier.field
    big = FiniteField(base.p, base.n * n)
    embed = subfield_embed(big, base)
    d = (big.q - 1) // (base.q - 1)
    reps = coset_reps(big, ("index", d))
    new_carrier = ProductCarrier(carrier.group, big)
    embedded = [
        [new_carrier.join(g, embed[x]) for g, x in map(carrier.split, block.expand())]
        for block in rdf.blocks
    ]
    blocks = _multiply_out(new_carrier, embedded, reps)
    return RelativeDifferenceFamily(
        new_carrier, new_carrier.forbidden_subgroup(), rdf.k, rdf.lam, blocks
    )


def _default_zero_sum_subset(field: FiniteField, k: int) -> list[Element]:
    elems = sorted(field.elements())
    head = elems[: k - 1]
    pool = iter(elems[k - 1 :])
    while True:
        last = field.neg(sum_of(field.additive_group, head))
        if last not in head:
            return head + [last]
        head[-1] = next(pool)


def _default_symmetric_subset(field: FiniteField, k: int) -> list[Element]:
    ys: list[Element] = []
    taken = {field.zero}
    for i in range(field.q - 1):
        e = field.exp[i]
        if e in taken or field.neg(e) in taken:
            continue
        ys.append(e)
        taken.add(e)
        taken.add(field.neg(e))
        if len(ys) == (k - 1) // 2:
            return ys
    raise LiftingError(f"field of order {field.q} has no symmetric {k}-subset")


def simple_lift(
    sdf: StrongDifferenceFamily,
    field: FiniteField,
    L: Optional[Sequence[Element]] = None,
    signed: bool = False,
) -> RelativeDifferenceFamily:
    """Cyclotomy-free lifting: pair every block with one fixed zero-sum
    k-subset L of F_q and multiply by all of F_q^* (lambda preserved), or,
    for blocks of shape {0} u 2*A with a symmetric L, by plus/minus coset
    representatives only (lambda halved).
    """
    k = sdf.k
    if field.q <= k:
        raise LiftingError(f"need q > k, got q={field.q}, k={k}")
    if not sdf.additive:
        raise LiftingError("the SDF must be additive")
    carrier = ProductCarrier(sdf.group, field)
    fld = field

    if signed:
        if sdf.lam % 2 != 0:
            raise LiftingError("signed variant needs an even lambda")
        shapes = [_signed_shape(b) for b in sdf.blocks]
        if L is None:
            ys = _default_symmetric_subset(fld, k)
        else:
            elems = [fld.check(e) for e in L]
            if len(elems) != k or len(set(elems)) != k:
                raise LiftingError("L must be a k-set")
            if fld.zero not in elems:
                raise LiftingError("signed L must contain zero")
            ys = sorted(
                {min(e, fld.neg(e)) for e in elems if e != fld.zero}
            )
            if 2 * len(ys) + 1 != k:
                raise LiftingError("signed L must be symmetric under negation")
        lifted = []
        for a_set in shapes:
            assign = dict(zip(a_set, ys))
            pts = [carrier.join(sdf.group.zero, fld.zero)]
            for a in a_set:
                pts.append(carrier.join(a, assign[a]))
                pts.append(carrier.join(a, fld.neg(assign[a])))
            lifted.append(pts)
        mults = [fld.exp[i] for i in range((fld.q - 1) // 2)]
        lam_out = sdf.lam // 2
    else:
        if L is None:
            L_elems = _default_zero_sum_subset(fld, k)
        else:
            L_elems = [fld.check(e) for e in L]
            if len(L_elems) != k or len(set(L_elems)) != k:
                raise LiftingError("L must be a k-set")
            if sum_of(fld.additive_group, L_elems) != fld.zero:
                raise LiftingError("L must be zero-sum")
        lifted = [
            [carrier.join(b, x) for b, x in zip(block.expand(), L_elems)]
            for block in sdf.blocks
        ]
        mults = [fld.exp[i] for i in range(fld.q - 1)]
        lam_out = sdf.lam

    blocks = _multiply_out(carrier, lifted, mults)
    return RelativeDifferenceFamily(carrier, carrier.forbidden_subgroup(), k, lam_out, blocks)
