"""Lifting strong difference families into relative difference families.

The pipeline: pick a class-assignment map psi on the ordered position pairs
of the SDF blocks, search for second coordinates in F_q whose pairwise
differences land in the prescribed cyclotomic classes, then multiply by a
multiplier set to spread each difference list over all of F_q^*.  The
greedy, zero-sum and signed searches share one backtracking driver,
`_backtrack`: per level it ticks a node budget and tries the options in a
deterministic candidate order: options are listed as ascending log codes
(`gf.ClassMasks`), so least log index first, then permuted by a seed.  Every
accepted lifting is re-verified by an independent checker, never trusted
from the search itself.

The searches keep second coordinates as tuples; what follows them works on
code rows, (g, x) coded group_code * q + field_code.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .carrier import ProductCarrier
from .diffs import GMultiset, blocks_of, stack_rows
from .families import (
    FamilyError,
    RdfVerdict,
    RelativeDifferenceFamily,
    StrongDifferenceFamily,
    verify_rdf,
)
from .gf import FiniteField, subfield_embed
from .groups import DifamError, Element, sum_of


class LiftingError(DifamError):
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
    second_coords: list[list[Element]]  # per block, aligned with its sorted elements
    strategy: str
    nodes: int = 0  # search nodes visited, 0 when no search ran
    deepest: int = 0  # deepest search level reached

    def carrier(self) -> ProductCarrier:
        return ProductCarrier(self.sdf.group, self.field)

    def lifted_blocks(self) -> list[GMultiset]:
        carrier, encode = self.carrier(), self.field.additive_group.encode_elements
        # a block's codes run in the order of its sorted elements, as its coordinates do
        blocks = [
            blocks_of(carrier, (b.codes * self.field.q + encode(x))[None])[0]
            for b, x in zip(self.sdf.blocks, self.second_coords)
        ]
        if not all(b.is_set() for b in blocks):
            raise LiftingError("lifted block has repeated pairs")
        return blocks


class MultiplierSet:
    """Nonzero field elements as their sorted distinct additive codes."""

    def __init__(self, field: FiniteField, elements: Sequence[Element]):
        self.field = field
        self.codes = np.unique(field.additive_group.encode_elements(list(elements)))
        if self.codes.size and self.codes[0] == 0:
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
                yield i, j, None if d == field.zero else (field.log_code(d) - 1) % lam


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
        if depth > self.deepest:
            self.deepest = depth
        if self.nodes > self.cap:
            raise LiftingError(
                f"search budget exhausted after {self.nodes} nodes "
                f"(deepest level {self.deepest})",
                self.nodes,
                self.deepest,
            )


def _backtrack(
    levels: int,
    options: Callable[[int, list[int]], Sequence[int]],
    rng: random.Random,
    tracker: _Budget,
    what: str,
    commit: Optional[Callable[[int, int], bool]] = None,
    undo: Optional[Callable[[int, int], None]] = None,
) -> list[int]:
    """The one search driver: choose a log code for each of `levels` positions.

    Level i ticks the budget, then tries options(i, chosen), ascending log
    codes, in the order `rng.shuffle` gives them; `commit` may refuse a
    value or record it, `undo` takes it back when the branch below fails.
    Raises LiftingError if no branch reaches the last level.
    """
    chosen: list[int] = []

    def extend(i: int) -> bool:
        if i == levels:
            return True
        tracker.tick(i)
        order = list(options(i, chosen))
        rng.shuffle(order)
        for x in order:
            if commit is not None and not commit(i, x):
                continue
            chosen.append(x)
            if extend(i + 1):
                return True
            chosen.pop()
            if undo is not None:
                undo(i, x)
        return False

    if not extend(0):
        raise LiftingError(
            f"no {what} found ({tracker.nodes} nodes, deepest level {tracker.deepest})",
            tracker.nodes,
            tracker.deepest,
        )
    return chosen


def _psi_rows(psi: PsiAssignment) -> list[list[list[int]]]:
    """rows[h][i]: the psi classes of (h, i, j), j < i; zipped with the
    chosen codes, the constraints of position i (none at i = 0)."""
    blocks = enumerate(psi.sdf.blocks)
    return [[[psi.table[(h, i, j)] for j in range(i)] for i in range(b.size)] for h, b in blocks]


def _lift_blocks(sdf, field, psi, budget, seed, strategy, options) -> Lifting:
    """Run the driver once per block with options(h, i, chosen), sharing one
    rng and one budget, and re-check the result with the pair checker."""
    rng = random.Random(seed)
    tracker = _Budget(budget)
    coords = [
        list(map(field.from_log_code, _backtrack(
            block.size, functools.partial(options, h), rng, tracker,
            f"{strategy} lifting for block {h}")))
        for h, block in enumerate(sdf.blocks)
    ]
    lifting = Lifting(sdf, field, coords, strategy, tracker.nodes, tracker.deepest)
    if not check_lifting(lifting, psi):
        raise LiftingError("search produced a lifting that fails the pair checker")
    return lifting


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
    meet, rows = field.class_masks(psi.lam).meet, _psi_rows(psi)
    return _lift_blocks(
        sdf, field, psi, budget, seed, "greedy",
        lambda h, i, chosen: meet(list(zip(chosen, rows[h][i]))),
    )


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
    rows = stack_rows(rdf.blocks, rdf.k)
    digits = fld.additive_group.decode_array(rows % fld.q)  # (b, k, n) field coefficients
    # minus the field sum over k: each coefficient of the sum times -1/k in GF(p)
    digits += digits.sum(axis=1, keepdims=True) * -pow(k, -1, fld.p)
    rows = rows - rows % fld.q + fld.additive_group.encode_array(digits % fld.p)
    blocks = blocks_of(carrier, rows)
    return RelativeDifferenceFamily(carrier, rdf.forbidden, rdf.k, rdf.lam, blocks)


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
    meet, rows, code = field.class_masks(lam).meet, _psi_rows(psi), field.log_code
    half = lam // 2
    inv2 = field.inv(field.from_int(2))  # refuses characteristic 2, where -2 = 0
    minus_two = field.neg(field.from_int(2))
    alpha = (code(minus_two) - 1) % lam  # the class of -2

    def options(h: int, i: int, chosen: list[int]) -> list[int]:
        # 0-based position i corresponds to the (i+1)-th chosen element
        points = list(map(field.from_log_code, chosen))

        def sigma(upto: int) -> Element:
            return sum_of(field.additive_group, points[:upto])

        if i == k - 1:
            forced = field.neg(sigma(k - 1))
            return [code(forced)] if _block_lifts(field, points + [forced], psi, h) else []
        cons = list(zip(chosen, rows[h][i]))
        if i == k - 2:  # the doubled constraint set X'
            s = sigma(k - 2)
            for j in range(k - 2):
                c = field.neg(field.add(s, points[j]))
                cons.append((code(c), (psi.table[(h, k - 1, j)] + half) % lam))
            c_last = field.neg(field.mul(s, inv2))
            cons.append((code(c_last), (psi.table[(h, k - 1, k - 2)] - alpha) % lam))
            if len({c for c, _ in cons}) != len(cons):
                # the earlier exclusions should make this unreachable;
                # treat it as a dead branch rather than aborting
                return []
        base, banned = meet(cons), set()
        if i == k - 4 and field.p == 3:
            banned.add(field.neg(sigma(k - 4)))
        if i == k - 3:
            s3 = sigma(k - 3)
            for a in range(k - 3):
                for b in range(a, k - 3):
                    banned.add(field.neg(field.add(s3, field.add(points[a], points[b]))))
            for a in range(k - 3):
                y2 = field.neg(field.add(s3, points[a]))
                banned.add(y2)
                banned.add(field.mul(y2, inv2))
            if field.p != 3:
                banned.add(field.neg(field.div(s3, field.from_int(3))))
        if banned:
            banned = set(map(code, banned))
            base = [x for x in base if x not in banned]
        return base

    lifting = _lift_blocks(sdf, field, psi, budget, seed, "zero-sum", options)
    if any(sum_of(field.additive_group, c) != field.zero for c in lifting.second_coords):
        raise LiftingError("zero-sum lifting produced a non-zero-sum block")
    return lifting


# -- signed (plus/minus) liftings ----------------------------------------


def _signed_shape(block: GMultiset) -> list[Element]:
    """The set A for a block of shape {0} u 2*A; raises if the shape is wrong."""
    a = []
    for c, m in zip(*(x.tolist() for x in np.unique(block.codes, return_counts=True))):
        if c == 0:  # the code of zero
            if m != 1:
                raise LiftingError(f"zero must appear exactly once, has multiplicity {m}")
        elif m == 2:
            a.append(block.carrier.decode(c))
        else:
            e = block.carrier.decode(c)
            raise LiftingError(f"element {e} has multiplicity {m}, expected 2")
    if 2 * len(a) + 1 != block.size:
        raise LiftingError("block is not of the shape {0} u 2*A")
    return a


def _signed_coords(block: GMultiset, field: FiniteField, assign: dict) -> list[Element]:
    """Second coordinates aligned with block.expand() for a signed assignment:
    the sorted block is zero, then each a of A twice, which get y and -y."""
    ys = [field.zero]
    for a in _signed_shape(block):
        ys += [assign[a], field.neg(assign[a])]
    return ys


def _require_half_lambda(field: FiniteField, half_lambda: int) -> None:
    if (field.q - 1) % half_lambda != 0 or ((field.q - 1) // 2) % half_lambda != 0:
        raise LiftingError(
            f"half_lambda={half_lambda} needs -1 inside the index-{half_lambda} subgroup"
        )


def verify_signed_lifting(
    sdf: StrongDifferenceFamily,
    field: FiniteField,
    assign_per_block: Sequence[dict],
    half_lambda: int,
) -> bool:
    """Check the signed success condition: for every g, the half difference
    list is a transversal of the cyclotomic classes of order half_lambda.
    """
    _require_half_lambda(field, half_lambda)
    group = sdf.group
    counts: Counter = Counter()
    for block, assign in zip(sdf.blocks, assign_per_block):
        if set(assign) != set(_signed_shape(block)):
            raise LiftingError("assignment does not match the block's half set")
        gs, ys = block.expand(), _signed_coords(block, field, assign)
        for i, j, c in _pair_classes(field, ys, half_lambda):
            if c is None:
                return False
            counts[(group.sub(gs[i], gs[j]), c)] += 1
    return dict(counts) == {(g, c): 2 for g in group.elements() for c in range(half_lambda)}


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
    _require_half_lambda(field, half_lambda)
    group = sdf.group
    shapes = [_signed_shape(b) for b in sdf.blocks]
    variables = [(h, a) for h, a_set in enumerate(shapes) for a in a_set]
    # log codes of exp[0..(q-3)/2]: one per {y, -y} pair, both give the same lifted block
    half_field = range(1, (field.q - 1) // 2 + 1)

    counts: Counter = Counter()
    tallies: list[Counter] = []
    assigns: list[dict] = [{} for _ in sdf.blocks]

    def new_diffs(h: int, a: Element, y: Element) -> list[tuple[Element, int]]:
        """Ordered differences contributed by the pair (a, +-y): each comes
        out twice per (g, class) key because -1 lies in C^half_lambda."""
        out = []

        def add2(g: Element, d: Element) -> bool:
            if d == field.zero:
                return False
            key = (g, (field.log_code(d) - 1) % half_lambda)
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

    def commit(idx: int, y: int) -> bool:
        h, a = variables[idx]
        y = field.from_log_code(y)
        diffs = new_diffs(h, a, y)
        if not diffs:
            return False
        tally: Counter = Counter(diffs)
        if any(counts[key] + extra > 2 for key, extra in tally.items()):
            return False
        counts.update(tally)
        tallies.append(tally)
        assigns[h][a] = y
        return True

    def undo(idx: int, y: int) -> None:
        h, a = variables[idx]
        del assigns[h][a]
        counts.subtract(tallies.pop())

    tracker = _Budget(budget)
    _backtrack(
        len(variables), lambda idx, chosen: half_field, rng=random.Random(seed),
        tracker=tracker, what="signed lifting", commit=commit, undo=undo,
    )
    if not verify_signed_lifting(sdf, field, assigns, half_lambda):
        raise LiftingError("search produced a lifting that fails the transversal checker")
    lifting = signed_lifting_from_assignments(sdf, field, assigns)
    lifting.nodes, lifting.deepest = tracker.nodes, tracker.deepest
    return lifting


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
    carrier: ProductCarrier, rows: Sequence[np.ndarray], logs: np.ndarray
) -> list[GMultiset]:
    """One block per (code row, multiplier r^log), in that order: the field
    part of each point times the multiplier, by logs; the group part kept."""
    field, blocks = carrier.field, []
    q, logs = field.q, np.asarray(logs, dtype=np.int64)[:, None]
    for row in rows:
        x = field.log[row % q].astype(np.int64)  # -1 at zero, which stays zero
        product = np.where(x >= 0, field.exp[(x + logs) % (q - 1)], 0) + (row - row % q)
        blocks += blocks_of(carrier, product)
    return blocks


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
    if len(multipliers.codes) * lam != fld.q - 1:
        raise FamilyError(
            f"need |M| = (q-1)/lambda = {(fld.q - 1) // lam}, got {len(multipliers.codes)}"
        )
    carrier = lifting.carrier()
    lifted = [b.codes for b in lifting.lifted_blocks()]
    blocks = _multiply_out(carrier, lifted, fld.log[multipliers.codes])
    forbidden = carrier.forbidden_subgroup()
    rdf_verdict = verify_rdf(blocks, carrier, forbidden, sdf.k, 1)
    failing = min((carrier.split(e)[0] for e, _ in rdf_verdict.coverage.failures), default=None)
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
    new_carrier = ProductCarrier(carrier.group, big)
    embedded = [b.codes // base.q * big.q + embed[b.codes % base.q] for b in rdf.blocks]
    # coset representatives r^0 .. r^(d-1) of F_q^*, d = (q^n - 1)/(q - 1)
    blocks = _multiply_out(new_carrier, embedded, np.arange((big.q - 1) // (base.q - 1)))
    return RelativeDifferenceFamily(
        new_carrier, new_carrier.forbidden_subgroup(), rdf.k, rdf.lam, blocks
    )


def _combinations_descending(n: int, r: int):
    """The r-subsets of range(n), as sorted index lists, in decreasing
    lexicographic order."""
    idx = list(range(n - r, n))
    while True:
        yield idx
        # the previous subset: lower the last index that can go down
        j = r - 1
        while j >= 0 and idx[j] == (idx[j - 1] + 1 if j else 0):
            j -= 1
        if j < 0:
            return
        idx[j] -= 1
        idx[j + 1 :] = range(n - r + j + 1, n)


def _default_zero_sum_subset(field: FiniteField, k: int) -> list[Element]:
    """The lexicographically first zero-sum k-subset of the field, sorted.

    Walking (k-1)-heads in lexicographic order, the first whose completion
    by minus its sum is a new element gives it.  For q > 2 the whole field
    sums to zero, so a set is zero-sum iff its complement is, and taking
    complements reverses lexicographic order: when q-k < k it is the
    complement of the last zero-sum (q-k)-subset, found walking backwards.
    """
    elems = sorted(field.elements())
    group = field.additive_group
    if field.q > 2 and field.q - k < k:
        for idx in _combinations_descending(field.q, field.q - k):
            if sum_of(group, [elems[i] for i in idx]) == field.zero:
                drop = set(idx)
                return [e for i, e in enumerate(elems) if i not in drop]
    else:
        for head in itertools.combinations(elems, k - 1):
            last = field.neg(sum_of(group, head))
            if last not in head:
                return list(head) + [last]
    raise LiftingError(f"field of order {field.q} has no zero-sum {k}-subset")


def simple_lift(
    sdf: StrongDifferenceFamily, field: FiniteField, signed: bool = False
) -> RelativeDifferenceFamily:
    """Cyclotomy-free lifting: pair every block with one fixed zero-sum
    k-subset L of F_q and multiply by all of F_q^* (lambda preserved), or,
    for blocks of shape {0} u 2*A with a symmetric L, by plus/minus coset
    representatives only (lambda halved).  L is the lexicographically first
    zero-sum k-subset, or, signed, zero and +-r^i for i < (k-1)/2.
    """
    k = sdf.k
    if field.q <= k:
        raise LiftingError(f"need q > k, got q={field.q}, k={k}")
    if not sdf.additive:
        raise LiftingError("the SDF must be additive")
    carrier = ProductCarrier(sdf.group, field)
    fld = field

    if signed:
        if fld.q % 2 == 0:
            raise LiftingError("signed variant needs an odd-order field")
        if sdf.lam % 2 != 0:
            raise LiftingError("signed variant needs an even lambda")
        shapes = [_signed_shape(b) for b in sdf.blocks]
        # -exp[i] = exp[i + (q-1)/2], so no two of these are negatives
        ys = fld.from_codes(fld.exp[: (k - 1) // 2])
        lifting = signed_lifting_from_assignments(
            sdf, fld, [dict(zip(a_set, ys)) for a_set in shapes]
        )
        lifted = [b.codes for b in lifting.lifted_blocks()]
        logs = np.arange((fld.q - 1) // 2)
        lam_out = sdf.lam // 2
    else:
        x = fld.additive_group.encode_elements(_default_zero_sum_subset(fld, k))
        lifted = [block.codes * fld.q + x for block in sdf.blocks]
        logs = np.arange(fld.q - 1)
        lam_out = sdf.lam

    blocks = _multiply_out(carrier, lifted, logs)
    return RelativeDifferenceFamily(carrier, carrier.forbidden_subgroup(), k, lam_out, blocks)
