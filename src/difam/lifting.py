"""Lifting strong difference families into relative difference families.

The pipeline: pick a class-assignment map psi on the ordered position pairs
of the SDF blocks, search for second coordinates in F_q whose pairwise
differences land in the prescribed cyclotomic classes, then multiply by a
multiplier set to spread each difference list over all of F_q^*.  The
greedy, zero-sum and signed searches share one backtracking driver,
`_backtrack`.  A node's options, ascending log codes (`gf.ClassMasks`),
so least log index first, are listed by its parent, which also ticks a
node budget for it, so a node without options still counts; the node
tries them in an order permuted by a seed.  The signed search decides
its candidates on one boolean table of the (group element, class) keys
already used, a window of log codes per array pass.  Every accepted
lifting is re-verified by an independent checker, never trusted from the
search itself.  The greedy search counts rather than walks the subtrees it
can prove isomorphic to one that failed (the sibling rule of `_backtrack`),
so its node counts, depth and budget are those of the whole tree, not of
the nodes walked.

Field elements are additive codes throughout (`gf`).  A lifting holds its
second coordinates as one (s, k) array of them, and psi is an (s, k, k)
array of classes.  One kernel, `_class_table`, gives the class of every
ordered pair difference of a row of coordinates, and every check compares
against it.  What follows a lifting works on code rows, (g, x) coded
group_code * q + field_code.
"""

from __future__ import annotations

import itertools
import random
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
from .gf import FieldError, FiniteField, subfield_embed
from .groups import _CHUNK, AbelianGroup, DifamError, Element


class LiftingError(DifamError):
    def __init__(self, message: str, nodes: int = 0, deepest: int = 0):
        super().__init__(message)
        self.nodes = nodes
        self.deepest = deepest


@dataclass(eq=False)  # an array field has no truth value: equality is identity
class PsiAssignment:
    """Map (block h, position i, position j) -> residue in Z_lambda, as the
    (s, k, k) int64 array `table`, with -1 on the diagonal i = j.

    For every group element g the restriction to the triples whose block
    difference equals g is a bijection onto Z_lambda, and transposing the
    positions adds lambda/2.
    """

    sdf: StrongDifferenceFamily
    lam: int
    table: np.ndarray


@dataclass(eq=False)  # as PsiAssignment
class Lifting:
    sdf: StrongDifferenceFamily
    field: FiniteField
    # (s, k) int64 additive field codes, row h aligned with block h's sorted codes
    second_coords: np.ndarray
    strategy: str
    nodes: int = 0  # search nodes up to the result (see `_backtrack`), 0 when no search ran
    deepest: int = 0  # deepest search level reached

    def carrier(self) -> ProductCarrier:
        return ProductCarrier(self.sdf.group, self.field)

    def lifted_blocks(self) -> list[GMultiset]:
        coords = _coord_rows(self)
        if coords is None:
            s, k, q = len(self.sdf.blocks), self.sdf.k, self.field.q
            raise LiftingError(f"second coordinates must be an ({s}, {k}) array of codes below {q}")
        # a block's codes run in the order of its sorted elements, as its coordinates do
        blocks = blocks_of(self.carrier(), _sdf_rows(self.sdf) * self.field.q + coords)
        if not all(b.is_set() for b in blocks):
            raise LiftingError("lifted block has repeated pairs")
        return blocks


class MultiplierSet:
    """Nonzero field elements as their sorted distinct additive codes, made
    from codes: zero is refused as a multiplier, a code outside range(q) as
    no element."""

    def __init__(self, field: FiniteField, codes: Sequence[int]):
        self.field = field
        codes = np.asarray(codes)
        if codes.ndim != 1 or codes.size and codes.dtype.kind not in "iu":
            raise FieldError(f"multipliers must be a list of codes of {field}")
        codes = np.sort(codes.astype(np.int64))
        bad = codes[(codes < 0) | (codes >= field.q)]
        if bad.size:
            raise FieldError(f"{bad[0]} is not an element of {field}")
        # np.unique hashes many distinct ints: 0.9 s for the (q-1)/4 codes of q = 4,194,301
        self.codes = codes[np.diff(codes, prepend=-1) != 0]
        if self.codes.size and self.codes[0] == 0:
            raise FamilyError("multipliers must be nonzero")


def _sdf_rows(sdf: StrongDifferenceFamily) -> np.ndarray:
    """The blocks' group codes as one (s, k) array, each row sorted."""
    if any(b.size != sdf.k for b in sdf.blocks):
        raise LiftingError(f"every block must have k={sdf.k} points")
    return stack_rows(sdf.blocks, sdf.k)


def _coord_rows(lifting: Lifting) -> Optional[np.ndarray]:
    """The second coordinates as an (s, k) int64 array of codes below q, or
    None when they are not one code per point of every block."""
    try:
        coords = np.asarray(lifting.second_coords)
    except ValueError:  # ragged rows
        return None
    if coords.shape != (len(lifting.sdf.blocks), lifting.sdf.k) or coords.dtype.kind not in "iu":
        return None
    if coords.size and (coords.min() < 0 or coords.max() >= lifting.field.q):
        return None
    return coords.astype(np.int64)


def _pair_differences(group: AbelianGroup, rows: np.ndarray) -> np.ndarray:
    """(..., k, k): the code of rows[..., i] - rows[..., j]."""
    return group.sub_codes(rows[..., :, None], rows[..., None, :])


def _class_table(field: FiniteField, coords: np.ndarray, lam: int) -> np.ndarray:
    """The one pair-class kernel: for field codes coords, entry (..., i, j)
    is the order-lam cyclotomic class of coords[..., i] - coords[..., j],
    and -1 where that difference is zero, so on the diagonal."""
    logs = field.log[_pair_differences(field.additive_group, np.asarray(coords, np.int64))]
    return np.where(logs < 0, -1, logs % lam)


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
    group, rows = sdf.group, _sdf_rows(sdf)
    s, k = rows.shape
    diffs = _pair_differences(group, rows).tolist()
    # group codes run in element order, so sorting them sorts the elements
    by_g: dict[int, list[tuple[int, int, int]]] = {}
    for h, i, j in itertools.product(range(s), range(k), range(k)):
        if i != j:
            by_g.setdefault(diffs[h][i][j], []).append((h, i, j))
    if any(len(triples) != lam for triples in by_g.values()):
        raise LiftingError("difference lists are not constant; verify the SDF first")
    rng = random.Random(seed)
    half = lam // 2
    table = [[[-1] * k for _ in range(k)] for _ in range(s)]
    for g in sorted(by_g):
        triples = by_g[g]
        if group.sub_codes(0, g) != g:
            if any(table[h][i][j] >= 0 for h, i, j in triples):
                continue  # already filled from the transposes in T_{-g}
            residues = list(range(lam))
            rng.shuffle(residues)
            for (h, i, j), c in zip(triples, residues):
                table[h][i][j] = c
                table[h][j][i] = (c + half) % lam
        else:
            # transposition acts inside T_g itself, without fixed points
            pairs = [(h, i, j) for (h, i, j) in triples if i < j]
            low = list(range(half))
            rng.shuffle(low)
            for (h, i, j), c in zip(pairs, low):
                table[h][i][j] = c
                table[h][j][i] = (c + half) % lam
    return PsiAssignment(sdf, lam, np.array(table, dtype=np.int64).reshape(s, k, k))


def verify_psi(psi: PsiAssignment) -> bool:
    """Independent check of both psi invariants, on the table's shape and
    on the group differences of the block pairs."""
    sdf, lam, table = psi.sdf, psi.lam, np.asarray(psi.table)
    try:
        rows = _sdf_rows(sdf)
    except LiftingError:
        return False
    s, k = rows.shape
    off = ~np.eye(k, dtype=bool)
    if lam < 1 or table.shape != (s, k, k) or table.dtype.kind not in "iu":
        return False
    if np.any(table[:, ~off] != -1) or np.any((table[:, off] < 0) | (table[:, off] >= lam)):
        return False
    if not np.array_equal(table.transpose(0, 2, 1)[:, off], (table[:, off] + lam // 2) % lam):
        return False
    keys = _pair_differences(sdf.group, rows)[:, off] * lam + table[:, off]
    counts = np.bincount(keys.ravel(), minlength=sdf.group.order * lam).reshape(-1, lam)
    return bool(np.all(counts[counts.any(axis=1)] == 1))


def check_lifting(lifting: Lifting, psi: PsiAssignment) -> bool:
    """Do all ordered pairs of every lifted block hit their prescribed class?
    False too when the coordinates are not one field code per point."""
    coords = _coord_rows(lifting)
    return coords is not None and np.array_equal(
        _class_table(lifting.field, coords, psi.lam), psi.table
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

    def tick(self, depth: int, nodes: int = 1) -> None:
        """Count `nodes` nodes, the deepest of them at `depth`.  Past the cap
        the count stops at cap + 1, the node a walk would have raised at."""
        self.nodes += nodes
        if depth > self.deepest:
            self.deepest = depth
        if self.nodes > self.cap:
            self.nodes = self.cap + 1
            raise LiftingError(
                f"search budget exhausted after {self.nodes} nodes "
                f"(deepest level {self.deepest})",
                self.nodes,
                self.deepest,
            )


def _backtrack(
    levels: int,
    first: Sequence[int],
    expand: Callable[[int, list[int]], Optional[Sequence[int]]],
    rng: random.Random,
    tracker: _Budget,
    what: str,
    undo: Optional[Callable[[int, int], None]] = None,
    siblings: int = 0,
) -> list[int]:
    """The one search driver: choose a log code for each of `levels` positions.

    A node at level i holds its options, ascending log codes (`first` at
    level 0), and tries them in the order `rng.shuffle` gives them; a list
    of fewer than two is not shuffled, which draws nothing from the rng.
    For each x it appends x to `chosen` and calls expand(i, chosen), which
    returns None to refuse x, or else records x and returns the options of
    level i+1: a new list, shuffled in place, or an empty sequence.  (At
    the last level its return only has to be other than None.)  So a node's
    options are listed by its parent, and the parent ticks the budget for
    it: a node without options still counts, but costs no call of its own.
    `undo` takes a recorded x back when the branch below it fails.  Raises
    LiftingError if no branch reaches the last level.

    `siblings` is the sibling rule, for searches whose options at each level
    i < siblings all have isomorphic subtrees (`greedy_lift` proves it for
    its levels 0 and 1) and are never refused by expand there.  A failing
    subtree is walked whole, so its node count does not depend on the
    order it is walked in, and an isomorphic one fails with the same count
    and the same deepest level.  So when the first option's subtree at such
    a level fails, so do all the others: the node adds (len(order) - 1)
    times the nodes that subtree ticked and fails without walking them.
    The budget ticks, the deepest level and every error are those of the
    walk: past the cap the count stops at cap + 1, and the deepest level
    is already reached, each sibling's profile being the first's.  Only a
    failed search is cut short, as a success is found in the first subtree
    at every level it goes through, so it draws from the rng and walks
    exactly as with no rule.
    """
    chosen: list[int] = []

    def extend(i: int, order: list[int]) -> bool:
        if len(order) > 1:
            rng.shuffle(order)
        for x in order:
            chosen.append(x)
            below = expand(i, chosen)
            if below is None:
                chosen.pop()
                continue
            if i + 1 == levels:
                return True
            before = tracker.nodes
            tracker.tick(i + 1)
            if below and extend(i + 1, below):
                return True
            chosen.pop()
            if undo is not None:
                undo(i, x)
            if i < siblings:  # every other option's subtree fails with as many nodes
                tracker.tick(i + 1, (len(order) - 1) * (tracker.nodes - before))
                return False
        return False

    if levels:
        tracker.tick(0)
        if not extend(0, list(first)):
            raise LiftingError(
                f"no {what} found ({tracker.nodes} nodes, deepest level {tracker.deepest})",
                tracker.nodes,
                tracker.deepest,
            )
    return chosen


def _lift_blocks(sdf, field, psi, budget, seed, strategy, search, siblings=0) -> Lifting:
    """Run the driver once per block h on search(h), its pair (first,
    expand), sharing one rng and one budget, and re-check the result with
    the pair checker.  `siblings` is `_backtrack`'s sibling rule."""
    rng = random.Random(seed)
    tracker = _Budget(budget)
    add_code = field.class_masks(psi.lam).add_code
    coords = np.array([
        add_code[_backtrack(
            block.size, *search(h), rng, tracker, f"{strategy} lifting for block {h}",
            siblings=siblings)]
        for h, block in enumerate(sdf.blocks)
    ], dtype=np.int64)
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

    The sets are class masks carried down the search: pre[i][t-i], t >= i,
    is the AND of level t's masks over the choices made before level i.
    Choosing x at level i takes one AND for level i+1's mask and stops
    there when it is empty; else one AND per later level fills pre[i+1].

    The search runs with `_backtrack`'s sibling rule at levels 0 and 1, as
    the subtrees of the options there are isomorphic.  Level 0's options
    are all of F_q, and the translation x -> x + t maps the subtree below
    x_0 onto the one below x_0 + t: it keeps every difference, so every
    class, and so every level's options.  Level 1's options are all of
    x_0 + C_j, j = psi(h, 1, 0), since nothing else constrains them.  For
    c in C_0, the index-lambda subgroup, x -> x_0 + c(x - x_0) fixes x_0,
    multiplies every difference by c, so keeps its class, and maps x_0 + C_j
    onto itself; C_0 acts transitively on C_j = r^j C_0, so it maps the
    subtree below any x_1 onto the one below any other.  The zero-sum and
    signed searches have no such rule: a translate changes a block's sum,
    and the signed levels share one table of used keys across blocks.
    """
    _require_congruence(field, psi.lam)
    masks = field.class_masks(psi.lam)
    lam, cached, build, ascending = masks.lam, masks.masks.get, masks.mask, masks.ascending
    levels = psi.table.shape[1]
    # later[h][i]: the classes of (h, t, i) for t > i, the constraints x at level i puts on level t
    later = [[row[i + 1 :, i].tolist() for i in range(levels)] for row in psi.table]

    def search(h: int):
        pre: list[list[int]] = [[-1] * levels] + [[]] * (levels - 1)
        classes = later[h]

        def expand(i: int, chosen: list[int]) -> Sequence[int]:
            if i + 1 == levels:
                return ()
            x, above, gs = chosen[-1], pre[i], classes[i]
            key = x * lam
            m = above[1] & (cached(key + gs[0]) or build(x, gs[0]))
            if not m:
                return ()
            pre[i + 1] = [m] + [
                a & (cached(key + g) or build(x, g)) for a, g in zip(above[2:], gs[1:])
            ]
            return ascending(m)

        return range(field.q), expand

    return _lift_blocks(sdf, field, psi, budget, seed, "greedy", search, siblings=2)


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
    doubled constraint set X' at k-1, and a forced final element.  The
    points are summed and scaled as coefficient vectors over GF(p), since
    2 and 3 lie in the prime field.
    """
    lam = psi.lam
    _require_congruence(field, lam)
    k, p, group = sdf.k, field.p, field.additive_group
    if k == 3:
        raise LiftingError("k=3 is excluded from the zero-sum lifting")
    if k % p != 0:
        raise LiftingError(
            f"rad(q)={p} must divide k={k}; use greedy_lift + zero_sum_adjust instead"
        )
    if p == 2:
        raise LiftingError("the zero-sum lifting divides by 2: characteristic 2 is excluded")
    masks = field.class_masks(lam)
    meet, add_code, rows = masks.meet, masks.add_code, psi.table.tolist()
    half, inv2 = lam // 2, pow(2, -1, p)
    alpha = int(field.log[group.encode((-2 % p,) + (0,) * (field.n - 1))]) % lam  # of -2

    def log_codes(vectors: np.ndarray) -> list[int]:
        """The log codes of coefficient vectors (m, n), reduced mod p."""
        return (field.log[group.encode_array(vectors % p)] + 1).tolist()

    def options(h: int, i: int, chosen: list[int]) -> list[int]:
        # 0-based position i corresponds to the (i+1)-th chosen element
        points = group.decode_array(add_code[chosen]).reshape(i, field.n)

        def sigma(upto: int) -> np.ndarray:
            return points[:upto].sum(axis=0)

        if i == k - 1:
            forced = int(group.encode_array(-sigma(k - 1) % p))
            block = np.append(add_code[chosen], forced)
            lifts = np.array_equal(_class_table(field, block, lam), psi.table[h])
            return [int(field.log[forced]) + 1] if lifts else []
        cons = list(zip(chosen, rows[h][i]))
        if i == k - 2:  # the doubled constraint set X'
            s = sigma(k - 2)
            centres = np.vstack((-(s + points), -s * inv2))  # -(s + x_j), then -s/2
            classes = [(c + half) % lam for c in rows[h][k - 1][: k - 2]]
            classes.append((rows[h][k - 1][k - 2] - alpha) % lam)
            cons += zip(log_codes(centres), classes)
            if len({c for c, _ in cons}) != len(cons):
                # the earlier exclusions should make this unreachable;
                # treat it as a dead branch rather than aborting
                return []
        base, banned = meet(cons), []
        if i == k - 4 and p == 3:
            banned.append(-sigma(k - 4))
        if i == k - 3:
            s3 = sigma(k - 3)
            a, b = np.triu_indices(k - 3)
            banned += list(-(s3 + points[a] + points[b]))
            y2 = -(s3 + points)
            banned += list(y2) + list(y2 * inv2)
            if p != 3:
                banned.append(-s3 * pow(3, -1, p))
        if banned:
            banned = set(log_codes(np.array(banned)))
            base = [x for x in base if x not in banned]
        return base

    def search(h: int):
        def expand(i: int, chosen: list[int]) -> Sequence[int]:
            return options(h, i + 1, chosen) if i + 1 < k else ()

        return options(h, 0, []), expand

    lifting = _lift_blocks(sdf, field, psi, budget, seed, "zero-sum", search)
    if not group.zero_sum_rows(lifting.second_coords).all():
        raise LiftingError("zero-sum lifting produced a non-zero-sum block")
    return lifting


# -- signed (plus/minus) liftings ----------------------------------------


def _signed_shape(block: GMultiset) -> list[int]:
    """The codes of the set A for a block of shape {0} u 2*A, ascending;
    raises if the shape is wrong."""
    a = []
    for c, m in zip(*(x.tolist() for x in np.unique(block.codes, return_counts=True))):
        if c == 0:  # the code of zero
            if m != 1:
                raise LiftingError(f"zero must appear exactly once, has multiplicity {m}")
        elif m == 2:
            a.append(c)
        else:
            e = block.carrier.decode(c)
            raise LiftingError(f"element {e} has multiplicity {m}, expected 2")
    if 2 * len(a) + 1 != block.size:
        raise LiftingError("block is not of the shape {0} u 2*A")
    return a


def _signed_coords(block: GMultiset, field: FiniteField, assign: dict) -> list[int]:
    """Second coordinates aligned with the block's sorted codes for a signed
    assignment, a map from the codes of A to field codes: the sorted block
    is zero, then each a of A twice, which get y and -y."""
    a_set = _signed_shape(block)
    if set(assign) != set(a_set):
        raise LiftingError("assignment does not match the block's half set")
    if not all(isinstance(y, (int, np.integer)) and 0 <= y < field.q for y in assign.values()):
        raise LiftingError(f"assignment values must be codes of elements of {field}")
    ys = [0]
    for a in a_set:
        ys += [int(assign[a]), field.additive_group.sub_codes(0, int(assign[a]))]
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
    list is a transversal of the cyclotomic classes of order half_lambda,
    so every (g, class) is hit exactly twice by the full lists.
    """
    _require_half_lambda(field, half_lambda)
    group = sdf.group
    counts = np.zeros(group.order * half_lambda, dtype=np.int64)
    for block, assign in zip(sdf.blocks, assign_per_block):
        classes = _class_table(field, _signed_coords(block, field, assign), half_lambda)
        off = ~np.eye(block.size, dtype=bool)
        if np.any(classes[off] < 0):
            return False
        keys = _pair_differences(group, block.codes)[off] * half_lambda + classes[off]
        counts += np.bincount(keys, minlength=counts.size)
    return len(assign_per_block) == len(sdf.blocks) and bool(np.all(counts == 2))


def signed_lift(
    sdf: StrongDifferenceFamily,
    field: FiniteField,
    half_lambda: int,
    budget: int = 10**7,
    seed: int = 0,
) -> Lifting:
    """Symmetric lifting (x, +-y) for SDFs whose blocks are {0} u 2*A.

    Zero-sum is automatic; success means every half difference list is a
    transversal of the order-half_lambda cyclotomic classes.  The variable
    (h, a) set to y adds the keys g_code * half_lambda + class of its half
    list: 2y at g = 0, y at +-a, and y - z, y + z at +-(a - b) for each
    earlier (b, z) of block h.  As -1 lies in C^half_lambda, the full lists
    hit each key twice or not at all, so one boolean table `used` decides:
    y fits when none of those differences is zero and its keys are
    distinct and unused.  Each level keeps only one fit byte per candidate,
    filled _CHUNK log codes at a time on first use and cleared when the
    level above commits; the committed y's keys are recomputed and marked
    used, and unmarked when the branch below it fails.
    """
    if field.q % 2 == 0:
        raise LiftingError("signed liftings need an odd-order field")
    if sdf.lam != 2 * half_lambda:
        raise LiftingError(
            f"SDF lambda={sdf.lam} must equal 2*half_lambda={2 * half_lambda}"
        )
    _require_half_lambda(field, half_lambda)
    gsub, fsub, log = sdf.group.sub_codes, field.additive_group.sub_codes, field.log
    shapes = [_signed_shape(b) for b in sdf.blocks]
    variables = [(h, a) for h, a_set in enumerate(shapes) for a in a_set]
    levels, half = len(variables), (field.q - 1) // 2
    # log codes of exp[0..(q-3)/2]: one per {y, -y} pair, both give the same lifted block
    half_field = range(1, half + 1)
    used = np.zeros(sdf.group.order * half_lambda, dtype=bool)
    # fit[i][x - 1] is 1 when log code x fits level i, -1 when not, 0 until its window is filled
    table = np.zeros((levels, half), dtype=np.int8)
    fit = [memoryview(row) for row in table]
    assigns: list[dict] = [{} for _ in sdf.blocks]
    marked: list[np.ndarray] = []  # the keys each committed level marked used

    def keys(idx: int, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each field code y's sorted half-list keys as variable idx, and whether y fits."""
        h, a = variables[idx]
        b, z = (np.array(list(c), dtype=np.int64) for c in (assigns[h], assigns[h].values()))
        y = ys.astype(np.int64)[:, None]
        logs = log[np.hstack((fsub(y, fsub(0, y)), y, fsub(y, z), fsub(y, fsub(0, z))))]
        classes = logs % half_lambda
        # 2y has its key at 0, the others at +-g: g = a, then a - b twice
        g, pair = np.concatenate(([a], gsub(a, b), gsub(a, b))), classes[:, 1:]
        out = np.hstack((classes[:, :1], g * half_lambda + pair, gsub(0, g) * half_lambda + pair))
        out.sort(axis=1)
        ok = (logs >= 0).all(axis=1) & (np.diff(out, axis=1) != 0).all(axis=1)
        return out, ok & ~used[out].any(axis=1)

    def expand(idx: int, chosen: list[int]) -> Optional[Sequence[int]]:
        x = chosen[-1] - 1
        if not fit[idx][x]:
            lo = x - x % _CHUNK
            ok = keys(idx, field.exp[lo : min(lo + _CHUNK, half)])[1]
            table[idx, lo : lo + _CHUNK] = np.where(ok, 1, -1)
        if fit[idx][x] < 0:
            return None
        h, a = variables[idx]
        y = field.exp[x : x + 1]
        marked.append(keys(idx, y)[0][0])
        used[marked[-1]] = True
        assigns[h][a] = int(y[0])
        if idx + 1 == levels:
            return ()
        table[idx + 1] = 0
        return list(half_field)

    def undo(idx: int, x: int) -> None:
        h, a = variables[idx]
        del assigns[h][a]
        used[marked.pop()] = False

    tracker = _Budget(budget)
    _backtrack(levels, half_field, expand, random.Random(seed), tracker, "signed lifting", undo)
    if not verify_signed_lifting(sdf, field, assigns, half_lambda):
        raise LiftingError("search produced a lifting that fails the transversal checker")
    lifting = signed_lifting_from_assignments(sdf, field, assigns)
    lifting.nodes, lifting.deepest = tracker.nodes, tracker.deepest
    return lifting


def signed_lifting_from_assignments(
    sdf: StrongDifferenceFamily, field: FiniteField, assign_per_block: Sequence[dict]
) -> Lifting:
    """Wrap externally chosen plus/minus assignments (codes of A to field
    codes, one map per block) as a Lifting."""
    if len(assign_per_block) != len(sdf.blocks):
        raise LiftingError(f"need one assignment per block, got {len(assign_per_block)}")
    _sdf_rows(sdf)  # one k for every block
    coords = [_signed_coords(b, field, a) for b, a in zip(sdf.blocks, assign_per_block)]
    return Lifting(sdf, field, np.array(coords, dtype=np.int64).reshape(-1, sdf.k), "signed")


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


def _default_zero_sum_subset(field: FiniteField, k: int) -> np.ndarray:
    """The codes of the lexicographically first zero-sum k-subset of the field.

    Walking (k-1)-heads in lexicographic order, the first whose completion
    by minus its sum is a new element gives it, head first.  For q > 2 the
    whole field sums to zero, so a set is zero-sum iff its complement is,
    and taking complements reverses lexicographic order: when q-k < k it is
    the complement, ascending, of the last zero-sum (q-k)-subset, found
    walking backwards.  Codes run in element order.
    """
    group = field.additive_group
    if field.q > 2 and field.q - k < k:
        for idx in _combinations_descending(field.q, field.q - k):
            if group.sum_codes(idx) == 0:
                return np.setdiff1d(np.arange(field.q), idx)
    else:
        for head in itertools.combinations(range(field.q), k - 1):
            last = int(group.sub_codes(0, group.sum_codes(head)))
            if last not in head:
                return np.array(head + (last,))
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
        ys = fld.exp[: (k - 1) // 2].tolist()
        lifting = signed_lifting_from_assignments(
            sdf, fld, [dict(zip(a_set, ys)) for a_set in shapes]
        )
        lifted = [b.codes for b in lifting.lifted_blocks()]
        logs = np.arange((fld.q - 1) // 2)
        lam_out = sdf.lam // 2
    else:
        x = _default_zero_sum_subset(fld, k)
        lifted = [block.codes * fld.q + x for block in sdf.blocks]
        logs = np.arange(fld.q - 1)
        lam_out = sdf.lam

    blocks = _multiply_out(carrier, lifted, logs)
    return RelativeDifferenceFamily(carrier, carrier.forbidden_subgroup(), k, lam_out, blocks)
