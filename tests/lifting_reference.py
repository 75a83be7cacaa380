"""Reference searches for the tests, kept verbatim from earlier versions.

The greedy lifting runs on the search driver as it was before options were
listed by the parent node.  Every level is one recursive `extend` call: it
ticks the budget, asks options(i, chosen) for its candidates (the AND of
every earlier level's class masks, through `ClassMasks.meet`), and shuffles
them, so each node, an optionless one too, costs a call and a shuffle.
`greedy_lift` must match it in coordinates, node counts, depth and failure
messages.

The signed lifting walks each candidate in Python: it lists the keys of
the candidate's differences, tallies them in a `Counter` and compares the
tally with a global count map.  It runs on the package's driver,
`difam.lifting._backtrack`.  `signed_lift` must match it in coordinates,
node counts, depth and failure messages.
"""

import random
from collections import Counter
from typing import Callable, Optional, Sequence

import numpy as np

from difam import lifting
from difam.lifting import (
    Lifting,
    LiftingError,
    _Budget,
    _require_half_lambda,
    _signed_shape,
    signed_lifting_from_assignments,
    verify_signed_lifting,
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


def greedy_lift(sdf, field, psi, budget: int = 10**7, seed: int = 0):
    """(coords, nodes, deepest) of the greedy search, one driver run per
    block sharing one rng and one budget; raises the driver's LiftingError."""
    rng = random.Random(seed)
    tracker = _Budget(budget)
    masks = field.class_masks(psi.lam)
    meet, rows = masks.meet, psi.table.tolist()
    coords = [
        masks.add_code[_backtrack(
            block.size, lambda i, chosen: meet(list(zip(chosen, rows[h][i]))), rng, tracker,
            f"greedy lifting for block {h}")].tolist()
        for h, block in enumerate(sdf.blocks)
    ]
    return np.array(coords, dtype=np.int64), tracker.nodes, tracker.deepest


def signed_lift(sdf, field, half_lambda: int, budget: int = 10**7, seed: int = 0) -> Lifting:
    """Symmetric lifting (x, +-y) for SDFs whose blocks are {0} u 2*A.

    Zero-sum is automatic; success means every half difference list is a
    transversal of the order-half_lambda cyclotomic classes, tracked as a
    global count map of int keys g_code * half_lambda + class (each hit
    exactly twice by the symmetric full lists).
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
    # log codes of exp[0..(q-3)/2]: one per {y, -y} pair, both give the same lifted block
    half_field = range(1, (field.q - 1) // 2 + 1)

    counts: Counter = Counter()
    tallies: list[Counter] = []
    assigns: list[dict] = [{} for _ in sdf.blocks]

    def new_diffs(h: int, a: int, y: int) -> list[int]:
        """Keys of the ordered differences contributed by the pair (a, +-y):
        each comes out twice per key because -1 lies in C^half_lambda."""
        out = []

        def add2(g: int, d: int) -> bool:
            c = int(log[d])
            if c < 0:  # a zero difference
                return False
            key = g * half_lambda + c % half_lambda
            out.append(key)
            out.append(key)
            return True

        neg_a = gsub(0, a)
        ok = add2(0, fsub(y, fsub(0, y)))  # (a,y) vs (a,-y), both orders
        ok = ok and add2(a, y) and add2(neg_a, y)  # vs the (0, 0) point
        for b, z in assigns[h].items():
            g = gsub(a, b)
            neg_g = gsub(0, g)
            for d in (fsub(y, z), fsub(y, fsub(0, z))):
                ok = ok and add2(g, d) and add2(neg_g, d)
            if not ok:
                break
        return out if ok else []

    def commit(idx: int, y: int) -> bool:
        h, a = variables[idx]
        y = int(field.exp[y - 1])
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
    lifting._backtrack(
        len(variables), half_field,
        lambda idx, chosen: list(half_field) if commit(idx, chosen[-1]) else None,
        rng=random.Random(seed), tracker=tracker, what="signed lifting", undo=undo,
    )
    if not verify_signed_lifting(sdf, field, assigns, half_lambda):
        raise LiftingError("search produced a lifting that fails the transversal checker")
    result = signed_lifting_from_assignments(sdf, field, assigns)
    result.nodes, result.deepest = tracker.nodes, tracker.deepest
    return result
