"""A reference greedy lifting for the tests: the search driver as it was
before options were listed by the parent node, kept verbatim.

Every level is one recursive `extend` call: it ticks the budget, asks
options(i, chosen) for its candidates (the AND of every earlier level's
class masks, through `ClassMasks.meet`), and shuffles them, so each node,
an optionless one too, costs a call and a shuffle.  `greedy_lift` must
match it in coordinates, node counts, depth and failure messages.
"""

import random
from typing import Callable, Optional, Sequence

import numpy as np

from difam.lifting import LiftingError, _Budget


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
