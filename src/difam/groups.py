"""Finite abelian groups presented as direct products of cyclic groups.

Elements are plain tuples of residues, one per cyclic factor, which keeps
them hashable and lexicographically ordered for free.  Two groups with the
same factor list compare equal; no canonicalization to invariant factors is
attempted, so isomorphic groups with different presentations are distinct
values on purpose.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

Element = tuple[int, ...]


class GroupError(ValueError):
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

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianGroup) and self.cyclic_orders == other.cyclic_orders

    def __hash__(self) -> int:
        return hash(self.cyclic_orders)

    def __repr__(self) -> str:
        return f"AbelianGroup{self.cyclic_orders}"

    # -- element arithmetic ------------------------------------------------

    @property
    def zero(self) -> Element:
        return (0,) * self.rank

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

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.cyclic_orders))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % n for x, y, n in zip(a, b, self.cyclic_orders))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.cyclic_orders))

    def smul(self, m: int, a: Element) -> Element:
        return tuple((m * x) % n for x, n in zip(a, self.cyclic_orders))

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


class Subgroup:
    """A verified subgroup, stored as a sorted element tuple."""

    def __init__(self, parent: AbelianGroup, elements: Iterable[Element], *, verify: bool = True):
        self.parent = parent
        self.elements = tuple(sorted(set(elements)))
        if verify:
            self._verify()
        self.order = len(self.elements)

    def _verify(self) -> None:
        elems = set(self.elements)
        if self.parent.zero not in elems:
            raise GroupError("subgroup must contain the identity")
        for g in elems:
            self.parent.check(g)
            if self.parent.neg(g) not in elems:
                raise GroupError(f"subgroup not closed under negation at {g}")
        for g in elems:
            for h in elems:
                if self.parent.add(g, h) not in elems:
                    raise GroupError(f"subgroup not closed under addition at {g}+{h}")

    def __contains__(self, g: Element) -> bool:
        return g in set(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.elements))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent})"


def generated_subgroup(group: AbelianGroup, generators: Iterable[Element]) -> Subgroup:
    """Smallest subgroup containing the generators."""
    gens = [group.check(g) for g in generators]
    elems = {group.zero}
    frontier = [group.zero]
    while frontier:
        e = frontier.pop()
        for g in gens:
            nxt = group.add(e, g)
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return Subgroup(group, elems, verify=False)


def sum_of(group: AbelianGroup, elems) -> Element:
    """Sum of a multiset (or iterable) of elements; empty sum is the identity.

    Accepts anything iterating over (element, multiplicity) pairs via an
    ``items()`` method, e.g. a GMultiset or Counter, or a plain iterable of
    elements.
    """
    total = group.zero
    if hasattr(elems, "items"):
        pairs = elems.items()
    else:
        pairs = ((e, 1) for e in elems)
    for g, mult in pairs:
        group.check(g)
        total = group.add(total, group.smul(mult, g))
    return total


def involution_subgroup(group: AbelianGroup) -> Subgroup:
    """I(G) = {g : 2g = 0}, the involutions together with zero."""
    elems = [g for g in group.elements() if group.add(g, g) == group.zero]
    return Subgroup(group, elems, verify=False)


def is_binary(group: AbelianGroup) -> bool:
    """True when the group has exactly one involution."""
    return involution_subgroup(group).order == 2


def is_zero_sum_group(group: AbelianGroup) -> bool:
    """True iff all elements of the group sum to the identity."""
    return sum_of(group, group.elements()) == group.zero


def element_order(group: AbelianGroup, g: Element) -> int:
    """Least m >= 1 with m*g = 0; the lcm of the coordinate orders."""
    group.check(g)
    result = 1
    for c, n in zip(g, group.cyclic_orders):
        result = math.lcm(result, n // math.gcd(c, n))
    return result


def cosets(sub: Subgroup) -> list[list[Element]]:
    """Partition of the parent into cosets, sorted by minimal representative."""
    group = sub.parent
    seen: set[Element] = set()
    out: list[list[Element]] = []
    for g in group.elements():
        if g in seen:
            continue
        coset = sorted(group.add(g, h) for h in sub.elements)
        seen.update(coset)
        out.append(coset)
    out.sort(key=lambda c: c[0])
    return out


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    if n <= 0:
        raise ValueError(f"radical needs n >= 1, got {n}")
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result *= p
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        result *= m
    return result
