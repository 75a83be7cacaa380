"""A reference calculus for finite abelian groups on residue tuples.

Sums, negatives and differences are taken residue by residue, and a
subgroup's closure by a walk over tuples, with nothing from the package's
code kernels (`sub_codes`, `sum_codes`, `zero_sum_rows`, the subgroup span),
so the oracles built on it check those kernels rather than repeat them.
`tests/gf_reference.py` is its counterpart for field arithmetic.
"""


class RefGroup:
    """Z_{n_1} x ... x Z_{n_t} on residue tuples."""

    def __init__(self, orders):
        self.orders = tuple(orders)
        self.zero = (0,) * len(self.orders)

    def add(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def neg(self, a):
        return tuple(-x % n for x, n in zip(a, self.orders))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def sum(self, elems):
        """The sum of the elements, repeats counted; the empty sum is zero."""
        total = self.zero
        for e in elems:
            total = self.add(total, tuple(e))
        return total

    def closure(self, elems) -> set:
        """The smallest subgroup holding the elements, walked out from zero."""
        gens = {tuple(e) for e in elems}
        seen, frontier = {self.zero}, [self.zero]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.add(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen


def ref(group) -> RefGroup:
    """The reference calculus on a package group's cyclic factors."""
    return RefGroup(group.cyclic_orders)
