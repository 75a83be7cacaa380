"""Product carriers G x F_q, flattened to a single abelian group.

An element of G x F_q has the group's residues followed by the field
coefficients, so all additive machinery (differences, coverage, subgroups,
development) works unchanged.  Its int code is group_code * q + field_code,
so the lifting code reaches the field part of a code row by `% q` and the
multiplicative structure through the field's exp/log tables; `split`
serves the tuple edges.
"""

from __future__ import annotations

import numpy as np

from .gf import FiniteField
from .groups import AbelianGroup, Element, Subgroup


class ProductCarrier(AbelianGroup):
    """The additive group of G x F_q with access to both factors."""

    def __init__(self, group: AbelianGroup, field: FiniteField):
        super().__init__(group.cyclic_orders + field.additive_group.cyclic_orders)
        self.group = group
        self.field = field
        self._split_at = group.rank

    @property
    def _key(self) -> tuple:
        # the orders fix the split and p, the modulus fixes n and the field
        return self.cyclic_orders, self.field.modulus

    def __repr__(self) -> str:
        return f"ProductCarrier({self.group} x {self.field})"

    def split(self, e: Element) -> tuple[Element, Element]:
        return e[: self._split_at], e[self._split_at :]

    def forbidden_subgroup(self) -> Subgroup:
        """The subgroup G x {0}: the codes that are multiples of q."""
        return Subgroup(self, np.arange(0, self.order, self.field.q))
