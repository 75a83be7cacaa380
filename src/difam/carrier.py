"""Product carriers G x F_q, flattened to a single abelian group.

An element of G x F_q is stored as one flat residue tuple: the group
coordinates followed by the field coefficients.  All additive machinery
(differences, coverage, subgroups, development) then works unchanged; the
lifting code uses split/join to reach the multiplicative structure of the
field part.
"""

from __future__ import annotations

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

    def join(self, g: Element, x: Element) -> Element:
        return tuple(g) + tuple(x)

    def split(self, e: Element) -> tuple[Element, Element]:
        return e[: self._split_at], e[self._split_at :]

    def group_part(self, e: Element) -> Element:
        return e[: self._split_at]

    def field_part(self, e: Element) -> Element:
        return e[self._split_at :]

    def scale_field(self, e: Element, m: Element) -> Element:
        """Multiply the field coordinate by m, leaving the group part alone."""
        g, x = self.split(e)
        return self.join(g, self.field.mul(x, m))

    def forbidden_subgroup(self) -> Subgroup:
        """The subgroup G x {0}."""
        zero = self.field.zero
        return Subgroup(
            self, [self.join(g, zero) for g in self.group.elements()], verify=False
        )
