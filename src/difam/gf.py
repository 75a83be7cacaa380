"""Finite fields GF(p^n) with discrete-log tables and cyclotomic queries.

Elements are tuples of n coefficients (ascending powers) over Z_p, so the
additive group of a field is literally an AbelianGroup of type (p,...,p)
and field elements can live inside the same multisets and difference lists
as group elements.

The multiplicative structure is carried by exp/log tables built from a
primitive modulus: exp[i] is the i-th power of the class of x.  Building
the table doubles as the primitivity check, since the class of x generates
all q-1 nonzero elements exactly when the modulus is primitive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from sympy import isprime

from .groups import AbelianGroup

Element = tuple[int, ...]

MAX_FIELD_ORDER = 2**22


class FieldError(ValueError):
    pass


@dataclass(frozen=True)
class CyclotomicClassIndex:
    """Index i of the cyclotomic class C^lambda_i = r^i * C^lambda."""

    lam: int
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", self.index % self.lam)

    def __add__(self, other: "CyclotomicClassIndex") -> "CyclotomicClassIndex":
        if other.lam != self.lam:
            raise FieldError("cannot add class indices of different orders")
        return CyclotomicClassIndex(self.lam, self.index + other.index)


def _poly_mul_mod(a: Element, b: Element, modulus: Sequence[int], p: int) -> Element:
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^n = -(modulus[:-1]) since modulus is monic
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(n):
                prod[d - n + j] = (prod[d - n + j] - c * modulus[j]) % p
    return tuple(prod[:n])


class FiniteField:
    """GF(p^n) with a verified-primitive modulus and full exp/log tables."""

    def __init__(self, p: int, n: int, modulus: Optional[Sequence[int]] = None):
        p, n = int(p), int(n)
        if not isprime(p):
            raise FieldError(f"{p} is not prime")
        if n < 1:
            raise FieldError(f"degree must be >= 1, got {n}")
        q = p**n
        if q > MAX_FIELD_ORDER:
            raise FieldError(f"field order {q} exceeds the supported cap {MAX_FIELD_ORDER}")
        self.p, self.n, self.q = p, n, q
        if modulus is not None:
            modulus = tuple(int(c) % p for c in modulus[:-1]) + (int(modulus[-1]),)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise FieldError(f"modulus must be monic of degree {n}: {modulus}")
            tables = _build_tables(modulus, p, n)
            if tables is None:
                raise FieldError(f"modulus {modulus} is not primitive over GF({p})")
        else:
            modulus, tables = _find_primitive_modulus(p, n)
        self.modulus = modulus
        self.exp, self.log = tables
        self.zero: Element = (0,) * n
        self.one: Element = self.exp[0]
        self.root: Element = self.exp[1 % (q - 1)]
        self.additive_group = AbelianGroup((p,) * n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.n}, modulus={','.join(map(str, self.modulus))})"

    # -- element helpers ---------------------------------------------------

    def elements(self) -> Iterator[Element]:
        return itertools.product(*(range(self.p) for _ in range(self.n)))

    def from_int(self, c: int) -> Element:
        return (c % self.p,) + (0,) * (self.n - 1)

    def check(self, x: Element) -> Element:
        if not (isinstance(x, tuple) and len(x) == self.n and all(0 <= c < self.p for c in x)):
            raise FieldError(f"{x!r} is not an element of {self}")
        return x

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % self.p for x in a)

    def mul(self, a: Element, b: Element) -> Element:
        if a == self.zero or b == self.zero:
            return self.zero
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: Element) -> Element:
        if a == self.zero:
            raise FieldError("division by zero")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def div(self, a: Element, b: Element) -> Element:
        return self.mul(a, self.inv(b))

    def div_int(self, a: Element, m: int) -> Element:
        """a / m for an integer scalar m, m not divisible by p."""
        scalar = self.from_int(m)
        if scalar == self.zero:
            raise FieldError(f"{m} is zero in characteristic {self.p}")
        return self.div(a, scalar)

    def pow_root(self, i: int) -> Element:
        return self.exp[i % (self.q - 1)]


def _build_tables(modulus, p, n):
    """exp/log tables for the class of x; None when x does not have order q-1."""
    q = p**n
    one = (1,) + (0,) * (n - 1)
    x = ((0, 1) + (0,) * (n - 2)) if n > 1 else ((-modulus[0]) % p,)
    exp = [one]
    cur = one
    for i in range(1, q - 1):
        cur = _poly_mul_mod(cur, x, modulus, p) if n > 1 else ((cur[0] * x[0]) % p,)
        if cur == one or all(c == 0 for c in cur):
            return None
        exp.append(cur)
    closing = _poly_mul_mod(cur, x, modulus, p) if n > 1 else ((cur[0] * x[0]) % p,)
    if closing != one:
        return None
    return exp, {e: i for i, e in enumerate(exp)}


def _find_primitive_modulus(p, n):
    # least primitive monic polynomial, comparing leading coefficients first
    for high in itertools.product(range(p), repeat=n - 1) if n > 1 else [()]:
        for c0 in range(p):
            modulus = (c0,) + tuple(reversed(high)) + (1,)
            tables = _build_tables(modulus, p, n)
            if tables is not None:
                return modulus, tables
    raise FieldError(f"no primitive polynomial of degree {n} over GF({p})")  # unreachable


def parse_modulus(text: str) -> tuple[int, ...]:
    """Comma-separated ascending coefficients, e.g. '2,1,1' for x^2+x+2."""
    try:
        return tuple(int(t) for t in text.strip().split(","))
    except ValueError as exc:
        raise FieldError(f"bad modulus text {text!r}") from exc


def render_modulus(modulus: Sequence[int]) -> str:
    return ",".join(str(c) for c in modulus)


def class_index(field: FiniteField, x: Element, lam: int) -> CyclotomicClassIndex:
    """Which cyclotomic class of order lam contains x."""
    if x == field.zero:
        raise FieldError("zero lies in no cyclotomic class")
    if (field.q - 1) % lam != 0:
        raise FieldError(f"{lam} does not divide q-1 = {field.q - 1}")
    return CyclotomicClassIndex(lam, field.log[x] % lam)


def cyclotomic_class(field: FiniteField, lam: int, index: int) -> list[Element]:
    """The elements of C^lam_index, in increasing log order."""
    if (field.q - 1) % lam != 0:
        raise FieldError(f"{lam} does not divide q-1 = {field.q - 1}")
    return [field.exp[i] for i in range(index % lam, field.q - 1, lam)]


def nonzero_squares(field: FiniteField) -> list[Element]:
    """The (q-1)/2 elements with even log, sorted; q must be odd."""
    if field.p == 2:
        raise FieldError("squares of an even-order field are the whole field")
    return sorted(field.exp[i] for i in range(0, field.q - 1, 2))


def x_set(
    field: FiniteField,
    constraints: Sequence[tuple[Element, int | CyclotomicClassIndex]],
    lam: int,
) -> list[Element]:
    """All x with x - c_i in the prescribed class for every constraint (c_i, gamma_i).

    Exhaustive over the field; the first constraint only restricts the scan
    to a single translated cyclotomic class.
    """
    if (field.q - 1) % lam != 0:
        raise FieldError(f"{lam} does not divide q-1 = {field.q - 1}")
    pairs = []
    for c, gamma in constraints:
        field.check(c)
        idx = gamma.index if isinstance(gamma, CyclotomicClassIndex) else gamma % lam
        pairs.append((c, idx))
    points = [c for c, _ in pairs]
    if len(set(points)) != len(points):
        raise FieldError("constraint points must be pairwise distinct")
    if not pairs:
        return sorted(field.elements())
    c0, g0 = pairs[0]
    out = []
    for z in cyclotomic_class(field, lam, g0):
        x = field.add(c0, z)
        ok = True
        for c, g in pairs[1:]:
            d = field.sub(x, c)
            if d == field.zero or field.log[d] % lam != g:
                ok = False
                break
        if ok:
            out.append(x)
    return sorted(out)


def coset_reps(field: FiniteField, spec: tuple[str, int]) -> list[Element]:
    """Representatives, one per coset, least log index first in each coset.

    spec forms:
      ("index", m)       -- cosets of the index-m subgroup C^m of F_q^*
      ("pm1-in-index", m) -- cosets of {1,-1} inside C^m (needs -1 in C^m)
    """
    kind, m = spec
    if (field.q - 1) % m != 0:
        raise FieldError(f"{m} does not divide q-1 = {field.q - 1}")
    if kind == "index":
        return [field.exp[i] for i in range(m)]
    if kind == "pm1-in-index":
        half = (field.q - 1) // 2
        if field.p == 2 or half % m != 0:
            raise FieldError(f"-1 does not lie in the index-{m} subgroup")
        count = (field.q - 1) // (2 * m)
        return [field.exp[m * j] for j in range(count)]
    raise FieldError(f"unknown coset spec kind {kind!r}")


def subfield_embed(field: FiniteField, base: FiniteField) -> dict[Element, Element]:
    """Ring-homomorphic embedding of GF(p^n) into GF(p^{nm}) as a dict.

    The image is {0} together with the elements whose log is a multiple of
    (p^{nm}-1)/(p^n-1).
    """
    if base.p != field.p:
        raise FieldError("characteristic mismatch")
    if field.n % base.n != 0:
        raise FieldError(f"GF({base.p}^{base.n}) is not a subfield of GF({field.p}^{field.n})")
    d = (field.q - 1) // (base.q - 1)
    # root of the base modulus inside the big field, least log
    y = None
    for i in range(0, field.q - 1, d):
        cand = field.exp[i]
        acc = field.zero
        power = field.one
        for c in base.modulus[:-1]:
            acc = field.add(acc, field.mul(field.from_int(c), power))
            power = field.mul(power, cand)
        acc = field.add(acc, power)  # monic leading term
        if acc == field.zero:
            y = cand
            break
    if y is None:
        raise FieldError("base modulus has no root in the extension")  # unreachable
    embed = {}
    for e in base.elements():
        acc = field.zero
        power = field.one
        for c in e:
            acc = field.add(acc, field.mul(field.from_int(c), power))
            power = field.mul(power, y)
        embed[e] = acc
    return embed
