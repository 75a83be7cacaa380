"""Finite fields GF(p^n) with discrete-log tables and cyclotomic queries.

A field element is its additive code: the code, under
`additive_group.encode`, of its n coefficients (ascending powers) over Z_p,
so the additive group of a field is literally an AbelianGroup of type
(p,...,p) and its codes are the field part of a G x F_q code row.

The multiplicative structure is carried by two int32 arrays of additive
codes, built from a primitive modulus: exp[i] is the code of r^i, r the
class of x, and log[a] the discrete log of the element with code a (-1 for
zero).  Building exp doubles as the primitivity check, since the class of x
generates all q-1 nonzero elements exactly when the modulus is primitive.

Constraint sets {x : x - c_i in C^lambda_(g_i) for all i} are intersections
of bitmasks over log codes: code 0 is zero and code i+1 is exp[i] = r^i, so
ascending bits are ascending discrete logs, zero first.  Each field keeps
one `ClassMasks` table per lambda: the mask of each translated class
c + C^lambda_g, built on first use from log and cached up to a byte budget.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from .groups import AbelianGroup, DifamError, is_prime

MAX_FIELD_ORDER = 2**22

# bytes of translated-class masks one ClassMasks table keeps; masks past it
# are rebuilt on every use
_MASK_ROW_BYTES = 2**26


class FieldError(DifamError):
    pass


class FiniteField:
    """GF(p^n) with a verified-primitive modulus and full exp/log tables:
    `exp` (q-1 entries) and `log` (q entries, -1 at zero) are int32 arrays
    of additive codes."""

    def __init__(self, p: int, n: int, modulus: Optional[Sequence[int]] = None):
        p, n = int(p), int(n)
        if p <= MAX_FIELD_ORDER and not is_prime(p):  # a larger p fails the cap below
            raise FieldError(f"{p} is not prime")
        if n < 1:
            raise FieldError(f"degree must be >= 1, got {n}")
        # p >= 2, so p**n is formed only for degrees below the cap's bit length
        if p > MAX_FIELD_ORDER or n >= MAX_FIELD_ORDER.bit_length() or p**n > MAX_FIELD_ORDER:
            raise FieldError(f"field order {p}^{n} exceeds the supported cap {MAX_FIELD_ORDER}")
        self.p, self.n, self.q = p, n, p**n
        self.additive_group = AbelianGroup((p,) * n)
        if modulus is not None:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise FieldError(f"modulus must be monic of degree {n}: {modulus}")
            modulus = tuple(c % p for c in modulus[:-1]) + (1,)
            tables = _build_tables(modulus, self.additive_group)
            if tables is None:
                raise FieldError(f"modulus {modulus} is not primitive over GF({p})")
        else:
            modulus, tables = _find_primitive_modulus(self.additive_group)
        self.modulus = modulus
        self.exp, self.log = tables
        self._class_masks: dict[int, ClassMasks] = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.n}, modulus={','.join(map(str, self.modulus))})"

    def class_masks(self, lam: int) -> ClassMasks:
        """The cached constraint-set table of the order-lam classes."""
        _check_order(self, lam)
        table = self._class_masks.get(lam)
        if table is None:
            table = self._class_masks[lam] = ClassMasks(self, lam)
        return table


def _check_order(field: FiniteField, lam: int) -> None:
    """Cyclotomic classes of order lam exist iff lam is a positive divisor of q-1."""
    if lam < 1 or (field.q - 1) % lam != 0:
        raise FieldError(f"{lam} does not divide q-1 = {field.q - 1}")


class ClassMasks:
    """Bitmasks of the translated classes c + C^lam_g of one field, over log
    codes (code 0 is zero, code i+1 is exp[i]).

    `add_code` (int32), `field.exp` with zero prepended, maps log codes to
    additive codes.  `mask(c, g)`, c a log code, has bit y set iff y - c
    lies in C^lam_g.  It is built on first use by digit arithmetic on the
    additive codes and a read of `field.log`, and cached under the key
    c*lam + g while the cached masks fit in _MASK_ROW_BYTES.
    """

    def __init__(self, field: FiniteField, lam: int):
        self.field, self.lam = field, lam
        self.add_code = np.concatenate((np.zeros(1, np.int32), field.exp))
        self.masks: dict[int, int] = {}
        self.mask_bytes = (field.q + 7) // 8
        self.cached_bytes = 0

    def mask(self, c: int, g: int) -> int:
        key = c * self.lam + g
        m = self.masks.get(key)
        if m is not None:
            return m
        diff = self.field.additive_group.sub_codes(self.add_code, self.add_code[c])
        hit = self.field.log[diff] % self.lam == g
        hit[c] = False  # y = c: the difference is zero, in no class
        bits = np.packbits(hit, bitorder="little")
        m = int.from_bytes(bits.tobytes(), "little")
        if self.cached_bytes + self.mask_bytes <= _MASK_ROW_BYTES:
            self.masks[key] = m
            self.cached_bytes += self.mask_bytes
        return m

    def meet(self, pairs: Sequence[tuple[int, int]]) -> list[int]:
        """The ascending log codes x with x - c in C^lam_g for every (c, g)
        in pairs: the AND of their masks, read out by `ascending`.  No pair
        means the whole field.  c must be a log code, g in range(lam)."""
        if not pairs:
            return list(range(self.field.q))
        m = -1
        for c, g in pairs:
            m &= self.masks.get(c * self.lam + g) or self.mask(c, g)
            if not m:
                return []
        return self.ascending(m)

    @staticmethod
    def ascending(m: int) -> list[int]:
        """The set bits of a mask m >= 0, ascending: its log codes, read out
        in time linear in q, or at once when m has one bit."""
        if not m & (m - 1):
            return [m.bit_length() - 1] if m else []
        bits = bin(m)[:1:-1]  # bit y of m at index y
        out = []
        y = bits.find("1")
        while y >= 0:
            out.append(y)
            y = bits.find("1", y + 1)
        return out


def _build_tables(modulus: tuple[int, ...], group: AbelianGroup):
    """exp/log code tables for the class of x modulo `modulus`, `group` the
    additive group; None when x does not have order q-1.  The powers go as
    coefficient rows in blocks of B >= isqrt(q-1): the first by doubling,
    each next one as the last times x^B, one product with an n x n matrix."""
    p, n, q = group.cyclic_orders[0], group.rank, group.order
    if modulus[0] == 0:
        return None  # x divides the modulus, so it is no unit
    # row j of times_x is x^(j+1) reduced, so a @ times_x = a*x; every product
    # sums n terms below p^2, exact in int64 under MAX_FIELD_ORDER
    times_x = np.zeros((n, n), np.int64)
    times_x[:-1, 1:] = np.eye(n - 1, dtype=np.int64)
    times_x[-1] = [-c % p for c in modulus[:-1]]
    block, jump = np.eye(1, n, dtype=np.int64), times_x
    while len(block) * len(block) < q - 1:
        block = np.concatenate((block, block @ jump % p))
        jump = jump @ jump % p
    one = group.encode((1,) + (0,) * (n - 1))
    powers = np.empty(q, np.int32)  # codes of x^0..x^(q-1)
    ones = 0
    for start in range(0, q, len(block)):
        codes = group.encode_array(block[: q - start])
        powers[start : start + len(codes)] = codes
        ones += np.count_nonzero(codes == one)
        if ones > 1 and start + len(codes) < q:
            return None  # x^k = 1 for some 0 < k < q-1
        block = block @ jump % p
    if ones != 2 or powers[-1] != one:  # x^(q-1) must be the first power back at one
        return None
    exp = powers[:-1]
    log = np.full(q, -1, np.int32)
    log[exp] = np.arange(q - 1, dtype=np.int32)
    return exp, log


def _find_primitive_modulus(group: AbelianGroup):
    # least primitive monic polynomial, comparing leading coefficients first
    p, n = group.cyclic_orders[0], group.rank
    for high in itertools.product(range(p), repeat=n - 1) if n > 1 else [()]:
        for c0 in range(p):
            modulus = (c0,) + tuple(reversed(high)) + (1,)
            tables = _build_tables(modulus, group)
            if tables is not None:
                return modulus, tables
    raise FieldError(f"no primitive polynomial of degree {n} over GF({p})")  # unreachable


def parse_modulus(text: str) -> tuple[int, ...]:
    """Comma-separated ascending coefficients, e.g. '2,1,1' for x^2+x+2."""
    try:
        return tuple(int(t) for t in text.strip().split(","))
    except ValueError as exc:
        raise FieldError(f"bad modulus text {text!r}") from exc


def cyclotomic_class(field: FiniteField, lam: int, index: int) -> np.ndarray:
    """The int64 codes of C^lam_index, in increasing log order."""
    _check_order(field, lam)
    return field.exp[index % lam :: lam].astype(np.int64)


def coset_reps(field: FiniteField, m: int) -> np.ndarray:
    """Representatives of the cosets of {1, -1} inside the index-m subgroup
    C^m of F_q^*, which needs -1 in C^m; least log index first in each.
    Returned as int64 codes."""
    _check_order(field, m)
    half = (field.q - 1) // 2
    if field.p == 2 or half % m != 0:
        raise FieldError(f"-1 does not lie in the index-{m} subgroup")
    return field.exp[:half:m].astype(np.int64)


def subfield_embed(field: FiniteField, base: FiniteField) -> np.ndarray:
    """Ring-homomorphic embedding of GF(p^n) into GF(p^{nm}) as a code table:
    entry c is the additive code of the image of the base element with code c.

    The base root r (the class of x) goes to y, the root of the base modulus
    of least log among the elements whose log is a multiple of
    d = (p^{nm}-1)/(p^n-1), so r^i goes to y^i, and zero to zero.
    """
    if base.p != field.p:
        raise FieldError("characteristic mismatch")
    if field.n % base.n != 0:
        raise FieldError(f"GF({base.p}^{base.n}) is not a subfield of GF({field.p}^{field.n})")
    logs = np.arange(0, field.q - 1, (field.q - 1) // (base.q - 1))  # of the candidates y
    value = sum(  # the base modulus at every candidate, coefficient by coefficient
        c * field.additive_group.decode_array(field.exp[logs * j % (field.q - 1)])
        for j, c in enumerate(base.modulus)
    )
    roots = logs[~np.any(value % field.p, axis=1)]
    if not roots.size:
        raise FieldError("base modulus has no root in the extension")  # unreachable
    table = np.zeros(base.q, dtype=np.int64)
    table[base.exp] = field.exp[roots[0] * np.arange(base.q - 1) % (field.q - 1)]
    return table
