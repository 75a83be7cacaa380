"""A GF(p^n) reference for the tests, independent of the exp/log tables.

An element is the tuple of its n coefficients over Z_p, ascending powers
of x, as `FiniteField.additive_group` decodes a field code.  Products are
polynomial products reduced modulo the field's modulus, powers go by
squaring, and discrete logs come from a walk over the powers of the class
of x, so nothing here reads `field.exp` or `field.log`.
"""

import itertools

_LOGS: dict = {}  # (p, n, modulus) -> {element: discrete log}, built on first use


class RefField:
    def __init__(self, field):
        self.field = field
        self.p, self.n, self.q = field.p, field.n, field.q
        self.modulus = field.modulus  # ascending, monic
        self.zero = (0,) * self.n
        self.one = (1,) + (0,) * (self.n - 1)
        self.root = self.reduce([0, 1])  # the class of x

    def elements(self):
        return itertools.product(range(self.p), repeat=self.n)

    def code(self, a) -> int:
        return self.field.additive_group.encode(a)

    def element(self, code: int) -> tuple:
        return self.field.additive_group.decode(int(code))

    def reduce(self, coeffs) -> tuple:
        """A polynomial (ascending coefficients) modulo the modulus."""
        c = [x % self.p for x in coeffs] + [0] * max(0, self.n - len(coeffs))
        for d in range(len(c) - 1, self.n - 1, -1):
            top, c[d] = c[d], 0  # x^d = -x^(d-n) * (modulus without its leading 1)
            for i, m in enumerate(self.modulus[:-1]):
                c[d - self.n + i] = (c[d - self.n + i] - top * m) % self.p
        return tuple(c[: self.n])

    def add(self, a, b) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a) -> tuple:
        return tuple(-x % self.p for x in a)

    def sub(self, a, b) -> tuple:
        return self.add(a, self.neg(b))

    def scale(self, c: int, a) -> tuple:
        """c * a for c in Z_p."""
        return tuple(c * x % self.p for x in a)

    def mul(self, a, b) -> tuple:
        prod = [0] * (2 * self.n - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return self.reduce(prod)

    def pow(self, a, e: int) -> tuple:
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def log(self, a) -> int:
        """The discrete log of a != 0 to the base r, the class of x."""
        key = (self.p, self.n, self.modulus)
        if key not in _LOGS:
            logs, acc = {}, self.one
            for i in range(self.q - 1):
                logs[acc] = i
                acc = self.mul(acc, self.root)
            _LOGS[key] = logs
        return _LOGS[key][a]

    def cls(self, a, lam: int):
        """The order-lam cyclotomic class of a, None for zero."""
        return None if a == self.zero else self.log(a) % lam
