"""Arithmetic admissibility and nonexistence checkers for design parameters.

Every verdict carries the certificate numbers it was computed from, so each
condition can be re-checked by hand from the report alone.  sympy, slow to
import, is imported only by the functions that factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .groups import DifamError, radical


@dataclass
class Condition:
    name: str
    passed: bool
    certificate: dict

    def render(self) -> str:
        cert = ", ".join(f"{k}={v}" for k, v in self.certificate.items())
        return f"{self.name}: {'PASS' if self.passed else 'FAIL'} ({cert})"


@dataclass
class ParamVerdict:
    params: dict
    conditions: list[Condition] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)

    def render(self) -> str:
        lines = [c.render() for c in self.conditions]
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


def is_prime_power(k: int) -> bool:
    from sympy import factorint
    return k >= 2 and len(factorint(k)) == 1

def is_singly_even(k: int) -> bool:
    return k % 4 == 2


def _prime_to(n: int, m: int) -> int:
    """What is left of n once every prime it shares with m is divided out:
    1 iff every prime of n divides m, that is, iff rad(n) divides m.  Each
    step divides by a gcd, so no number is factored."""
    g = math.gcd(n, m)
    while g > 1:
        n //= g
        g = math.gcd(n, g)
    return n


def _rad(n: int):
    """rad(n) for a certificate: exact when `radical` factors n, else the
    primes it found times the radical of the part it left."""
    r, left = radical(n)
    if left == 1:
        return r
    return f"rad({left})" if r == 1 else f"{r}*rad({left})"


def trivial_additive(k: int) -> bool:
    """Whether the one-block design on k points admits a zero-sum group."""
    if k < 1:
        raise DifamError(f"k must be >= 1, got {k}")
    return k % 4 != 2


def strict_additive_necessary(v: int, k: int) -> ParamVerdict:
    """Necessary conditions for a strictly additive 2-(v,k,1) design."""
    if not v >= k >= 2:
        raise DifamError(f"need v >= k >= 2, got v={v}, k={k}")
    verdict = ParamVerdict({"v": v, "k": k})
    verdict.conditions.append(
        Condition("radical(v) divides k", _prime_to(v, k) == 1, {"rad(v)": _rad(v), "k": k})
    )
    verdict.conditions.append(
        Condition("v not singly even", not is_singly_even(v), {"v mod 4": v % 4})
    )
    return verdict


def super_regular_necessary(v: int, k: int) -> ParamVerdict:
    """Necessary conditions for a super-regular 2-(v,k,1) design."""
    if k < 2 or v < 1:  # _prime_to(0, k) would divide 0 by k forever
        raise DifamError(f"need v >= 1 and k >= 2, got v={v}, k={k}")
    verdict = ParamVerdict({"v": v, "k": k})
    mod = k * (k - 1)
    verdict.conditions.append(
        Condition(
            "v = k (mod k(k-1))", v % mod == k % mod, {"v mod k(k-1)": v % mod, "k": k}
        )
    )
    same = _prime_to(v, k) == 1 and _prime_to(k, v) == 1
    verdict.conditions.append(
        Condition("radical(v) = radical(k)", same, {"rad(v)": _rad(v), "rad(k)": _rad(k)})
    )
    verdict.conditions.append(
        Condition("k not singly even", not is_singly_even(k), {"k mod 4": k % 4})
    )
    return verdict


def theorem41_42(v: int, k: int) -> ParamVerdict:
    """Mod-3 nonexistence test for v/k when 3 | k but 9 does not divide k.

    The k-hypothesis is implemented as k = +-3 (mod 9).  Reports a verdict
    "nonexistent" when the hypothesis holds and v/k = 2 (mod 3); when the
    hypothesis fails, the residue is still reported for diagnosis.
    """
    if k < 1 or v % k != 0:
        raise DifamError(f"k={k} must be a positive divisor of v={v}")
    hyp = k % 3 == 0 and k % 9 != 0
    ratio = v // k
    residue = ratio % 3
    verdict = ParamVerdict({"v": v, "k": k})
    verdict.conditions.append(
        Condition("k = +-3 (mod 9)", hyp, {"k mod 9": k % 9})
    )
    verdict.conditions.append(
        Condition("v/k != 2 (mod 3)", residue != 2, {"v/k mod 3": residue})
    )
    if hyp and residue == 2:
        verdict.notes.append("nonexistent: v/k = 2 (mod 3) with k = +-3 (mod 9)")
    return verdict


@dataclass
class OrderEnumeration:
    n: int
    k: int
    order_of_two: int
    i_max: int
    admissible_v: list[int]


def theorem43_enumerate(n: int) -> OrderEnumeration:
    """Admissible point counts for block size k = 2^n * 3.

    v must equal 2^(o*i+n)*3 with o the multiplicative order of 2 mod k-1
    and 0 <= i <= floor((n^2-n)/o); when o > n^2-n only the trivial v = k
    survives.
    """
    from sympy import n_order
    if n < 1:
        raise DifamError(f"n must be >= 1, got {n}")
    k = 2**n * 3
    o = int(n_order(2, k - 1))
    i_max = (n * n - n) // o
    vs = [2 ** (o * i + n) * 3 for i in range(i_max + 1)]
    return OrderEnumeration(n, k, o, i_max, vs)


def main_status(k: int) -> str:
    """Classify a block size: which route (if any) reaches a design.

    Returns one of "prime_power", "singly_even", "two_pow_times_three",
    "constructible".
    """
    if k < 3:
        raise DifamError(f"k must be >= 3, got {k}")
    if is_prime_power(k):
        return "prime_power"
    if is_singly_even(k):
        return "singly_even"
    from sympy import factorint
    fac = factorint(k)
    if set(fac) == {2, 3} and fac[3] == 1:
        return "two_pow_times_three"
    return "constructible"


def largest_odd_prime_power_factor(k: int) -> tuple[int, int]:
    """(q, r) with q the largest odd prime power dividing k exactly, r = k/q."""
    from sympy import factorint
    fac = factorint(k)
    q = max((p**e for p, e in fac.items() if p != 2), default=1)
    return q, k // q
