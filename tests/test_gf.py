import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import difam.gf as gf
from difam.gf import (
    FieldError,
    FiniteField,
    coset_reps,
    cyclotomic_class,
    parse_modulus,
    subfield_embed,
)
from difam.groups import AbelianGroup
from difam.lifting import MultiplierSet
from gf_reference import RefField


def _log_code(field, c):
    """1 + the discrete log of the element with additive code c, 0 for zero."""
    return int(field.log[c]) + 1


def _x_set(field, constraints, lam):
    """The sorted codes x with x - c in C^lam_g for every (c, g) in
    constraints, c a code, read from the field's `ClassMasks.meet`, which
    the searches call; g is read modulo lam."""
    table = field.class_masks(lam)
    codes = table.meet([(_log_code(field, c), g % lam) for c, g in constraints])
    return sorted(table.add_code[codes].tolist())


def _mul(field, a, b):
    """The product of two codes through the exp/log tables."""
    if not a or not b:
        return 0
    return int(field.exp[(int(field.log[a]) + int(field.log[b])) % (field.q - 1)])


def test_prime_field_arithmetic():
    # over a prime field a code is its residue
    f = FiniteField(13, 1)
    assert f.q == 13
    assert _mul(f, 3, 5) == 2
    assert int(f.exp[-int(f.log[2]) % 12]) == 7  # 1/2
    ref = RefField(f)
    assert all(ref.mul((a,), (b,)) == (_mul(f, a, b),) for a in range(13) for b in range(13))


def test_gf25_default_modulus_is_least_primitive():
    f = FiniteField(5, 2)
    assert f.modulus == (2, 1, 1)  # x^2 + x + 2


def test_non_primitive_modulus_rejected():
    # x^2 + 1 is irreducible over GF(5)? no: 2^2=4=-1. And x^2+2 is
    # irreducible but not primitive (x has order 8, not 24).
    with pytest.raises(FieldError):
        FiniteField(5, 2, (2, 0, 1))


def test_exp_log_consistency():
    f = FiniteField(3, 3)
    assert len(f.exp) == 26
    assert len(set(f.exp)) == 26
    for i, e in enumerate(f.exp):
        assert f.log[e] == i
    # exp[i] is r^i, the product of the reference
    ref = RefField(f)
    assert [ref.element(e) for e in f.exp] == [ref.pow(ref.root, i) for i in range(26)]
    assert ref.mul(ref.element(f.exp[20]), ref.element(f.exp[10])) == ref.element(f.exp[4])


def test_field_cap():
    with pytest.raises(FieldError):
        FiniteField(2, 23)


def test_bad_inputs():
    with pytest.raises(FieldError):
        FiniteField(6, 1)
    with pytest.raises(FieldError):
        FiniteField(5, 0)
    with pytest.raises(FieldError):
        FiniteField(5, 2, (2, 1, 2))  # not monic
    f = FiniteField(5, 2)
    assert f.log[0] == -1  # zero has no discrete log, so no inverse


def test_distributivity_spot_check():
    # the table product is the reference product, which distributes
    f = FiniteField(5, 2, (2, 1, 1))
    ref = RefField(f)
    elems = list(ref.elements())
    for a in elems:
        assert all(ref.element(_mul(f, ref.code(a), ref.code(b))) == ref.mul(a, b) for b in elems)
    for a in elems[:6]:
        for b in elems[:6]:
            for c in elems[:6]:
                assert ref.mul(a, ref.add(b, c)) == ref.add(ref.mul(a, b), ref.mul(a, c))


def test_from_int_and_div_int():
    # an integer c is the code of (c mod p, 0): c * p^(n-1)
    f = FiniteField(5, 2)
    assert int(f.exp[0]) == RefField(f).code((1, 0)) == 5
    for c in range(1, 5):  # the table inverse of c is 1/c in GF(5)
        assert int(f.exp[-int(f.log[c * 5]) % 24]) == pow(c, -1, 5) * 5


def test_modulus_text_roundtrip():
    assert parse_modulus("2,1,1") == (2, 1, 1)
    with pytest.raises(FieldError):
        parse_modulus("2,x,1")


def test_cyclotomic_classes_partition():
    f = FiniteField(5, 2)
    classes = [cyclotomic_class(f, 4, i) for i in range(4)]
    assert all(len(c) == 6 for c in classes)
    union = {e for c in classes for e in c.tolist()}
    assert union == set(range(1, f.q))
    ref = RefField(f)
    for i in range(4):
        assert all(ref.cls(ref.element(e), 4) == i for e in classes[i])


def test_nonzero_squares():
    # the squares are the class of even logs, which paley_sdf reads as exp[::2]
    f = FiniteField(13, 1)
    ref = RefField(f)
    sq = cyclotomic_class(f, 2, 0)
    assert sorted(sq.tolist()) == sorted({ref.code(ref.mul(x, x)) for x in ref.elements() if any(x)})
    assert sq.tolist() == f.exp[::2].tolist()
    with pytest.raises(FieldError):
        cyclotomic_class(FiniteField(2, 3), 2, 0)  # 2 does not divide q - 1 = 7


def test_x_set_no_constraints_is_whole_field():
    f = FiniteField(13, 1)
    assert _x_set(f, [], 4) == list(range(13))


def test_x_set_single_constraint_is_translated_class():
    f = FiniteField(13, 1)
    out = _x_set(f, [(3, 2)], 4)
    expect = sorted((3 + z) % 13 for z in cyclotomic_class(f, 4, 2).tolist())
    assert out == expect


def test_x_set_two_constraints_brute_force():
    f = FiniteField(5, 2)
    ref = RefField(f)
    cons = [(ref.zero, 1), (ref.one, 3)]
    out = _x_set(f, [(ref.code(c), g) for c, g in cons], 4)
    expect = [x for x in ref.elements() if all(ref.cls(ref.sub(x, c), 4) == g for c, g in cons)]
    assert out == sorted(map(ref.code, expect))


def test_coset_reps_pm1():
    f = FiniteField(5, 2)
    ref = RefField(f)
    reps = coset_reps(f, 2)
    assert reps.dtype == np.int64 and len(reps) == 6
    # reps together with their negatives tile the even-log class
    tiles = {ref.element(r) for r in reps} | {ref.neg(ref.element(r)) for r in reps}
    assert tiles == {ref.element(c) for c in cyclotomic_class(f, 2, 0)}
    assert len(tiles) == 12
    with pytest.raises(FieldError):
        coset_reps(FiniteField(13, 1), 4)  # -1 is not a 4th power


def test_subfield_embed_is_homomorphic():
    base = FiniteField(5, 2, (2, 1, 1))
    big = FiniteField(5, 4)
    table = subfield_embed(big, base)
    rb, rB = RefField(base), RefField(big)
    emb = {rb.element(c): rB.element(table[c]) for c in range(base.q)}  # element to element
    assert emb[rb.zero] == rB.zero
    assert emb[rb.one] == rB.one
    elems = list(rb.elements())
    for a in elems[:8]:
        for b in elems[:8]:
            assert emb[rb.add(a, b)] == rB.add(emb[a], emb[b])
            assert emb[rb.mul(a, b)] == rB.mul(emb[a], emb[b])
    assert len(set(emb.values())) == 25


def test_subfield_embed_errors():
    with pytest.raises(FieldError):
        subfield_embed(FiniteField(5, 4), FiniteField(3, 1))
    with pytest.raises(FieldError):
        subfield_embed(FiniteField(5, 3), FiniteField(5, 2))


def test_field_cap_checked_before_the_order_is_formed():
    # 2**(10**12) would not fit in memory
    with pytest.raises(FieldError, match="exceeds the supported cap"):
        FiniteField(2, 10**12)
    with pytest.raises(FieldError, match="exceeds the supported cap"):
        FiniteField(2**61 - 1, 1)


def test_x_set_refuses_order_zero():
    with pytest.raises(FieldError):
        _x_set(FiniteField(13, 1), [], 0)


def test_x_set_refuses_negative_order():
    # -4 divides 12, but there are no classes of order -4
    with pytest.raises(FieldError):
        _x_set(FiniteField(13, 1), [], -4)


@pytest.mark.parametrize("lam", [0, -4])
def test_class_queries_share_the_order_check(lam):
    f = FiniteField(13, 1)
    with pytest.raises(FieldError):
        cyclotomic_class(f, lam, 0)
    with pytest.raises(FieldError):
        coset_reps(f, lam)
    with pytest.raises(FieldError):
        f.class_masks(lam)


def _scan_x_set(field, constraints, lam):
    """x_set as a scan of the field: the first constraint's translated
    class, filtered by the others (the implementation the masks replaced)."""
    ref = RefField(field)
    pairs = [(ref.element(c), gamma % lam) for c, gamma in constraints]
    if not pairs:
        return list(range(field.q))
    c0, g0 = pairs[0]
    out = []
    for z in cyclotomic_class(field, lam, g0).tolist():
        x = ref.add(c0, ref.element(z))
        if all(ref.cls(ref.sub(x, c), lam) == g for c, g in pairs[1:]):
            out.append(ref.code(x))
    return sorted(out)


# the prime powers matter: a mask translates digit by digit when n > 1
MASK_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (13, 1)]


@pytest.mark.parametrize("row_bytes", [gf._MASK_ROW_BYTES, 0])
def test_x_set_matches_the_field_scan(monkeypatch, row_bytes):
    monkeypatch.setattr(gf, "_MASK_ROW_BYTES", row_bytes)
    fields = [FiniteField(p, n) for p, n in MASK_FIELDS]  # fresh, so no mask is cached yet

    @settings(database=None, derandomize=True, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        f = data.draw(st.sampled_from(fields))
        lam = data.draw(st.sampled_from([d for d in range(1, f.q) if (f.q - 1) % d == 0]))
        points = data.draw(st.lists(st.sampled_from(range(f.q)), max_size=4, unique=True))
        constraints = [(c, data.draw(st.integers(-2 * lam, 2 * lam))) for c in points]
        assert _x_set(f, constraints, lam) == _scan_x_set(f, constraints, lam)

    check()
    tables = [t for f in fields for t in f._class_masks.values()]
    assert all(t.cached_bytes <= row_bytes for t in tables)
    assert any(t.masks for t in tables) == (row_bytes > 0)


def test_x_set_over_a_million_points():
    # peeling a mask bit by bit (m & -m) is quadratic in q: over 60 s for
    # the whole field at this q.  Reading the set bits out of bin(m) with
    # str.find is linear, and takes most of the time, the int32 field
    # tables a small part.
    code = (
        "from difam.gf import FiniteField\n"
        "f = FiniteField(1048573, 1)\n"
        "meet = f.class_masks(4).meet\n"
        "print(len(meet([])), len(meet([(1, 3)])))\n"  # log code 1 is r^0 = 1
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=20, check=True).stdout
    assert out.split() == ["1048573", str((1048573 - 1) // 4)]


@settings(database=None, derandomize=True, max_examples=200)
@given(st.one_of(st.integers(0, 2**300), st.integers(0, 300).map(lambda y: 1 << y)))
def test_ascending_reads_every_set_bit(m):
    # one-bit masks take the fast path; zero has no bit
    assert gf.ClassMasks.ascending(m) == [y for y in range(m.bit_length()) if m >> y & 1]


def test_cached_masks_stay_within_the_byte_budget(monkeypatch):
    f = FiniteField(1021, 1)
    table = f.class_masks(4)
    budget = 5 * table.mask_bytes + 7
    monkeypatch.setattr(gf, "_MASK_ROW_BYTES", budget)
    for c in range(1, f.q):
        got = _x_set(f, [(c, c % 4)], 4)
        assert got == sorted((c + z) % f.q for z in cyclotomic_class(f, 4, c % 4).tolist())
    assert len(table.masks) == 5
    assert table.cached_bytes == 5 * table.mask_bytes <= budget
    assert sum((m.bit_length() + 7) // 8 for m in table.masks.values()) <= budget


def _old_candidate_order(field, elems, rng):
    """The candidate order the searches used before log codes: the options
    as elements, sorted by discrete log (zero first), then shuffled."""
    out = sorted(elems, key=lambda c: _log_code(field, c))
    rng.shuffle(out)
    return out


def test_search_order_on_log_codes_matches_the_sorted_elements():
    # _backtrack's options are ascending log codes; shuffled by the same rng,
    # they must decode to the old sorted-by-log element order, draw for draw.
    # The probe's one level refuses every option through expand returning None.
    import random

    from difam.lifting import LiftingError, _backtrack, _Budget

    fields = [FiniteField(p, n) for p, n in MASK_FIELDS]

    @settings(database=None, derandomize=True, deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        f = data.draw(st.sampled_from(fields))
        lam = data.draw(st.sampled_from([d for d in range(1, f.q) if (f.q - 1) % d == 0]))
        points = data.draw(st.lists(st.sampled_from(range(f.q)), max_size=3, unique=True))
        constraints = [(c, data.draw(st.integers(0, lam - 1))) for c in points]
        seed = data.draw(st.integers(0, 2**32))
        pairs = [(_log_code(f, c), g) for c, g in constraints]
        offered = []

        def refuse(i, chosen):
            offered.append(chosen[-1])
            return None

        rng = random.Random(seed)
        with pytest.raises(LiftingError):
            _backtrack(1, f.class_masks(lam).meet(pairs), refuse, rng, _Budget(1), "probe")
        expected_rng = random.Random(seed)
        expected = _old_candidate_order(f, _scan_x_set(f, constraints, lam), expected_rng)
        assert f.class_masks(lam).add_code[offered].tolist() == expected
        assert rng.getstate() == expected_rng.getstate()

    check()


def _tuple_tables(modulus, p, n):
    """The exp/log tables as the field once built them, a power at a time:
    exp a list of tuples, log a dict keyed by them; None when x does not
    have order q-1 (the reference for the blocked int32 build)."""

    def times_x(a):
        if n == 1:
            return ((a[0] * -modulus[0]) % p,)
        top = a[-1]  # a*x = shift up, then x^n = -(modulus[:-1])
        return tuple((lo - top * c) % p for lo, c in zip((0,) + a[:-1], modulus))

    one = (1,) + (0,) * (n - 1)
    exp, cur = [], one
    for _ in range(p**n - 1):
        exp.append(cur)
        cur = times_x(cur)
        if cur == one or not any(cur):
            break
    if cur != one or len(exp) != p**n - 1:
        return None
    return exp, {e: i for i, e in enumerate(exp)}


def _tuple_modulus(p, n):
    for high in itertools.product(range(p), repeat=n - 1):
        for c0 in range(p):
            modulus = (c0,) + tuple(reversed(high)) + (1,)
            if _tuple_tables(modulus, p, n) is not None:
                return modulus


def _assert_same_tables(field, reference):
    exp, log = reference
    assert field.exp.dtype == field.log.dtype == np.int32
    assert list(map(field.additive_group.decode, field.exp.tolist())) == exp
    assert field.log[0] == -1
    assert all(field.log[field.additive_group.encode(e)] == i for e, i in log.items())


# prime powers included: there the powers of x are multiplied as n x n blocks
ORACLE_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3),
                 (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (13, 1)]


@pytest.mark.parametrize("p,n", ORACLE_FIELDS)
def test_blocked_table_build_matches_the_tuple_walk(p, n):
    group = AbelianGroup((p,) * n)
    for low in itertools.product(range(p), repeat=n):
        modulus = low + (1,)
        reference = _tuple_tables(modulus, p, n)
        tables = gf._build_tables(modulus, group)
        assert (tables is None) == (reference is None), modulus
        if reference is not None:
            _assert_same_tables(FiniteField(p, n, modulus), reference)
        else:
            with pytest.raises(FieldError, match="not primitive"):
                FiniteField(p, n, modulus)


@pytest.mark.parametrize("p,n", [(2, 10), (3, 7), (5, 4), (13, 1), (70141, 1)])
def test_default_fields_keep_their_modulus_and_tables(p, n):
    field = FiniteField(p, n)
    assert field.modulus == _tuple_modulus(p, n)
    _assert_same_tables(field, _tuple_tables(field.modulus, p, n))


NON_CODES = [-1, 25, 26, -25, 125, 2**40]


@pytest.mark.parametrize("bad", NON_CODES, ids=[f"bad{i}" for i in range(len(NON_CODES))])
def test_non_elements_raise_field_error(bad):
    # a multiplier set takes field codes, which run over range(q)
    f = FiniteField(5, 2)
    for codes in ([bad], [5, bad], [bad, 1, 2]):
        with pytest.raises(FieldError, match="is not an element"):
            MultiplierSet(f, codes)


def test_greedy_lift_over_the_largest_field_in_bounded_memory():
    # the greedy pin over GF(4,194,301), the largest prime field under the
    # cap (= 5 mod 8, past the paper's no-backtracking bound); with tuple
    # exp/log tables this process peaked at about 1 GiB
    code = (
        "import resource\n"
        "from difam.catalog import example51\n"
        "from difam.gf import FiniteField\n"
        "from difam.lifting import build_psi, greedy_lift\n"
        "sdf = example51()\n"
        "field = FiniteField(4194301, 1)\n"
        "print(greedy_lift(sdf, field, build_psi(sdf, 4, seed=0)).nodes)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    nodes, peak_mib = map(int, out.split())
    assert nodes == 5
    assert peak_mib < 512
