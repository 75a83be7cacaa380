import pytest

from difam.gf import (
    CyclotomicClassIndex,
    FieldError,
    FiniteField,
    class_index,
    coset_reps,
    cyclotomic_class,
    nonzero_squares,
    parse_modulus,
    render_modulus,
    subfield_embed,
    x_set,
)


def test_prime_field_arithmetic():
    f = FiniteField(13, 1)
    assert f.q == 13
    assert f.add((7,), (9,)) == (3,)
    assert f.mul((3,), (5,)) == (2,)
    assert f.inv((2,)) == (7,)
    assert f.div((1,), (2,)) == (7,)


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
    # multiplicative closure
    assert f.mul(f.exp[20], f.exp[10]) == f.exp[4]


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
    with pytest.raises(FieldError):
        f.check((5, 0))
    with pytest.raises(FieldError):
        f.inv(f.zero)


def test_distributivity_spot_check():
    f = FiniteField(5, 2, (2, 1, 1))
    elems = list(f.elements())
    for a in elems[:6]:
        for b in elems[:6]:
            for c in elems[:6]:
                left = f.mul(a, f.add(b, c))
                right = f.add(f.mul(a, b), f.mul(a, c))
                assert left == right


def test_from_int_and_div_int():
    f = FiniteField(5, 2)
    assert f.from_int(7) == (2, 0)
    assert f.mul(f.div_int(f.one, 3), f.from_int(3)) == f.one
    with pytest.raises(FieldError):
        f.div_int(f.one, 5)


def test_modulus_text_roundtrip():
    assert parse_modulus("2,1,1") == (2, 1, 1)
    assert render_modulus((2, 1, 1)) == "2,1,1"
    with pytest.raises(FieldError):
        parse_modulus("2,x,1")


def test_class_index_arithmetic():
    a = CyclotomicClassIndex(4, 3)
    b = CyclotomicClassIndex(4, 2)
    assert (a + b).index == 1
    with pytest.raises(FieldError):
        a + CyclotomicClassIndex(6, 1)


def test_cyclotomic_classes_partition():
    f = FiniteField(5, 2)
    classes = [cyclotomic_class(f, 4, i) for i in range(4)]
    assert all(len(c) == 6 for c in classes)
    union = {e for c in classes for e in c}
    assert union == set(f.elements()) - {f.zero}
    for i in range(4):
        for e in classes[i]:
            assert class_index(f, e, 4).index == i


def test_class_index_errors():
    f = FiniteField(5, 2)
    with pytest.raises(FieldError):
        class_index(f, f.zero, 4)
    with pytest.raises(FieldError):
        class_index(f, f.one, 5)


def test_nonzero_squares():
    f = FiniteField(13, 1)
    sq = nonzero_squares(f)
    assert sorted(sq) == sorted({f.mul(x, x) for x in f.elements() if x != f.zero})
    with pytest.raises(FieldError):
        nonzero_squares(FiniteField(2, 3))


def test_x_set_no_constraints_is_whole_field():
    f = FiniteField(13, 1)
    assert x_set(f, [], 4) == sorted(f.elements())


def test_x_set_single_constraint_is_translated_class():
    f = FiniteField(13, 1)
    out = x_set(f, [(f.from_int(3), 2)], 4)
    expect = sorted(f.add(f.from_int(3), z) for z in cyclotomic_class(f, 4, 2))
    assert out == expect


def test_x_set_two_constraints_brute_force():
    f = FiniteField(5, 2)
    cons = [(f.zero, 1), (f.one, 3)]
    out = x_set(f, cons, 4)
    expect = []
    for x in f.elements():
        ok = True
        for c, g in cons:
            d = f.sub(x, c)
            if d == f.zero or f.log[d] % 4 != g:
                ok = False
        if ok:
            expect.append(x)
    assert out == sorted(expect)


def test_x_set_duplicate_points_rejected():
    f = FiniteField(13, 1)
    with pytest.raises(FieldError):
        x_set(f, [(f.one, 0), (f.one, 1)], 4)


def test_coset_reps_index():
    f = FiniteField(13, 1)
    reps = coset_reps(f, ("index", 4))
    assert len(reps) == 4
    logs = sorted(f.log[r] % 4 for r in reps)
    assert logs == [0, 1, 2, 3]


def test_coset_reps_pm1():
    f = FiniteField(5, 2)
    reps = coset_reps(f, ("pm1-in-index", 2))
    assert len(reps) == 6
    # reps together with their negatives tile the even-log class
    tiles = {r for r in reps} | {f.neg(r) for r in reps}
    assert tiles == set(cyclotomic_class(f, 2, 0))
    with pytest.raises(FieldError):
        coset_reps(FiniteField(13, 1), ("pm1-in-index", 4))  # -1 is not a 4th power
    with pytest.raises(FieldError):
        coset_reps(f, ("nope", 2))


def test_subfield_embed_is_homomorphic():
    base = FiniteField(5, 2, (2, 1, 1))
    big = FiniteField(5, 4)
    emb = subfield_embed(big, base)
    assert emb[base.zero] == big.zero
    assert emb[base.one] == big.one
    elems = list(base.elements())
    for a in elems[:8]:
        for b in elems[:8]:
            assert emb[base.add(a, b)] == big.add(emb[a], emb[b])
            assert emb[base.mul(a, b)] == big.mul(emb[a], emb[b])
    assert len(set(emb.values())) == 25


def test_subfield_embed_errors():
    with pytest.raises(FieldError):
        subfield_embed(FiniteField(5, 4), FiniteField(3, 1))
    with pytest.raises(FieldError):
        subfield_embed(FiniteField(5, 3), FiniteField(5, 2))
