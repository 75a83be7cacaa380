"""The code-row products against the tuple path they replaced.

`Lifting.lifted_blocks`, the multiplier expansion, `extend_field` and
`simple_lift` build their blocks as int code rows (a product code is
group_code * q + field_code).  The reference below is the tuple path they
replaced: points joined and split as residue tuples, field parts
multiplied as polynomials modulo the field's modulus (`gf_reference`, no
exp/log table), and the subfield embedding by Horner's rule.  The
expanded blocks must agree, in the same order, and so must the multiplier
verdict.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from difam import catalog
from difam.carrier import ProductCarrier
from difam.diffs import GMultiset
from difam.families import FamilyError, verify_rdf
from difam.gf import FiniteField, cyclotomic_class
from difam.lifting import (
    LiftingError,
    MultiplierSet,
    _default_zero_sum_subset,
    apply_multipliers,
    build_psi,
    extend_field,
    greedy_lift,
    simple_lift,
)
from gf_reference import RefField

PROPERTY = settings(
    database=None,
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)

# primes q = 5 (mod 8) up to 200: the fields where example51 lifts with lambda = 4
LIFT_FIELDS = [13, 29, 37, 53, 61, 101, 109, 149, 157, 173, 181, 197]


# --- the tuple reference -----------------------------------------------------


def _split(carrier, e):
    return e[: carrier.group.rank], e[carrier.group.rank :]


def _ref_lifted_blocks(lifting):
    out, decode = [], lifting.field.additive_group.decode
    for block, coords in zip(lifting.sdf.blocks, lifting.second_coords.tolist()):
        pairs = [tuple(b) + decode(x) for b, x in zip(block.expand(), coords)]
        if len(set(pairs)) != len(pairs):
            raise LiftingError("lifted block has repeated pairs")
        out.append(sorted(pairs))
    return out


def _ref_multiply_out(carrier, point_lists, mults):
    """One block per (point list, multiplier), the field part of each point
    times the multiplier, a tuple."""
    ref, blocks = RefField(carrier.field), []
    for pts in point_lists:
        gs, xs = zip(*(_split(carrier, e) for e in pts))
        for m in mults:
            blocks.append(sorted(tuple(g) + ref.mul(x, m) for g, x in zip(gs, xs)))
    return blocks


def _ref_embed(ref, base):
    d = (ref.q - 1) // (base.q - 1)

    def evaluate(coeffs, x):
        acc = ref.zero
        for c in reversed(coeffs):
            acc = ref.add(ref.mul(acc, x), ref.scale(c, ref.one))
        return acc

    powers = (ref.pow(ref.root, i) for i in range(0, ref.q - 1, d))
    y = next(x for x in powers if evaluate(base.modulus, x) == ref.zero)
    return {e: evaluate(e, y) for e in RefField(base).elements()}


def _powers(ref, count):
    """r^0, ..., r^(count-1) of the reference field."""
    return [ref.pow(ref.root, i) for i in range(count)]


def _ref_extend_field(rdf, n):
    carrier, base = rdf.group, rdf.group.field
    big = RefField(FiniteField(base.p, base.n * n))
    embed = _ref_embed(big, base)
    reps = _powers(big, (big.q - 1) // (base.q - 1))  # of F_q^*
    embedded = [
        [g + embed[x] for g, x in (_split(carrier, e) for e in block.expand())]
        for block in rdf.blocks
    ]
    return _ref_multiply_out(ProductCarrier(carrier.group, big.field), embedded, reps)


def _ref_simple_lift(sdf, field, signed):
    carrier, ref = ProductCarrier(sdf.group, field), RefField(field)
    if signed:
        ys = _powers(ref, (sdf.k - 1) // 2)
        lifted = []
        for block in sdf.blocks:  # sorted, a block is zero, then each a of A twice
            assert sorted(Counter(block.expand()).values()) == [1] + [2] * len(ys)
            coords = [ref.zero] + [x for y in ys for x in (y, ref.neg(y))]
            lifted.append([g + x for g, x in zip(block.expand(), coords)])
        mults = _powers(ref, (field.q - 1) // 2)
    else:
        zero_sum = _default_zero_sum_subset(field, sdf.k).tolist()
        L = [field.additive_group.decode(c) for c in zero_sum]
        lifted = [[g + x for g, x in zip(block.expand(), L)] for block in sdf.blocks]
        mults = _powers(ref, field.q - 1)
    return _ref_multiply_out(carrier, lifted, mults)


def _ref_apply_multipliers(lifting, codes):
    """(blocks, (ok, failing_g, lambda, failures)), or the FamilyError."""
    field, ref = lifting.field, RefField(lifting.field)
    mults = sorted(set(map(ref.element, codes)))
    if any(m == ref.zero for m in mults) or len(mults) * lifting.sdf.lam != field.q - 1:
        return FamilyError
    carrier = lifting.carrier()
    blocks = _ref_multiply_out(carrier, _ref_lifted_blocks(lifting), mults)
    gm = [GMultiset(carrier, b) for b in blocks]
    v = verify_rdf(gm, carrier, carrier.forbidden_subgroup(), lifting.sdf.k, 1)
    failing = min((_split(carrier, e)[0] for e, _ in v.coverage.failures), default=None)
    return blocks, (v.is_rdf, failing, v.lam, v.coverage.failures)


def _apply_multipliers(lifting, elements):
    try:
        rdf, verdict = apply_multipliers(lifting, MultiplierSet(lifting.field, elements))
    except FamilyError:
        return FamilyError
    cov = verdict.rdf_verdict.coverage
    expanded = [b.expand() for b in rdf.blocks]
    return expanded, (verdict.ok, verdict.failing_g, verdict.rdf_verdict.lam, cov.failures)


# --- the comparisons -----------------------------------------------------------


def _triples(triples):
    """A catalog fixture's blocks from its (a, b, c) entries, as sorted tuple
    lists: a with the field element of coefficients (c, b)."""
    return [sorted((a, c, b) for a, b, c in t) for t in triples]


def test_catalog_fixtures_match_their_tuple_entries():
    fixtures = {name: make() for name, make in catalog.FIXTURES.items()}
    assert [b.expand() for b in fixtures["thm62-z5"].blocks] == _triples(catalog._Z5_BLOCKS)
    assert [b.expand() for b in fixtures["thm62-z7"].blocks] == _triples(catalog._Z7_BLOCKS)
    assert [b.expand() for b in fixtures["sigma-prime"].blocks] == [
        sorted([(0,)] + [(a,) for a in half for _ in range(2)])
        for half in ([1, 2, 3, 7, 9, 11, 12], [1, 3, 4, 5, 7, 12, 13], [1, 5, 8, 10, 11, 12, 13])
    ]
    assert [b.expand() for b in fixtures["example51"].blocks] == [[(0,), (1,), (1,), (4,), (4,)]]


@pytest.mark.parametrize("name,n", [("thm62-z5", 2), ("thm62-z5", 3), ("thm62-z7", 2)])
def test_extend_field_matches_the_tuple_path(name, n):
    rdf = catalog.FIXTURES[name]()
    assert [b.expand() for b in extend_field(rdf, n).blocks] == _ref_extend_field(rdf, n)


@pytest.mark.parametrize(
    "name,field,signed",
    [
        ("example51", (7, 1), False),
        ("example51", (3, 2), False),
        ("example51", (11, 1), True),
        ("example51", (13, 1), True),
        ("sigma-prime", (17, 1), False),
        ("sigma-prime", (5, 2, (2, 1, 1)), True),
        ("sigma-prime", (17, 1), True),
    ],
)
def test_simple_lift_matches_the_tuple_path(name, field, signed):
    sdf, fld = catalog.FIXTURES[name](), FiniteField(*field)
    got = [b.expand() for b in simple_lift(sdf, fld, signed=signed).blocks]
    assert got == _ref_simple_lift(sdf, fld, signed)


def _lifting(q, start):
    """A greedy lift of example51 over GF(q), from the first psi seed at or
    after `start` that lifts."""
    sdf, field = catalog.example51(), FiniteField(q, 1)
    for seed in range(start, start + 200):
        try:
            return greedy_lift(sdf, field, build_psi(sdf, 4, seed=seed), budget=2000)
        except LiftingError:
            continue
    raise AssertionError(f"no psi seed in [{start}, {start + 200}) lifts over GF({q})")


@PROPERTY
@given(
    q=st.sampled_from(LIFT_FIELDS),
    start=st.integers(0, 40),
    damage=st.sampled_from([None, "repeat", "outside", "short"]),
    data=st.data(),
)
def test_greedy_lift_products_match_the_tuple_path(q, start, damage, data):
    lifting = _lifting(q, start)
    assert [b.expand() for b in lifting.lifted_blocks()] == _ref_lifted_blocks(lifting)
    field = lifting.field
    elements = cyclotomic_class(field, 4, 0).tolist()
    i = data.draw(st.integers(0, len(elements) - 1), label="multiplier")
    if damage == "repeat":  # another multiplier takes this one's place
        elements[i] = elements[(i + 1) % len(elements)]
    elif damage == "outside":  # one multiplier from C^4_1 instead
        elements[i] = int(cyclotomic_class(field, 4, 1)[i])
    elif damage == "short":
        del elements[i]
    want = _ref_apply_multipliers(lifting, elements)
    assert _apply_multipliers(lifting, elements) == want
    if damage in (None, "outside"):
        assert want[1][0] is (damage is None)
