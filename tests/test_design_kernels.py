"""The table-driven design kernels against the digit arithmetic they replaced.

`_orbit_rows`, the per-code digit-sum table of `zero_sum_rows`, the
first-word sort of `_packed_keys` and the regularity check and
stabiliser bound of `verify_super_regular` are each checked against a local
copy of the code that did the same work by integer division and a full
`lexsort`; `_unique_rows`, against the np.unique(axis=0) it replaced; the
sorting network of `_orbit_rows`, against every 0/1 input and np.sort.
"""

import numpy as np
import pytest

import difam.groups
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from difam.catalog import sigma_prime, thm62_z5, thm62_z7
from difam.designs import (
    Design,
    SuperRegularVerdict,
    _orbit_rows,
    _packed_keys,
    _unique_rows,
    ag_design,
    develop,
    subspace_replace,
    verify_design,
    verify_super_regular,
)
from difam.gf import FiniteField
from difam.groups import AbelianGroup, _sorting_network
from difam.lifting import extend_field, simple_lift
from group_reference import ref

PROPERTY = settings(
    database=None,
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


# --- the arithmetic forms, as they were before the tables ------------------


def _add_unit(group, codes, factor):
    w, n = group._weights[factor], group.cyclic_orders[factor]
    return codes + w - n * w * (codes // w % n == n - 1)


def _zero_sum_rows(group, rows):
    digits = zip(group._weights, group.cyclic_orders)
    return ~np.any([(rows // w % n).sum(axis=1) % n for w, n in digits], axis=0)


def _lexsorted_row_keys(arr, v, step=None):
    k = arr.shape[1]
    per_word = 1
    while per_word < k and v ** (per_word + 1) < 2**62:
        per_word += 1
    starts = np.arange(0, k, per_word)
    weights = np.array([v ** (per_word - 1 - i % per_word) for i in range(k)], dtype=np.int64)
    part = arr if step is None else _add_unit(step[0], arr, step[1])
    keys = np.add.reduceat(np.sort(part, axis=1) * weights, starts, axis=1)
    return keys[np.lexsort(keys.T[::-1])]


def _oracle_super_regular(design):
    group, arr, v = design.carrier, design.blocks, design.v
    additive = bool(_zero_sum_rows(group, arr).all())
    keys = _lexsorted_row_keys(arr, v)
    regular = all(
        np.array_equal(_lexsorted_row_keys(arr, v, (group, i)), keys) for i in range(group.rank)
    )
    return SuperRegularVerdict(regular, additive)


# --- designs ----------------------------------------------------------------


@pytest.fixture(scope="module")
def designs():
    z5 = develop(thm62_z5())
    flat = Design(AbelianGroup((5, 5, 5)), z5.blocks, 5)
    sigma = simple_lift(sigma_prime(), FiniteField(5, 2, (2, 1, 1)), signed=True)
    return {
        "z5": z5,
        "z7": develop(thm62_z7()),
        "ag33": ag_design(3, 3),
        "planted-ag45": subspace_replace(4, 3, 5, flat),
        "sigma-prime": develop(sigma),  # repeated blocks, 15 points each
    }


_NAMES = ["z5", "z7", "ag33", "planted-ag45", "sigma-prime"]


@pytest.mark.parametrize("name", _NAMES)
def test_super_regular_matches_the_arithmetic_oracle(name, designs):
    d = designs[name]
    got = verify_super_regular(d, d.carrier)
    assert got == _oracle_super_regular(d)
    # the planted plane is not moved with the rest by the fourth coordinate
    assert got.is_super_regular == (name != "planted-ag45")


def _damage(design, how, data):
    """A copy of the design with one block changed, dropped or repeated."""
    group, blocks = design.carrier, design.blocks.copy()
    i = data.draw(st.integers(0, design.b - 1), label="block")
    if how == "move":
        blocks[i, data.draw(st.integers(0, design.k - 1))] = data.draw(st.integers(0, design.v - 1))
    elif how == "drop":
        blocks = np.delete(blocks, i, axis=0)
    elif how == "duplicate":
        blocks = np.insert(blocks, data.draw(st.integers(0, design.b)), blocks[i], axis=0)
    elif how == "off-zero-sum":  # one point moved by g != 0: the block sum moves by g
        j = data.draw(st.integers(0, design.k - 1))
        g = group.decode(data.draw(st.integers(1, design.v - 1)))
        blocks[i, j] = group.encode(ref(group).add(group.decode(int(blocks[i, j])), g))
    return Design(group, blocks, design.k)


@PROPERTY
@given(
    name=st.sampled_from(_NAMES),
    how=st.sampled_from(["move", "drop", "duplicate", "off-zero-sum"]),
    data=st.data(),
)
def test_super_regular_matches_the_oracle_on_damaged_designs(name, how, data, designs):
    d = _damage(designs[name], how, data)
    got = verify_super_regular(d, d.carrier)
    assert got == _oracle_super_regular(d)
    if how == "off-zero-sum":
        assert not got.is_strictly_additive
    if how in ("drop", "duplicate"):
        assert not got.is_regular  # one block of an orbit of >= v/k lost or gained


@st.composite
def _sparse_designs(draw):
    """A few k-point rows over a group with more elements than the rows
    have points (v > bk, b >= 1), zero-sum or not."""
    orders = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    group = AbelianGroup(orders)
    k = draw(st.integers(1, 4))
    b = draw(st.integers(1, 4))
    if group.order <= b * k:
        group = AbelianGroup(tuple(orders) + (b * k + 1,))
    point = st.integers(0, group.order - 1)
    row = st.lists(point, min_size=k, max_size=k)
    rows = np.array(draw(st.lists(row, min_size=b, max_size=b)), dtype=np.int64)
    if draw(st.booleans()):  # make every row zero-sum through its last point
        r = ref(group)
        for row in rows:
            row[-1] = group.encode(r.neg(r.sum(map(group.decode, row[:-1].tolist()))))
    return Design(group, rows, k)


@PROPERTY
@given(design=_sparse_designs())
def test_super_regular_refuses_too_few_block_points(design):
    # a block has at most k translations fixing it, so at least v/k > b
    # distinct translates: no regular design fits in b blocks
    assert design.v > design.b * design.k >= 1
    got = verify_super_regular(design, design.carrier)
    assert got == _oracle_super_regular(design)
    assert not got.is_regular


@pytest.mark.parametrize("orders", [(1,), (5,), (2, 3), (5, 5, 5)])
def test_super_regular_of_no_blocks(orders):
    group = AbelianGroup(orders)
    d = Design(group, np.empty((0, 3), dtype=np.int64), 3)
    assert verify_super_regular(d, group) == SuperRegularVerdict(True, True)
    assert _oracle_super_regular(d) == SuperRegularVerdict(True, True)


# --- the per-code tables ------------------------------------------------------


_ORBIT_GROUPS = [(2, 4), (3, 3), (9,), (2, 2, 2), (5, 5)]


def _translates(group, reps):
    """Row i*v + g is reps[i] + g, sorted, by the reference group."""
    r, elements = ref(group), list(group.elements())
    expected = []
    for rep in reps.tolist():
        points = [group.decode(x) for x in rep]
        expected += [sorted(group.encode(r.add(x, g)) for x in points) for g in elements]
    return expected


# a batch holds 4 * _CHUNK rows.  A _CHUNK of 1 splits each orbit over the
# digits of one factor, with a short last range on (9,) and (5, 5); 3 takes
# one rep a batch on 8 and 9 points and splits (5, 5) two digits at a time;
# 16 takes two reps a batch on 25 points and all three on the rest; 4096
# takes all of them
@pytest.mark.parametrize("chunk", [1, 3, 16, 4096])
@pytest.mark.parametrize("orders", _ORBIT_GROUPS)
def test_orbit_rows_add_every_g(orders, chunk, monkeypatch):
    monkeypatch.setattr(difam.groups, "_CHUNK", chunk)
    group, v = AbelianGroup(orders), int(np.prod(orders))
    reps = np.random.default_rng(v).integers(0, v, size=(3, 4))  # points may repeat
    expected = _translates(group, reps)
    for dtype in (np.int64, np.int16):  # any code type; a design's is int16 here
        out = np.full((3 * v, 4), -1, dtype=dtype)
        _orbit_rows(group, reps, out)
        assert out.tolist() == expected


def test_orbit_rows_in_int32_past_a_batch():
    # v = 59,049 > 4 * _CHUNK: each orbit is made over the second factor's
    # digits, two and then one, under each of three prefixes
    group = AbelianGroup((3,) * 10)
    reps = np.random.default_rng(group.order).integers(0, group.order, size=(2, 4))
    out = np.full((2 * group.order, 4), -1, dtype=np.int32)
    _orbit_rows(group, reps, out)
    assert out.tolist() == _translates(group, reps)


def _network_sort(rows):
    """The rows sorted by `_sorting_network`, place by place, as `_orbit_rows` does."""
    places = list(rows.T)
    for i, j in _sorting_network(rows.shape[1]):
        places[i], places[j] = np.minimum(places[i], places[j]), np.maximum(places[i], places[j])
    return np.stack(places, axis=1)


@pytest.mark.parametrize("n", range(1, 13))
def test_sorting_network_sorts_every_0_1_input(n):
    # a comparator network that sorts every 0/1 input sorts every input
    pairs = _sorting_network(n)
    assert all(0 <= i < j < n for i, j in pairs)
    bits = np.arange(2**n)[:, None] >> np.arange(n) & 1
    assert np.array_equal(_network_sort(bits), np.sort(bits, axis=1))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 15, 31, 64, 300])
def test_sorting_network_matches_np_sort(k):
    rng = np.random.default_rng(k)
    rows = rng.integers(0, max(2, k // 2), size=(200, k), dtype=np.int16)  # points repeat
    assert np.array_equal(_network_sort(rows), np.sort(rows, axis=1))


@pytest.mark.parametrize("orders", _ORBIT_GROUPS)
def test_orbit_rows_step_by_add_unit(orders):
    # row g + e_i of an orbit is row g moved by e_i, for every g and factor i
    group, v = AbelianGroup(orders), int(np.prod(orders))
    orbit = np.empty((v, 3), dtype=np.int64)
    _orbit_rows(group, np.array([[0, 1, v - 1]]), orbit)
    codes = np.arange(v, dtype=np.int64)
    for i in range(group.rank):
        moved = np.sort(_add_unit(group, orbit, i), axis=1)
        assert np.array_equal(moved, orbit[_add_unit(group, codes, i)])


def _rows_half_zero_sum(group, k, b, rng):
    """b random k-point rows; every other row made zero-sum through its last point."""
    rows = rng.integers(0, group.order, size=(b, k), dtype=np.int64)
    coords = group.decode_array(rows[::2, :-1])  # (b', k-1, rank)
    rows[::2, -1] = group.encode_array(-coords.sum(axis=1) % np.array(group.cyclic_orders))
    return rows


@PROPERTY
@given(
    orders=st.lists(st.integers(1, 16), min_size=1, max_size=6).filter(
        lambda o: int(np.prod(o)) <= 5000
    ),
    k=st.integers(1, 300),
    extra=st.integers(-2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_sum_rows_table_matches_arithmetic(orders, k, extra, seed):
    # extra < 0 leaves fewer entries than elements: the arithmetic form runs
    group = AbelianGroup(orders)
    b = max(0, -(-group.order // k) + extra)
    rows = _rows_half_zero_sum(group, k, b, np.random.default_rng(seed))
    got = group.zero_sum_rows(rows)
    assert got.dtype == bool and got.shape == (b,)
    assert np.array_equal(got, _zero_sum_rows(group, rows))


def test_zero_sum_rows_with_digit_sums_over_two_words():
    # Z_3^6 with 1000-point rows: each digit sum needs 11 bits, 66 in all,
    # so the fields of the last factors go to a second word
    group = AbelianGroup((3,) * 6)
    rng = np.random.default_rng(5)
    rows = _rows_half_zero_sum(group, 1000, 8, rng)
    expected = _zero_sum_rows(group, rows)
    assert expected.tolist() == [True, False] * 4
    assert np.array_equal(group.zero_sum_rows(rows), expected)
    # a change in the last factor's digit alone, which only the second word sees
    last = rows.copy()
    last[::2, 0] = _add_unit(group, last[::2, 0], group.rank - 1)
    assert not group.zero_sum_rows(last)[::2].any()
    assert np.array_equal(group.zero_sum_rows(last), _zero_sum_rows(group, last))


# --- keys sorted by their first word ----------------------------------------


@PROPERTY
@given(
    k=st.integers(3, 7),
    b=st.integers(0, 60),
    pool=st.lists(st.integers(0, 2**21 - 1), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_word_sort_matches_lexsort(k, b, pool, seed):
    # v = 2^21 packs two points per word, so k >= 3 makes two words or more;
    # points from a pool of at most four make first words tie often
    v = 2**21
    rows = np.random.default_rng(seed).choice(np.array(pool, dtype=np.int64), size=(b, k))
    rows.sort(axis=1)  # as a design holds them
    got = _packed_keys(rows, v)
    assert got.shape[1] >= 2
    assert np.array_equal(got, _lexsorted_row_keys(rows, v))


def test_first_word_sort_with_every_first_word_tied():
    v = 2**21
    rows = np.array([[0, 1, 9], [0, 1, 5], [0, 1, 7], [0, 1, 5]], dtype=np.int64)
    assert np.array_equal(_packed_keys(rows, v), _lexsorted_row_keys(rows, v))
    assert (_packed_keys(rows, v)[:, 1] // v).tolist() == [5, 5, 7, 9]


def test_a_design_given_ascending_rows_is_neither_copied_nor_sorted():
    # develop sorts every row, so the v = 3125 design's rows are their own sort:
    # a design made of them holds the array given, which a sort in place would
    # refuse once read-only
    d = develop(extend_field(thm62_z5(), 2))
    assert Design(d.carrier, d.blocks, d.k).blocks is d.blocks
    rows = d.blocks.copy()
    assert Design(d.carrier, rows, d.k).blocks is rows and not rows.flags.writeable
    rows = d.blocks.copy()
    rows[5000] = rows[5000, ::-1]  # the same point set: its slice is sorted, on a copy
    given = rows.copy()
    back = Design(d.carrier, rows, d.k)
    assert back.blocks is not rows and np.array_equal(rows, given)
    assert np.array_equal(back.blocks, d.blocks) and back == d
    assert np.array_equal(_packed_keys(back.blocks, d.v), _lexsorted_row_keys(rows, d.v))


# --- distinct rows from packed keys ------------------------------------------


@PROPERTY
@given(
    v=st.sampled_from([2, 7, 3125, 2**21]),
    k=st.integers(1, 7),
    b=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
)
@example(v=2**21, k=7, b=60, seed=1)
def test_unique_rows_match_numpy_unique(v, k, b, seed):
    # rows as given, unsorted; drawn from a few rows and a few points, so
    # that rows repeat and, at v = 2^21, first words tie
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, min(v, 3), size=(4, k))
    rows = np.concatenate([pool[rng.integers(4, size=b // 2)], rng.integers(0, v, size=(b - b // 2, k))])
    rows = rows[rng.permutation(b)]
    got, expected = _unique_rows(rows, v), np.unique(rows, axis=0, return_counts=True)
    assert got[0].dtype == expected[0].dtype and got[0].shape == expected[0].shape
    assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])


# --- lambda = 1 implies simple ------------------------------------------------


@PROPERTY
@given(name=st.sampled_from(["z5", "z7", "ag33", "planted-ag45"]), data=st.data())
def test_one_duplicated_block_is_never_lambda_one_and_simple(name, data, designs):
    d = _damage(designs[name], "duplicate", data)
    verdict = verify_design(d)
    assert not verdict.is_simple
    assert verdict.lambda_found != 1 and not verdict.is_design
