import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import difam.designs
import difam.groups
import difam.io
from difam.carrier import ProductCarrier
from difam.catalog import sigma_prime, thm62_z5, thm62_z7
from difam.designs import (
    AnomalyVerdict,
    Design,
    DesignError,
    DesignVerdict,
    SuperRegularVerdict,
    _block_lookup,
    _develop_rows,
    _orbit_rows,
    _pair_block_table,
    _pair_index,
    _pair_points,
    _table_lookup,
    ag_design,
    anomaly_witness,
    closure,
    develop,
    subspace_replace,
    verify_design,
    verify_developed,
    verify_super_regular,
)
from difam.diffs import GMultiset, blocks_of
from difam.families import RelativeDifferenceFamily
from difam.gf import FiniteField
from difam.groups import AbelianGroup
from difam.lifting import extend_field, simple_lift
from group_reference import ref
from test_anomaly_scan import capped_scan


@pytest.fixture(scope="module")
def z5_design():
    return develop(thm62_z5())


def test_develop_counts(z5_design):
    d = z5_design
    assert d.v == 125
    assert d.k == 5
    # 6 base blocks * 125 translates + 25 cosets of the forbidden line
    assert d.b == 6 * 125 + 25


def test_develop_refuses_broken_family():
    rdf = thm62_z5()
    carrier = rdf.group
    minus = carrier.encode(ref(carrier).neg(carrier.decode(7)))
    moved = carrier.sub_codes(rdf.blocks[0].codes, minus)
    broken = blocks_of(carrier, moved[None]) + rdf.blocks[1:]
    bad = RelativeDifferenceFamily(carrier, rdf.forbidden, 5, 1, broken)
    # translation preserves differences, so this still verifies; break it
    # harder by dropping a block instead
    worse = RelativeDifferenceFamily(carrier, rdf.forbidden, 5, 1, rdf.blocks[:5])
    with pytest.raises(DesignError):
        develop(worse)
    assert develop(bad).b == develop(rdf).b


def test_develop_forbidden_order_mismatch():
    rdf = thm62_z5()
    from difam.groups import Subgroup

    sub = Subgroup(rdf.group, [0])
    clone = RelativeDifferenceFamily(rdf.group, sub, 5, 1, rdf.blocks)
    with pytest.raises(DesignError):
        develop(clone)


def test_verify_design(z5_design):
    verdict = verify_design(z5_design)
    assert verdict.is_design
    assert verdict.lambda_found == 1
    assert verdict.is_simple
    assert verdict.replication_ok
    assert verdict.witness_pair is None


def test_verify_design_reports_witness(z5_design):
    damaged = Design(z5_design.carrier, z5_design.blocks[1:], 5)
    verdict = verify_design(damaged)
    assert not verdict.is_design
    assert verdict.lambda_found is None
    assert verdict.witness_pair is not None
    # the witness pair really is uncovered: it lay in the removed block
    u, w = verdict.witness_pair
    removed = set(z5_design.blocks[0])
    assert z5_design.carrier.encode(u) in removed
    assert z5_design.carrier.encode(w) in removed


def test_verify_design_too_few_blocks_skips_the_pair_counts():
    # one block on 2^22 points: the v*v count array would be 128 TiB
    tiny = Design(AbelianGroup((2**22,)), np.array([[0, 1]], dtype=np.int64), 2)
    tracemalloc.start()
    try:
        verdict = verify_design(tiny)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == DesignVerdict(False, None, True, False, ((0,), (2,)))
    assert peak < 2**20
    # no pair at all: every pair is covered 0 times, as the counts found
    assert verify_design(Design(AbelianGroup((5,)), np.array([[3]]), 1)) == DesignVerdict(
        False, 0, True, False, None
    )


@pytest.mark.parametrize("row", [[0, 1, 2, 3, 125], [-1, 1, 2, 3, 4], [0, 1, 2, 3, 10**6]])
@pytest.mark.parametrize(
    "verifier",
    [
        verify_design,
        lambda d: verify_super_regular(d, d.carrier),
        lambda d: anomaly_witness(d, 5),
        verify_developed,
    ],
    ids=["verify_design", "verify_super_regular", "anomaly_witness", "verify_developed"],
)
def test_verifiers_refuse_codes_outside_the_group(row, verifier, z5_design):
    # a code past v - 1 made up a witness or raised IndexError; a negative
    # one wrapped to a point from the end, and the verdict came from it.  No
    # design with such a code can be made for a verifier to read; the same
    # row taken mod v is a design, and the verifier answers it
    blocks = z5_design.blocks.astype(np.int64)  # 10**6 does not fit the int16 blocks
    blocks[0] = row
    with pytest.raises(DesignError, match="design points are not the elements of the given group"):
        Design(z5_design.carrier, blocks, 5)
    blocks[0] %= z5_design.v
    verifier(Design(z5_design.carrier, blocks, 5))  # no base rows: the scan takes the pair table


@pytest.mark.parametrize(
    "v,block",
    [(2**16, [40000, 40001]), (2**20, [70000, 70001]), (2**20, [0, 2**20 - 1])],
)
def test_verify_design_counts_int32_blocks_as_int64_ones(v, block):
    # the pair places were computed in the blocks' own type: on Z_65536 an
    # int32 place wrapped negative (IndexError), on Z_1048576 the least place
    # did not fit int32 (OverflowError)
    group = AbelianGroup((v,))
    narrow = Design(group, np.array([block], dtype=np.int64), 2)  # held as int32
    wide = Design(group, narrow.blocks, 2)
    # past the frozen field and the code-type rule: int64 blocks of the same codes
    object.__setattr__(wide, "blocks", narrow.blocks.astype(np.int64))
    assert narrow.blocks.dtype == np.int32
    expected = verify_design(wide)
    assert expected.witness_pair is not None
    assert verify_design(narrow) == expected
    assert verify_developed(narrow) == verify_developed(wide)


@pytest.mark.parametrize(
    "v,rows,dtype",
    [
        (5, np.array([[0, 4]], dtype=np.int64), np.int16),
        (5, np.array([[0, 4]], dtype=np.int8), np.int16),
        (5, np.array([[0, 4]], dtype=np.uint64), np.int16),
        (2**15, [[0, 2**15 - 1]], np.int16),
        (2**15 + 1, np.array([[0, 1]], dtype=np.int16), np.int32),
        (2**31 + 1, [[0, 2**31]], np.int64),
        (5, np.empty((0, 2)), np.int16),
    ],
)
def test_design_holds_its_blocks_in_the_least_code_type(v, rows, dtype):
    d = Design(AbelianGroup((v,)), rows, 2)
    assert d.blocks.dtype == dtype and d.blocks.flags.c_contiguous
    assert np.array_equal(d.blocks, rows)


@pytest.mark.parametrize("rows", [np.array([[0, 1.5]]), np.array([[0, 2**63]], dtype=np.uint64)])
def test_design_refuses_blocks_that_are_not_int64_codes(rows):
    with pytest.raises(DesignError):
        Design(AbelianGroup((5,)), rows, 2)


def test_design_checks_its_codes_when_made_and_holds_them_read_only(monkeypatch):
    group = AbelianGroup((5,))
    outside = "design points are not the elements of the given group"
    for kind in (np.int8, np.int16, np.int32, np.int64, np.uint64, list):
        for code in (-1, 5):
            rows = [[0, 1], [0, code]]
            given = rows if kind is list else np.array(rows).astype(kind)  # uint64 wraps -1
            with pytest.raises(DesignError, match=outside):
                Design(group, given, 2)
    with pytest.raises(DesignError, match=outside):  # cast to int16 first, it would be the point 1
        Design(group, np.array([[0, 2**16 + 1]]), 2)
    assert Design(group, np.empty((0, 2)), 2).b == 0
    design = Design(group, [[0, 4]], 2)
    assert not design.blocks.flags.writeable
    with pytest.raises(ValueError):
        design.blocks[0, 1] = 3
    # develop's rows are held as they are made, not copied
    made = []

    def develop_rows(rdf):
        made.append(_develop_rows(rdf))
        return made[-1]

    monkeypatch.setattr(difam.designs, "_develop_rows", develop_rows)
    assert np.shares_memory(develop(thm62_z5()).blocks, made[0])


def test_a_made_design_cannot_be_given_other_blocks():
    # assigning blocks once skipped the range check and the read-only flag:
    # Z_5 blocks [[0, 6]] made verify_design report a made-up witness
    group = AbelianGroup((5,))
    design = Design(group, [[0, 1]], 2)
    for name, value in (("blocks", np.array([[0, 6]])), ("k", 3), ("carrier", AbelianGroup((7,)))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(design, name, value)
    assert design.blocks.tolist() == [[0, 1]] and design.k == 2 and design.v == 5
    assert Design.__hash__ is None  # compared by content, so unhashable
    with pytest.raises(TypeError):
        hash(design)
    assert design == Design(group, np.array([[1, 0]], dtype=np.int64), 2)


@pytest.mark.parametrize("code", [125, -1, 10**6])
@pytest.mark.parametrize("row", [0, 2, 750])
def test_anomaly_scan_refuses_codes_outside_the_group_that_it_reads(row, code, z5_design):
    # the design refuses the code when it is made, whether or not a scan
    # would read its row: row 0 is in the first pair the scan decides, row 2
    # answers one of its lookups, and row 750 is a coset row of the oracle
    blocks = z5_design.blocks.astype(np.int64)  # 10**6 does not fit the int16 blocks
    blocks[row, -1] = code
    with pytest.raises(DesignError, match="design points are not the elements of the given group"):
        Design(z5_design.carrier, blocks, 5, _base=z5_design._base)


@pytest.mark.parametrize("code", [125, -1, 10**6])
def test_closure_refuses_points_outside_the_group(code, z5_design):
    # the blocks given are the one input a closure does not read from the
    # design.  The difference oracle answered -1 for the pairs of 125 and
    # the closure took it in as its 26th point; the pair table, without base
    # rows, did the same, and raised IndexError for 10**6
    one, two = [0, 30, 45, 101, code], z5_design.blocks[26].tolist()
    for design in z5_design, Design(z5_design.carrier, z5_design.blocks, 5):  # oracle, table
        with pytest.raises(DesignError, match="design points are not the elements of the given"):
            closure(design, one, two, max_points=25)


def test_verify_design_witness_just_past_the_covered_places():
    # two pair slots fill places 0 and 1 of a 3-place window: the last, (0, 3), is missed
    d = Design(AbelianGroup((5,)), np.array([[0, 1], [0, 2]]), 2)
    assert verify_design(d) == DesignVerdict(False, None, True, False, ((0,), (3,)))


def test_pair_points_inverts_pair_index():
    for v in range(2, 65):
        pairs = [(u, w) for u in range(v) for w in range(u + 1, v)]
        assert [_pair_index(u, w, v) for u, w in pairs] == list(range(len(pairs)))
        assert [_pair_points(t, v) for t in range(len(pairs))] == pairs
    v = 2**22
    last = v * (v - 1) // 2 - 1
    for t, pair in [(0, (0, 1)), (v - 2, (0, v - 1)), (v - 1, (1, 2)), (last, (v - 2, v - 1))]:
        assert _pair_points(t, v) == pair
        assert _pair_index(*pair, v) == t
    interior = _pair_index(1_234_567, 3_000_000, v)
    assert _pair_points(interior, v) == (1_234_567, 3_000_000)


@pytest.mark.parametrize("copies", [300, 70_000])
def test_verify_design_counts_past_small_dtypes(copies):
    # every pair of Z_3 is covered `copies` times: more than uint8, then uint16, holds
    repeated = Design(AbelianGroup((3,)), np.repeat(np.array([[0, 1, 2]]), copies, axis=0), 3)
    assert verify_design(repeated) == DesignVerdict(True, copies, False, True, None)


def test_verify_design_simple_means_no_block_repeats_for_rows_out_of_order():
    # rows that do not strictly increase fail the design, but simplicity
    # still asks only whether a block (as a point set) repeats
    z3 = AbelianGroup((3,))
    assert verify_design(Design(z3, np.array([[0, 0, 0]]), 3)) == DesignVerdict(
        False, None, True, False, None
    )
    one = Design(z3, np.array([[2, 0, 1]]), 3)
    assert verify_design(one) == DesignVerdict(False, None, True, False, None)
    two = Design(z3, np.array([[2, 0, 1], [1, 2, 0]]), 3)
    assert verify_design(two) == DesignVerdict(False, None, False, False, None)
    repeats = Design(z3, np.array([[0, 0, 1], [0, 1, 1]]), 3)
    assert verify_design(repeats).is_simple


def test_verify_design_without_blocks_is_simple():
    # no block can repeat: not a design, but simple (it used to say not simple)
    z3 = AbelianGroup((3,))
    empty = Design(z3, np.empty((0, 2), dtype=np.int64), 2)
    assert verify_design(empty) == DesignVerdict(False, None, True, False, None)
    # blocks of no points: one is simple, two are the same block twice
    assert verify_design(Design(z3, np.empty((1, 0), dtype=np.int64), 0)).is_simple
    assert not verify_design(Design(z3, np.empty((2, 0), dtype=np.int64), 0)).is_simple


def test_anomaly_witness_refuses_a_wrong_block_count():
    tiny = Design(AbelianGroup((2**22,)), np.array([[0, 1]], dtype=np.int64), 2)
    with pytest.raises(DesignError, match="cannot be a 2-"):
        anomaly_witness(tiny, 2)


def test_super_regular(z5_design):
    verdict = verify_super_regular(z5_design, z5_design.carrier)
    assert verdict.is_regular
    assert verdict.is_strictly_additive
    assert verdict.is_super_regular


def test_super_regular_breaks_under_block_swap(z5_design):
    # replace one block by a 5-set that is not a translate of anything else
    blocks = z5_design.blocks.copy()
    blocks[0] = np.array([0, 1, 2, 3, 7], dtype=np.int64)
    damaged = Design(z5_design.carrier, blocks, 5)
    verdict = verify_super_regular(damaged, damaged.carrier)
    assert not verdict.is_regular


def test_super_regular_takes_blocks_as_point_sets():
    # {0,0,0} on Z_3 is not translation-invariant: its translate is {1,1,1}
    z3 = AbelianGroup((3,))
    one = Design(z3, np.array([[0, 0, 0]]), 3)
    assert verify_super_regular(one, z3) == SuperRegularVerdict(False, True)
    orbit = Design(z3, np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]]), 3)
    assert verify_super_regular(orbit, z3) == SuperRegularVerdict(True, True)
    # unsorted rows are the same point sets as their sorted forms
    pairs = Design(z3, np.array([[1, 0], [1, 2], [0, 2]]), 2)
    assert verify_super_regular(pairs, z3) == SuperRegularVerdict(True, False)


def test_super_regular_refuses_empty_blocks():
    g = AbelianGroup((5,))
    for blocks in (np.empty((3, 0), dtype=np.int64), np.empty((0, 0), dtype=np.int64)):
        with pytest.raises(DesignError):
            verify_super_regular(Design(g, blocks, 0), g)


def test_super_regular_group_mismatch(z5_design):
    with pytest.raises(DesignError):
        verify_super_regular(z5_design, AbelianGroup((625,)))


def test_design_equality_compares_block_multisets(z5_design):
    # the dataclass __eq__ compared the block arrays with ==, which raises
    back = difam.io.parse_family(difam.io.render_family(z5_design))
    assert back is not z5_design and back == z5_design
    rng = np.random.default_rng(0)
    shuffled = z5_design.blocks[rng.permutation(z5_design.b)][:, ::-1]
    assert Design(z5_design.carrier, shuffled, 5) == z5_design
    moved = z5_design.blocks.copy()
    moved[3, 2] = (moved[3, 2] + 1) % z5_design.v
    assert Design(z5_design.carrier, moved, 5) != z5_design
    assert Design(z5_design.carrier, z5_design.blocks[1:], 5) != z5_design
    assert Design(AbelianGroup((625,)), z5_design.blocks, 5) != z5_design
    doubled = ag_design(2, 3)
    assert Design(doubled.carrier, doubled.blocks[[0, 0, *range(2, 12)]], 3) != doubled
    assert (z5_design == "design") is False and z5_design != None  # noqa: E711
    with pytest.raises(TypeError):
        hash(z5_design)


def test_design_equality_compares_codes_outside_the_group_exactly():
    # 5 * 1 + 1 == 5 * 0 + 6: packed base 5, the two rows would share one key,
    # so a code outside 0..v-1 is refused before a Design can be compared
    group = AbelianGroup((5,))
    outside = "design points are not the elements of the given group"
    for rows in ([[0, 6]], [[6, 0], [-1, 3]], [[3, -1], [0, 6]]):
        with pytest.raises(DesignError, match=outside):
            Design(group, np.array(rows), 2)
    one, other = Design(group, np.array([[1, 1]]), 2), Design(group, np.array([[0, 1]]), 2)
    assert one != other and other != one
    assert one == Design(group, np.array([[1, 1]]), 2) and other == other
    # rows in another order, and points within a row in another order
    two = Design(group, np.array([[4, 0], [1, 3]]), 2)
    assert two == Design(group, np.array([[3, 1], [0, 4]]), 2)
    assert two != Design(group, np.array([[3, 1], [1, 4]]), 2)
    assert Design(group, np.array([[0, 4], [4, 0]]), 2) == Design(group, np.array([[0, 4]] * 2), 2)


def test_design_equality_tells_product_carriers_apart(z5_design):
    # Z_5^3, Z_5 x GF(25, 2,1,1) and Z_5 x GF(25, 2,4,1) share their cyclic
    # orders; the same codes on each are three different designs
    assert z5_design.carrier.field.modulus == (2, 1, 1)
    flat = Design(AbelianGroup((5, 5, 5)), z5_design.blocks, 5)
    other = ProductCarrier(AbelianGroup((5,)), FiniteField(5, 2, (2, 4, 1)))
    twin = Design(other, z5_design.blocks, 5)
    assert flat != z5_design and z5_design != flat
    assert twin != z5_design and twin != flat
    assert flat == Design(AbelianGroup((5, 5, 5)), z5_design.blocks[::-1], 5)
    with pytest.raises(DesignError, match="not the elements"):
        verify_super_regular(z5_design, flat.carrier)
    with pytest.raises(DesignError, match="p\\^n coordinate subspace"):
        subspace_replace(4, 3, 5, z5_design)


def test_ag_design_counts():
    d = ag_design(2, 5)
    assert d.v == 25
    assert d.b == 30  # (25 * 24) / (5 * 4)
    assert verify_design(d).is_design
    d3 = ag_design(3, 3)
    assert d3.b == 27 * 26 // (3 * 2)
    assert verify_design(d3).is_design
    with pytest.raises(DesignError):
        ag_design(1, 5)


def _reference_ag_blocks(n, p):
    """Lines of AG(n,p) by a per-point walk: for each direction, the line
    from every start point not yet covered, in lexicographic order."""
    carrier = AbelianGroup((p,) * n)
    directions = []
    for e in carrier.elements():
        nz = next((i for i, c in enumerate(e) if c), None)
        if nz is not None and e[nz] == 1:
            directions.append(e)
    blocks = []
    for d in directions:
        seen = np.zeros(carrier.order, dtype=bool)
        for start in carrier.elements():
            if seen[carrier.encode(start)]:
                continue
            line = []
            x = start
            for _ in range(p):
                c = carrier.encode(x)
                seen[c] = True
                line.append(c)
                x = ref(carrier).add(x, d)
            blocks.append(sorted(line))
    return np.array(blocks, dtype=np.int64)


@pytest.mark.parametrize("n,p", [(2, 3), (3, 5), (4, 5)])
def test_ag_design_matches_reference_walk(n, p):
    d = ag_design(n, p)
    assert d.carrier == AbelianGroup((p,) * n)
    assert d.k == p
    assert d.blocks.dtype == np.int16  # the least code type: v - 1 < 2^15
    assert np.array_equal(d.blocks, _reference_ag_blocks(n, p))


def test_ag_design_rejects_non_prime():
    for p in (0, 1, 4, 6, 9):
        with pytest.raises(DesignError):
            ag_design(2, p)


def test_ag_design_is_super_regular():
    d = ag_design(2, 5)
    verdict = verify_super_regular(d, d.carrier)
    assert verdict.is_super_regular


def test_closure_of_ag_lines_is_plane():
    d = ag_design(3, 3)
    # two lines through the origin spanning distinct directions
    b1 = next(i for i in range(d.b) if 0 in d.blocks[i])
    b2 = next(i for i in range(b1 + 1, d.b) if 0 in d.blocks[i])
    cl = closure(d, d.blocks[b1], d.blocks[b2])
    assert len(cl) == 9


def test_closure_error_cases():
    d = ag_design(2, 3)
    with pytest.raises(DesignError):
        closure(d, d.blocks[0], d.blocks[0])
    disjoint = next(
        i
        for i in range(1, d.b)
        if not set(map(int, d.blocks[i])) & set(map(int, d.blocks[0]))
    )
    with pytest.raises(DesignError):
        closure(d, d.blocks[0], d.blocks[disjoint])


def _reference_closure(design, block1, block2):
    """Add every block that holds two members until nothing changes."""
    members = np.zeros(design.v, dtype=bool)
    members[list(map(int, block1)) + list(map(int, block2))] = True
    while True:
        grow = design.blocks[members[design.blocks].sum(axis=1) >= 2]
        if members[grow].all():
            return set(np.flatnonzero(members).tolist())
        members[grow] = True


def _queue_closure(design, block1, block2, table):
    """A LIFO queue of member pairs, each pair's block walked in full;
    `table` is `_reference_pair_block_table`."""
    v, rows, table = design.v, design.blocks.tolist(), table.tolist()
    pts = sorted(set(map(int, block1)) | set(map(int, block2)))
    members = set(pts)
    queue = [(u, w) for i, u in enumerate(pts) for w in pts[i + 1 :]]
    while queue:
        u, w = queue.pop()
        bi = table[u * v + w if u < w else w * v + u]
        if bi < 0:
            raise DesignError(f"no block through pair ({u}, {w}); design is not Steiner")
        for c in rows[bi]:
            if c not in members:
                queue.extend((c, m) for m in members)
                members.add(c)
    return members


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), None], ids=["ag23", "ag33", "z5"])
def test_closure_matches_reference(dims, z5_design):
    d = z5_design if dims is None else ag_design(*dims)
    through0 = [i for i in range(d.b) if 0 in d.blocks[i]]
    table = _table_lookup(d)
    rows = {}
    for a in range(len(through0)):
        for b in range(a + 1, len(through0)):
            b1, b2 = d.blocks[through0[a]], d.blocks[through0[b]]
            expected = _reference_closure(d, b1, b2)
            assert closure(d, b1, b2) == expected
            assert closure(d, b1, b2, _lookup=table, _rows=rows) == expected
    assert rows and all(rows[bi] == d.blocks[bi].tolist() for bi in rows)


def test_closure_raises_on_missing_block():
    d = ag_design(2, 3)
    damaged = Design(d.carrier, d.blocks[1:], 3)  # the line {0, 1, 2} is gone
    through = [i for i in range(damaged.b) if 4 in damaged.blocks[i]]
    with pytest.raises(DesignError, match="not Steiner"):
        closure(damaged, damaged.blocks[through[0]], damaged.blocks[through[1]])


def test_anomaly_witness_pinned_verdicts(z5_design):
    assert anomaly_witness(z5_design, 5) == AnomalyVerdict(True, (0, 26), 26, False, 1)
    flat = Design(AbelianGroup((5, 5, 5)), z5_design.blocks, 5)
    planted = subspace_replace(4, 3, 5, flat)
    assert anomaly_witness(planted, 5) == AnomalyVerdict(True, (0, 225), 26, False, 1)
    assert capped_scan(ag_design(3, 5), 5, 50) == AnomalyVerdict(
        False, None, None, True, 50
    )


def _count_closures(monkeypatch):
    # the benchmark counts closures by wrapping designs.closure, so the scan
    # must call it through the module
    calls = []
    real = difam.designs.closure

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(difam.designs, "closure", counting)
    return calls


def test_anomaly_witness_certifies_planes_without_closures(monkeypatch):
    # every pair of AG(3,5) closes to a plane, and the certificate decides each
    calls = _count_closures(monkeypatch)
    assert capped_scan(ag_design(3, 5), 5, 50).closures_scanned == 50
    assert len(calls) == 0


def test_anomaly_witness_scans_every_pair_of_ag35(monkeypatch):
    # all 8,525 pairs of lines of AG(3,5) that share their least point, under
    # the default cap of 10^4: every closure is a plane, so the scan ends open
    calls = _count_closures(monkeypatch)
    assert anomaly_witness(ag_design(3, 5), 5) == AnomalyVerdict(False, None, None, True, 8525)
    assert len(calls) == 0


def test_anomaly_witness_closes_the_planted_witness_through_the_module(monkeypatch, z5_design):
    flat = Design(AbelianGroup((5, 5, 5)), z5_design.blocks, 5)
    planted = subspace_replace(4, 3, 5, flat)
    calls = _count_closures(monkeypatch)
    assert anomaly_witness(planted, 5).witness == (0, 225)
    assert len(calls) == 1


def test_anomaly_witness_certifies_chunks_that_double(monkeypatch, z5_design):
    # chunks of 1, 2, 4, ... pairs up to 2^16 lookups, C(25,2) = 300 per pair:
    # a scan that ends at its first pair certifies that pair alone
    sizes = []
    real = difam.designs._plane_certificates

    def recording(design, table, pairs, verdicts):
        sizes.append(len(pairs))
        return real(design, table, pairs, verdicts)

    monkeypatch.setattr(difam.designs, "_plane_certificates", recording)
    anomaly_witness(z5_design, 5)
    assert sizes == [1]
    sizes.clear()
    anomaly_witness(ag_design(3, 5), 5)
    most = 2**16 // 300
    assert sizes[:9] == [1, 2, 4, 8, 16, 32, 64, 128, most]
    assert set(sizes[9:-1]) == {most} and sum(sizes) == 8525


def test_anomaly_witness_under_a_cap_of_one_decides_one_pair():
    d = ag_design(2, 3)
    assert capped_scan(d, 3, 1) == AnomalyVerdict(False, None, None, True, 1)


@pytest.fixture(scope="module")
def closure_designs(z5_design):
    flat = Design(AbelianGroup((5, 5, 5)), z5_design.blocks, 5)
    designs = {
        "ag23": ag_design(2, 3),
        "ag33": ag_design(3, 3),
        "ag35": ag_design(3, 5),
        "z5": z5_design,
        "z7": develop(thm62_z7()),
        "planted-ag45": subspace_replace(4, 3, 5, flat),
    }
    return {
        name: (d, _table_lookup(d), _reference_pair_block_table(d))
        for name, d in designs.items()
    }


@settings(database=None, derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_closure_agrees_with_both_oracles(closure_designs, data):
    name = data.draw(st.sampled_from(sorted(closure_designs)), label="design")
    d, table, ref_table = closure_designs[name]
    a = data.draw(st.integers(0, d.b - 1), label="first block")
    meets_once = np.isin(d.blocks, d.blocks[a]).sum(axis=1) == 1
    b = data.draw(st.sampled_from(np.flatnonzero(meets_once).tolist()), label="second block")
    b1, b2 = d.blocks[a], d.blocks[b]
    expected = _queue_closure(d, b1, b2, ref_table)
    assert expected == _reference_closure(d, b1, b2)
    assert closure(d, b1, b2) == expected
    rows = {}
    assert closure(d, b1, b2, _lookup=table, _rows=rows) == expected
    assert all(rows[bi] == d.blocks[bi].tolist() for bi in rows)
    # capped at a plane: a part of the closure, one point past the cap if it is larger
    cap = d.k * d.k
    capped = closure(d, b1, b2, max_points=cap, _lookup=table)
    assert capped <= expected and len(capped) == min(len(expected), cap + 1)
    # one block gone: the closure fails exactly when the oracle does
    gone = data.draw(st.integers(0, d.b - 1), label="dropped block")
    damaged = Design(d.carrier, np.delete(d.blocks, gone, axis=0), d.k)
    try:
        expected = _queue_closure(damaged, b1, b2, _reference_pair_block_table(damaged))
    except DesignError:
        with pytest.raises(DesignError, match="not Steiner"):
            closure(damaged, b1, b2)
    else:
        assert closure(damaged, b1, b2) == expected


def _recording(lookup, calls):
    """The lookup, recording the (u, w) arrays of every call."""

    def record(u, w):
        calls.append((u.copy(), w.copy()))
        return lookup(u, w)

    return record


@pytest.mark.parametrize("cap", [None, 1000], ids=["default-slice", "slice-1000"])
def test_uncapped_closure_looks_up_in_bounded_slices(closure_designs, monkeypatch, cap):
    # an uncapped closure once made all lookups of a batch in one call (1.04 GiB
    # on a 16,807-point design); sliced, it walks the same pairs in the same order
    d = closure_designs["z7"][0]
    b1, b2 = [d.blocks[i] for i in np.flatnonzero((d.blocks == 0).any(axis=1))[:2]]
    lookup, most = _block_lookup(d), cap or difam.designs._CLOSURE_LOOKUPS
    whole = []
    monkeypatch.setattr(difam.designs, "_CLOSURE_LOOKUPS", 10**9)
    assert closure(d, b1, b2, _lookup=_recording(lookup, whole)) == set(range(343))
    monkeypatch.setattr(difam.designs, "_CLOSURE_LOOKUPS", most)
    calls = []
    assert closure(d, b1, b2, _lookup=_recording(lookup, calls)) == set(range(343))
    assert all(u.size <= most for u, _ in calls)
    assert sum(u.size for u, _ in calls) == 343 * 342 // 2  # every pair once
    for i in (0, 1):
        assert np.array_equal(np.concatenate([c[i] for c in calls]),
                              np.concatenate([c[i] for c in whole]))
    if cap is not None:
        assert len(calls) > len(whole)  # some batch was cut


def test_anomaly_witness_found(z5_design):
    verdict = anomaly_witness(z5_design, 5)
    assert verdict.anomalous
    assert verdict.closure_size > 25
    assert not verdict.inconclusive


def test_anomaly_witness_inconclusive_on_ag():
    d = ag_design(3, 5)
    verdict = capped_scan(d, 5, 50)
    assert not verdict.anomalous
    assert verdict.inconclusive


def test_anomaly_witness_parameter_errors(z5_design):
    with pytest.raises(DesignError):
        anomaly_witness(z5_design, 3)
    d = ag_design(2, 3)
    with pytest.raises(DesignError):
        anomaly_witness(Design(d.carrier, d.blocks, 3), 9)


def test_anomaly_witness_rejects_p_below_two(z5_design):
    # p=1 would never leave the power-of-p loop, p=0 would divide by zero
    for p in (1, 0, -5):
        with pytest.raises(DesignError):
            anomaly_witness(z5_design, p)


def test_subspace_replace_identity():
    d = ag_design(2, 3)
    assert subspace_replace(2, 2, 3, d) is d


def test_subspace_replace_embeds(z5_design):
    # the 125-point design re-coordinatized on Z_5^3 and pushed into AG(4,5)
    flat = Design(AbelianGroup((5, 5, 5)), z5_design.blocks, 5)
    big = subspace_replace(4, 3, 5, flat)
    assert big.v == 5**4
    verdict = verify_design(big)
    assert verdict.is_design
    assert verdict.lambda_found == 1
    witness = anomaly_witness(big, 5)
    assert witness.anomalous


def test_subspace_replace_scales_int16_codes_past_int16():
    # the line x_2 = 0 of AG(2,191), on Z_191, is held in int16; its codes
    # times 191 pass 2^15 and wrapped negative when scaled in that type
    line = Design(AbelianGroup((191,)), [list(range(191))], 191)
    assert line.blocks.dtype == np.int16
    assert subspace_replace(2, 1, 191, line) == ag_design(2, 191)


def test_subspace_replace_refuses_blocks_of_the_wrong_size():
    # 2-point blocks on Z_3^2 cannot stand in for the 3-point lines of AG(3,3)
    pairs = Design(AbelianGroup((3, 3)), np.array([[0, 1], [0, 2]]), 2)
    with pytest.raises(DesignError, match="blocks of size 2, need 3"):
        subspace_replace(3, 2, 3, pairs)


def _reference_subspace_replace(m, n, p, anomalous_design):
    """Row loops over point codes: keep every line of AG(m,p) with a point
    outside the subspace, then embed each block point by point."""
    big = ag_design(m, p)
    carrier = big.carrier
    small = anomalous_design.carrier
    sub_codes = {carrier.encode(tuple(e) + (0,) * (m - n)) for e in small.elements()}
    keep = [row for row in big.blocks if not all(int(c) in sub_codes for c in row)]
    embedded = [
        sorted(carrier.encode(tuple(small.decode(int(c))) + (0,) * (m - n)) for c in row)
        for row in anomalous_design.blocks
    ]
    return np.concatenate([np.array(keep, dtype=np.int64), np.array(embedded, dtype=np.int64)])


@pytest.mark.parametrize("m,n,p", [(4, 3, 5), (5, 3, 5), (3, 2, 3), (4, 2, 3), (3, 3, 3)])
def test_subspace_replace_matches_row_loops(m, n, p, z5_design):
    if (n, p) == (3, 5):
        small = Design(AbelianGroup((5, 5, 5)), z5_design.blocks, 5)
    else:  # AG(n,p) with its points relabelled and its rows left unsorted
        flat = ag_design(n, p)
        relabel = np.random.default_rng(3).permutation(flat.v)
        small = Design(flat.carrier, relabel[flat.blocks], p)
    got = subspace_replace(m, n, p, small)
    assert got.carrier == AbelianGroup((p,) * m)
    if m == n:
        assert got is small
    else:
        assert np.array_equal(got.blocks, _reference_subspace_replace(m, n, p, small))


def test_ag_design_refuses_more_lines_than_the_cap():
    # AG(24,2) has 2^23 (2^24 - 1) lines: 3 GiB of rows
    for n, p in [(24, 2), (11, 5), (10**9, 3)]:
        with pytest.raises(DesignError, match="lines"):
            ag_design(n, p)
    assert ag_design(2, 2).b == 6
    # design files are held to the same cap, under its old name too
    assert difam.io.MAX_DESIGN_BLOCKS == difam.designs.MAX_DESIGN_BLOCKS == 2**24


def test_designs_are_bounded_by_block_points(monkeypatch):
    # AG(2,1021) has 1,043,462 lines, under the line cap, but 1.07e9 block
    # points: 8.5 GB of rows
    def refused(*args, **kwargs):
        raise AssertionError("allocated")

    # the 16,807-point design (b = 6,725,201, k = 7) fits
    assert 6_725_201 * 7 <= difam.designs.MAX_DESIGN_POINTS < 2**28
    three = _copies(thm62_z5(), 3)
    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", refused)
        patch.setattr(np, "zeros", refused)
        with pytest.raises(DesignError, match="1065374702 block points"):
            ag_design(2, 1021)
    monkeypatch.setattr(difam.designs, "MAX_DESIGN_POINTS", 3 * 6 * 125 * 5)
    with pytest.raises(difam.designs.DesignTooLarge, match="block points"):
        difam.designs._develop_rows(three)  # 2,250 translates and 75 coset rows


def _copies(rdf, copies):
    """The family with every base block taken `copies` times: lambda times `copies`."""
    return RelativeDifferenceFamily(
        rdf.group, rdf.forbidden, rdf.k, rdf.lam * copies, rdf.blocks * copies
    )


def test_verify_design_sizes_its_window_before_making_it(monkeypatch):
    # AG(2,257)'s shape: v = 66,049, b = 66,306, k = 257, blocks from
    # np.zeros, which touches no page until read; its one-byte counts take
    # 2,181,202,176 bytes, just over the cap
    d = Design(AbelianGroup((257, 257)), np.zeros((66306, 257), dtype=np.int64), 257)

    def refused(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(np, "zeros", refused)
    with pytest.raises(DesignError, match="2.03 GiB, over the 2.00 GiB cap"):
        verify_design(d)
    # the 16,807-point design's window: 141,229,221 one-byte counts, 141 MB;
    # a uint32 recount of it would fit too
    window = min(16807 * 16806 // 2, 6_725_201 * 21 + 1)
    assert window * 4 <= difam.designs.MAX_PAIR_TABLE_BYTES


def test_verify_design_sizes_its_recount_before_making_it(monkeypatch):
    # {0, 1, 2} over Z_3 taken 300 times: the bytes wrap, and the window of
    # three places takes 3 bytes, or 6 as uint16 counts
    d = Design(AbelianGroup((3,)), np.tile(np.arange(3), (300, 1)), 3)
    made = []
    zeros = np.zeros

    def recorded(shape, dtype=float, **kwargs):
        made.append(np.dtype(dtype))
        return zeros(shape, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "zeros", recorded)
    monkeypatch.setattr(difam.designs, "MAX_PAIR_TABLE_BYTES", 5)
    with pytest.raises(difam.designs.DesignTooLarge, match="pair counts"):
        verify_design(d)
    assert made == [np.dtype(np.uint8)]


@pytest.mark.parametrize("k,rows", [(2, 4096), (7, 4096), (9, 3640), (257, 3), (600, 1)])
def test_verify_design_slices_blocks_by_pair_count(k, rows):
    assert difam.designs._slice_rows(k) == rows


def test_subspace_replace_errors():
    d = ag_design(2, 3)
    with pytest.raises(DesignError):
        subspace_replace(1, 2, 3, d)
    with pytest.raises(DesignError):
        subspace_replace(3, 2, 5, d)  # carrier is Z_3^2, not Z_5^2


# --- the sliced array builders against the unsliced ones they replaced ------


def _reference_develop_rows(rdf):
    """Translates of all base blocks at once, as one (s,|G|,k,rank) tensor."""
    carrier = rdf.group
    orders = np.array(carrier.cyclic_orders, dtype=np.int64)
    all_elems = np.array(list(carrier.elements()), dtype=np.int64)
    base = np.array([[list(e) for e in b.expand()] for b in rdf.blocks], dtype=np.int64)
    translated = (base[:, None, :, :] + all_elems[None, :, None, :]) % orders
    rows = carrier.encode_array(translated).reshape(-1, rdf.k)
    rows.sort(axis=1)
    return rows


def _reference_verify_design(design):
    v, k = design.v, design.k
    arr = design.blocks.astype(np.int64)  # arr * v below: an int16 product wraps
    if arr.size == 0:
        return DesignVerdict(False, None, False, False, None)
    if np.any(np.diff(arr, axis=1) <= 0):
        simple = np.unique(np.sort(arr, axis=1), axis=0).shape[0] == arr.shape[0]
        return DesignVerdict(False, None, simple, False, None)
    i_idx, j_idx = np.triu_indices(k, 1)
    codes = (arr[:, i_idx] * v + arr[:, j_idx]).ravel()
    counts = np.bincount(codes, minlength=v * v)
    u_idx, w_idx = np.triu_indices(v, 1)
    pair_counts = counts[u_idx * v + w_idx]
    lam = int(pair_counts[0])
    bad = np.nonzero(pair_counts != lam)[0]
    witness = None
    ok = bad.size == 0 and lam >= 1
    if bad.size:
        u, w = int(u_idx[bad[0]]), int(w_idx[bad[0]])
        witness = (design.carrier.decode(u), design.carrier.decode(w))
        lam_found = None
    else:
        lam_found = lam
    simple = np.unique(arr, axis=0).shape[0] == arr.shape[0]
    repl_ok = False
    if ok:
        r, rem = divmod(lam * (v - 1), k - 1)
        point_counts = np.bincount(arr.ravel(), minlength=v)
        repl_ok = rem == 0 and bool(np.all(point_counts == r))
    return DesignVerdict(ok and repl_ok, lam_found, simple, repl_ok, witness)


def _reference_orbit_size(carrier, rep_row):
    pts = [carrier.decode(int(c)) for c in rep_row]
    target = tuple(sorted(rep_row))
    stab = 0
    for g in pts:
        translated = tuple(sorted(carrier.encode(ref(carrier).add(x, g)) for x in pts))
        if translated == target:
            stab += 1
    return carrier.order // stab


def _reference_verify_super_regular(design):
    """Canonical forms counted in a dict, orbit sizes by translating each
    representative by its own points."""
    carrier = design.carrier
    v, k = design.v, design.k
    orders = np.array(carrier.cyclic_orders, dtype=np.int64)
    arr = design.blocks
    coords = carrier.decode_array(arr.ravel()).reshape(arr.shape[0], k, carrier.rank)
    additive = bool(np.all(coords.sum(axis=1) % orders == 0))
    cand = (coords[:, None, :, :] - coords[:, :, None, :]) % orders
    rows = carrier.encode_array(cand)  # (b, k, k)
    rows.sort(axis=2)
    canon = {}
    if v**k < 2**62:
        weights = np.array([v ** (k - 1 - i) for i in range(k)], dtype=np.int64)
        canon_scalar = (rows @ weights).min(axis=1)
        own_scalar = arr @ weights
        for rep, own in zip(canon_scalar.tolist(), own_scalar.tolist()):
            canon.setdefault(rep, {}).setdefault(own, 0)
            canon[rep][own] += 1

        def rep_row(rep_scalar):
            digits = []
            for _ in range(k):
                digits.append(rep_scalar % v)
                rep_scalar //= v
            return tuple(reversed(digits))

    else:
        for b in range(arr.shape[0]):
            rep = min(tuple(r) for r in rows[b].tolist())
            own = tuple(arr[b].tolist())
            canon.setdefault(rep, {}).setdefault(own, 0)
            canon[rep][own] += 1

        def rep_row(rep_tuple):
            return rep_tuple

    regular = True
    for rep, members in canon.items():
        if len(set(members.values())) != 1:
            regular = False
            break
        if len(members) != _reference_orbit_size(carrier, rep_row(rep)):
            regular = False
            break
    return SuperRegularVerdict(regular, additive)


def _reference_pair_block_table(design):
    v, k = design.v, design.k
    table = np.full(v * v, -1, dtype=np.int64)
    i_idx, j_idx = np.triu_indices(k, 1)
    blocks = design.blocks.astype(np.int64)  # blocks * v: an int16 product wraps
    codes = blocks[:, i_idx] * v + blocks[:, j_idx]
    table[codes.ravel()] = np.repeat(np.arange(design.b), codes.shape[1])
    return table


def _sigma_prime_rdf():
    return simple_lift(sigma_prime(), FiniteField(5, 2, (2, 1, 1)), signed=True)


@pytest.fixture(scope="module")
def equivalence_designs(z5_design):
    flat = Design(AbelianGroup((5, 5, 5)), z5_design.blocks, 5)
    return {
        "z5": z5_design,
        "z7": develop(thm62_z7()),
        "ag33": ag_design(3, 3),
        "planted-ag45": subspace_replace(4, 3, 5, flat),
        "sigma-prime": develop(_sigma_prime_rdf()),
    }


def _damaged(design, how):
    rng = np.random.default_rng(7)
    blocks = design.blocks
    if how == "drop":
        blocks = np.delete(blocks, 3, axis=0)
    elif how == "dup":
        blocks = np.insert(blocks, 5, blocks[2], axis=0)
    elif how == "dup-all":
        blocks = np.concatenate([blocks, blocks])
    elif how == "swap":
        blocks = blocks.copy()
        blocks[4] = np.sort(rng.choice(design.v, design.k, replace=False))
    elif how == "permute":
        blocks = blocks[rng.permutation(design.b)]
    elif how == "unsorted":
        blocks = blocks.copy()
        blocks[6] = blocks[6][::-1]
    return Design(design.carrier, blocks, design.k)


@pytest.fixture(params=[None, 7], ids=["default-chunk", "chunk-7"])
def chunk(request, monkeypatch):
    if request.param is not None:  # groups' _CHUNK sizes the batches of `_orbit_rows`
        monkeypatch.setattr(difam.designs, "_CHUNK", request.param)
        monkeypatch.setattr(difam.groups, "_CHUNK", request.param)


@pytest.fixture(scope="module")
def unsliced_results():
    """(design, damage) -> the unsliced builders' results, shared by both slice sizes."""
    return {}


_DAMAGES = [None, "drop", "dup", "dup-all", "swap", "permute", "unsorted"]
# sigma' (k = 15: the tuple branch) costs about a second per copy in the
# reference loop, so it takes the damages that change one of its verdicts
_CASES = [(name, how) for name in ("z5", "z7", "ag33", "planted-ag45") for how in _DAMAGES]
_CASES += [("sigma-prime", how) for how in (None, "drop", "dup", "swap")]


@pytest.mark.parametrize("name,how", _CASES)
def test_sliced_builders_match_unsliced(name, how, chunk, equivalence_designs, unsliced_results):
    d = equivalence_designs[name]
    if how is not None:
        d = _damaged(d, how)
    if (name, how) not in unsliced_results:
        unsliced_results[name, how] = (
            _reference_verify_design(d),
            _reference_verify_super_regular(d),
            _reference_pair_block_table(d),
        )
    design_verdict, super_regular_verdict, table = unsliced_results[name, how]
    got = verify_design(d)
    assert got == design_verdict
    assert type(got.is_design) is bool and type(got.is_simple) is bool  # they go into JSON certs
    assert verify_super_regular(d, d.carrier) == super_regular_verdict
    got = _pair_block_table(d)
    assert got.dtype == np.int32
    assert np.array_equal(got, table)


@pytest.mark.parametrize("make", [thm62_z5, thm62_z7, _sigma_prime_rdf])
def test_develop_rows_match_unsliced(make):
    rdf = make()
    d = develop(rdf)
    rows = _reference_develop_rows(rdf)
    assert np.array_equal(d.blocks[: rows.shape[0]], rows)


@pytest.mark.parametrize("copies", [None, 3])
@pytest.mark.parametrize("make", [thm62_z5, _sigma_prime_rdf])
def test_develop_matches_concatenated_reference(make, copies):
    # the coset rows follow the translates: lam copies of each distinct coset;
    # with copies = 3 every base block is taken three times, a lambda = 3 family
    rdf = make() if copies is None else _copies(make(), copies)
    lam = rdf.lam
    carrier = rdf.group
    orders = np.array(carrier.cyclic_orders, dtype=np.int64)
    all_elems = np.array(list(carrier.elements()), dtype=np.int64)
    chunks = [_reference_develop_rows(rdf)]
    for sub in rdf.forbidden_members():
        cosets = (carrier.decode_array(sub.codes)[None, :, :] + all_elems[:, None, :]) % orders
        coset_rows = carrier.encode_array(cosets)
        coset_rows.sort(axis=1)
        chunks.append(np.repeat(np.unique(coset_rows, axis=0), lam, axis=0))
    assert np.array_equal(develop(rdf).blocks, np.concatenate(chunks))


def test_super_regular_without_blocks(chunk):
    d = Design(AbelianGroup((5, 5)), np.empty((0, 5), dtype=np.int64), 5)
    assert verify_super_regular(d, d.carrier) == SuperRegularVerdict(True, True)


@pytest.fixture(scope="module")
def rdf3125():
    return extend_field(thm62_z5(), 2)


@pytest.fixture(scope="module")
def design3125(rdf3125):
    return develop(rdf3125)


def _traced_peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "stage,bound_mib",
    [
        ("develop", 64),
        ("verify_design", 8),
        ("verify_super_regular", 10),
        ("pair_table", 64),
        ("anomaly_witness", 4),
    ],
)
def test_v3125_memory_peaks(stage, bound_mib, rdf3125, design3125):
    """Peak traced allocation of each design-layer stage on the 3125-point
    extension of thm62-z5 (b = 488,125); the unsliced builders peaked at
    205, 261, 1,117 and 186 MiB, and the anomaly scan on its v*v pair table
    at 43.8 MiB.  The super-regular check holds two sets of one-word keys,
    the design's and its rebuild's: 8.1 MiB.  The anomaly scan reads the
    column-0 points a window at a time: 1.94 MiB, against 6.59 MiB when it
    argsorts all 488,125 of them at once."""
    d = design3125
    calls = {
        "develop": (develop, rdf3125),
        "verify_design": (verify_design, d),
        "verify_super_regular": (verify_super_regular, d, d.carrier),
        "pair_table": (_pair_block_table, d),
        "anomaly_witness": (anomaly_witness, d, 5),
    }
    assert _traced_peak_mib(*calls[stage]) <= bound_mib


def test_v3125_verify_design_peak(design3125):
    """verify_design keeps one byte per pair, C(3125,2) of them (4.7 MiB),
    plus slice temporaries: 5.9 MiB; as uint32 counts it took 23.3 MiB, and
    the v*v int64 bincount over a (b, 10) int64 code array peaked at 111.7 MiB."""
    assert _traced_peak_mib(verify_design, design3125) <= 8


def test_v3125_develop_peak_near_output(rdf3125):
    """develop fills one preallocated array: its traced peak is the output
    plus small temporaries (appending the coset rows by np.concatenate, a
    copy of the whole output, made it 2.1x)."""
    tracemalloc.start()
    try:
        blocks = develop(rdf3125).blocks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * blocks.nbytes


def test_v3125_develop_rows_are_pinned(design3125):
    """`develop`'s rows and their order, byte for byte: the anomaly scan's
    difference oracle and every design file difam writes depend on them."""
    blocks = design3125.blocks
    assert blocks.dtype == np.int16 and blocks.shape == (488125, 5) and blocks.flags.c_contiguous
    # the rows as int64, the type they were pinned in
    assert hashlib.sha256(blocks.astype(np.int64).tobytes()).hexdigest() == (
        "118f3e60fd9c08bd6964f04e36f5ec49d1c13fed3d9b9a8c33de9bbbd8c6f30f"
    )


def test_v3125_rebuild_makes_its_orbits_a_batch_of_reps_a_call(design3125, monkeypatch):
    """The super-regular check rebuilds the 156 free orbits of the 3125-point
    design through `_orbit_rows`: five reps (15,625 rows, under the 4 *
    _CHUNK of a batch) a call, 32 calls in all, not one call a rep."""
    calls = []

    def counted(group, reps, out):
        calls.append(len(reps))
        _orbit_rows(group, reps, out)

    monkeypatch.setattr(difam.designs, "_orbit_rows", counted)
    d = design3125
    assert verify_super_regular(d, d.carrier) == SuperRegularVerdict(True, True)
    assert calls == [5] * 31 + [1]


def test_v3125_verify_design_frees_the_counts_before_the_keys(design3125):
    """The 3125-point design taken twice has lambda = 2, so its simplicity
    keys are built: 976,250 int64 keys (7.4 MiB) and their two comparison
    masks.  The one-byte pair counts (4.7 MiB) are gone by then, so the two
    peaks do not add: 9.3 MiB, and 14.0 MiB while both were alive."""
    twice = Design(design3125.carrier, np.tile(design3125.blocks, (2, 1)), design3125.k)
    assert _traced_peak_mib(verify_design, twice) <= 11
