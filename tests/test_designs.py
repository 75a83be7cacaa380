import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import difam.designs
import difam.io
from difam.catalog import sigma_prime, thm62_z5, thm62_z7
from difam.designs import (
    AnomalyVerdict,
    Design,
    DesignError,
    DesignVerdict,
    SuperRegularVerdict,
    _pair_block_table,
    _pair_index,
    _pair_points,
    ag_design,
    anomaly_witness,
    closure,
    develop,
    make_design,
    subspace_replace,
    verify_design,
    verify_super_regular,
)
from difam.diffs import GMultiset
from difam.families import RelativeDifferenceFamily
from difam.gf import FiniteField
from difam.groups import AbelianGroup
from difam.lifting import extend_field, simple_lift


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
    broken = [rdf.blocks[0].translate(carrier.decode(7))] + rdf.blocks[1:]
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

    sub = Subgroup(rdf.group, [rdf.group.zero], verify=False)
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


def test_anomaly_witness_refuses_a_wrong_block_count():
    tiny = Design(AbelianGroup((2**22,)), np.array([[0, 1]], dtype=np.int64), 2)
    with pytest.raises(DesignError, match="cannot be a 2-"):
        anomaly_witness(tiny, 2)


def test_verify_design_only_pairs():
    d = ag_design(2, 3)
    with pytest.raises(DesignError):
        verify_design(d, t=3)


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


def test_make_design_validates_width():
    g = AbelianGroup((7,))
    with pytest.raises(DesignError):
        make_design(g, [[(0,), (1,)], [(2,), (3,)]], 3)
    d = make_design(g, [[(0,), (1,), (3,)]], 3)
    assert d.block_points(0) == [(0,), (1,), (3,)]


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
                x = carrier.add(x, d)
            blocks.append(sorted(line))
    return np.array(blocks, dtype=np.int64)


@pytest.mark.parametrize("n,p", [(2, 3), (3, 5), (4, 5)])
def test_ag_design_matches_reference_walk(n, p):
    d = ag_design(n, p)
    assert d.carrier == AbelianGroup((p,) * n)
    assert d.k == p
    assert d.blocks.dtype == np.int64
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
    table = _pair_block_table(d)
    rows = {}
    for a in range(len(through0)):
        for b in range(a + 1, len(through0)):
            b1, b2 = d.blocks[through0[a]], d.blocks[through0[b]]
            expected = _reference_closure(d, b1, b2)
            assert closure(d, b1, b2) == expected
            assert closure(d, b1, b2, _table=table, _rows=rows) == expected
    assert rows and all(rows[bi] == d.blocks[bi].tolist() for bi in rows)


def test_closure_raises_on_missing_block():
    d = ag_design(2, 3)
    damaged = Design(d.carrier, d.blocks[1:], 3)  # the line {0, 1, 2} is gone
    through = [i for i in range(damaged.b) if 4 in damaged.blocks[i]]
    with pytest.raises(DesignError, match="not Steiner"):
        closure(damaged, damaged.blocks[through[0]], damaged.blocks[through[1]])


def test_anomaly_witness_pinned_verdicts(z5_design):
    assert anomaly_witness(z5_design, 5) == AnomalyVerdict(True, (0, 26), 26, False)
    flat = Design(AbelianGroup((5, 5, 5)), z5_design.blocks, 5)
    planted = subspace_replace(4, 3, 5, flat)
    assert anomaly_witness(planted, 5) == AnomalyVerdict(True, (0, 225), 26, False)
    assert anomaly_witness(ag_design(3, 5), 5, scan_cap=50) == AnomalyVerdict(
        False, None, None, True
    )


def test_anomaly_witness_calls_module_closure_per_pair(monkeypatch):
    # the benchmark counts closures by wrapping designs.closure, so the scan
    # must call it through the module, once for every pair it scans
    calls = []
    real = difam.designs.closure

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(difam.designs, "closure", counting)
    anomaly_witness(ag_design(3, 5), 5, scan_cap=50)
    assert len(calls) == 50


def test_anomaly_witness_scans_every_pair_of_ag35(monkeypatch):
    # all 8,525 pairs of lines of AG(3,5) that share their least point, under
    # the default cap of 10^4: every closure is a plane, so the scan ends open
    calls = []
    real = difam.designs.closure

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(difam.designs, "closure", counting)
    assert anomaly_witness(ag_design(3, 5), 5) == AnomalyVerdict(False, None, None, True)
    assert len(calls) == 8525


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
        name: (d, _pair_block_table(d), _reference_pair_block_table(d))
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
    assert closure(d, b1, b2, _table=table, _rows=rows) == expected
    assert all(rows[bi] == d.blocks[bi].tolist() for bi in rows)
    # capped at a plane: a part of the closure, one point past the cap if it is larger
    cap = d.k * d.k
    capped = closure(d, b1, b2, max_points=cap, _table=table)
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


def test_anomaly_witness_found(z5_design):
    verdict = anomaly_witness(z5_design, 5)
    assert verdict.anomalous
    assert verdict.closure_size > 25
    assert not verdict.inconclusive


def test_anomaly_witness_inconclusive_on_ag():
    d = ag_design(3, 5)
    verdict = anomaly_witness(d, 5, scan_cap=50)
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
    rows = difam.designs._encode_rows(carrier, translated).reshape(-1, rdf.k)
    rows.sort(axis=1)
    return rows


def _reference_verify_design(design):
    v, k = design.v, design.k
    arr = design.blocks
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
        translated = tuple(sorted(carrier.encode(carrier.add(x, g)) for x in pts))
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
    coords = difam.designs._decode_array(carrier, arr.ravel()).reshape(arr.shape[0], k, carrier.rank)
    additive = bool(np.all(coords.sum(axis=1) % orders == 0))
    cand = (coords[:, None, :, :] - coords[:, :, None, :]) % orders
    rows = difam.designs._encode_rows(carrier, cand)  # (b, k, k)
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
    codes = design.blocks[:, i_idx] * v + design.blocks[:, j_idx]
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
    if request.param is not None:
        monkeypatch.setattr(difam.designs, "_CHUNK", request.param)


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


@pytest.mark.parametrize("lambda_copies", [None, 3])
@pytest.mark.parametrize("make", [thm62_z5, _sigma_prime_rdf])
def test_develop_matches_concatenated_reference(make, lambda_copies):
    # the coset rows follow the translates: lam copies of each distinct coset
    rdf = make()
    lam = rdf.lam if lambda_copies is None else lambda_copies
    carrier = rdf.group
    orders = np.array(carrier.cyclic_orders, dtype=np.int64)
    all_elems = np.array(list(carrier.elements()), dtype=np.int64)
    chunks = [_reference_develop_rows(rdf)]
    for sub in rdf.forbidden_members():
        cosets = (np.array(sub.elements)[None, :, :] + all_elems[:, None, :]) % orders
        coset_rows = difam.designs._encode_rows(carrier, cosets)
        coset_rows.sort(axis=1)
        chunks.append(np.repeat(np.unique(coset_rows, axis=0), lam, axis=0))
    assert np.array_equal(develop(rdf, lambda_copies).blocks, np.concatenate(chunks))


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
    [("develop", 64), ("verify_design", 160), ("verify_super_regular", 96), ("pair_table", 64)],
)
def test_v3125_memory_peaks(stage, bound_mib, rdf3125, design3125):
    """Peak traced allocation of each design-layer stage on the 3125-point
    extension of thm62-z5 (b = 488,125); the unsliced builders peaked at
    205, 261, 1,117 and 186 MiB."""
    d = design3125
    calls = {
        "develop": (develop, rdf3125),
        "verify_design": (verify_design, d),
        "verify_super_regular": (verify_super_regular, d, d.carrier),
        "pair_table": (_pair_block_table, d),
    }
    assert _traced_peak_mib(*calls[stage]) <= bound_mib


def test_v3125_verify_design_peak(design3125):
    """verify_design keeps one count per pair, C(3125,2) uint32 (18.6 MiB),
    plus slice temporaries; the v*v int64 bincount over a (b, 10) int64 code
    array peaked at 111.7 MiB."""
    assert _traced_peak_mib(verify_design, design3125) <= 48


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


def test_v3125_verify_design_frees_the_counts_before_the_keys(design3125):
    """The pair counts (C(3125,2) uint32, 18.6 MiB) and their `!= lam` mask
    are gone before the simplicity keys are built, so the two peaks do not
    add: 30.8 MiB while both were alive, 23.3 MiB after."""
    assert _traced_peak_mib(verify_design, design3125) <= 26
