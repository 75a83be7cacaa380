"""The anomaly scan against the per-pair loop it replaced.

`_per_pair_scan` is the scan as it stood before plane certificates: one
`closure` call for every pair of blocks that share their column-0 point
and meet only there.  `anomaly_witness` must return the same verdict, with
every field equal, or raise the same error, on intact, shuffled and
damaged designs and at any cap.

`_per_block_meeting_pairs` is the pair listing as it stood before slices,
one comparison per block, and `_certificate` is the plane certificate of
one pair from its definition, with no verdicts shared between pairs.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import difam.designs
from difam.catalog import thm62_z5, thm62_z7
from difam.designs import (
    AnomalyVerdict,
    Design,
    DesignError,
    _meeting_pairs,
    _plane_certificates,
    _table_lookup,
    ag_design,
    anomaly_witness,
    closure,
    develop,
    subspace_replace,
    verify_design,
    verify_developed,
)
from difam.groups import AbelianGroup


def _scan_order(design):
    """The pairs of the scan, in its order, as block indices and point sets."""
    blocks = design.blocks
    least = blocks[:, 0]
    order = np.argsort(least, kind="stable")
    cuts = (np.flatnonzero(np.diff(least[order])) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [order.size]):
        ids = order[lo:hi].tolist()
        sets = [set(r) for r in blocks[ids].tolist()]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                if len(sets[a] & sets[b]) == 1:
                    yield ids[a], ids[b], sets[a], sets[b]


def _per_pair_scan(design, p, scan_cap=10**4):
    if p < 2:
        raise DesignError(f"need p >= 2, got {p}")
    v = design.v
    m = v
    while m > 1:
        if m % p:
            raise DesignError(f"design order {v} is not a power of {p}")
        m //= p
    if design.k != p:
        raise DesignError(f"block size {design.k} != {p}")
    if design.b * p * (p - 1) != v * (v - 1):
        raise DesignError(f"{design.b} blocks of {p} points cannot be a 2-({v},{p},1) design")
    table = _table_lookup(design)
    target = p * p
    scanned = 0
    for a, b, s1, s2 in _scan_order(design):
        scanned += 1
        cl = closure(design, s1, s2, max_points=target, _lookup=table)
        if len(cl) != target:
            return AnomalyVerdict(True, (a, b), len(cl), False, scanned)
        if scanned >= scan_cap:
            return AnomalyVerdict(False, None, None, True, scanned)
    return AnomalyVerdict(False, None, None, True, scanned)


def capped_scan(design, p, cap):
    """anomaly_witness with its scan cap patched to `cap` pairs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(difam.designs, "SCAN_CAP", cap)
        return anomaly_witness(design, p)


def _outcome(scan, design, p, cap):
    try:
        return scan(design, p, cap)
    except DesignError as exc:
        return f"DesignError: {exc}"


@pytest.fixture(scope="module")
def scan_designs():
    z5 = develop(thm62_z5())
    flat = Design(AbelianGroup((5, 5, 5)), z5.blocks, 5)
    return {
        "ag23": ag_design(2, 3),
        "ag33": ag_design(3, 3),
        "ag35": ag_design(3, 5),
        "z5": z5,
        "z7": develop(thm62_z7()),
        "planted-ag45": subspace_replace(4, 3, 5, flat),
        "ag32": ag_design(3, 2),
    }


DAMAGE = (None, "moved point", "duplicated block", "swapped block", "repeated point")


def _damaged(blocks, damage, v, rng):
    """A copy of `blocks` with one row changed; the block count stays."""
    blocks = blocks.copy()
    row = int(rng.integers(blocks.shape[0]))
    k = blocks.shape[1]
    if damage == "moved point":
        off = np.setdiff1d(np.arange(v), blocks[row])
        blocks[row, rng.integers(k)] = rng.choice(off)
    elif damage == "duplicated block":
        blocks[row] = blocks[rng.integers(blocks.shape[0])]
    elif damage == "swapped block":
        blocks[row] = rng.choice(v, size=k, replace=False)
    elif damage == "repeated point":
        col = int(rng.integers(1, k))
        blocks[row, col] = blocks[row, col - 1]
    blocks[row].sort()
    return blocks


@settings(database=None, derandomize=True, deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scan_agrees_with_the_per_pair_loop(scan_designs, data):
    name = data.draw(st.sampled_from(sorted(scan_designs)), label="design")
    d = scan_designs[name]
    p = d.k
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    damage = data.draw(st.sampled_from(DAMAGE), label="damage")
    design = Design(d.carrier, _damaged(d.blocks[rng.permutation(d.b)], damage, d.v, rng), p)
    # a cap at random, or one that lands on a pair the certificate refuses
    pairs = []
    for a, b, _, _ in _scan_order(design):
        pairs.append((a, b))
        if len(pairs) == 3000:
            break
    refused = []
    if pairs:
        table = _table_lookup(design)
        planes = _plane_certificates(design, table, np.array(pairs), {})
        refused = np.flatnonzero(~planes).tolist()
        assert p > 2 or not planes.any()  # for p = 2, |S| = 3
    caps = [st.integers(1, 3000)]
    if refused:
        caps.append(st.sampled_from(refused).map(lambda i: i + 1))
    cap = data.draw(st.one_of(*caps), label="cap")
    expected = _outcome(_per_pair_scan, design, p, cap)
    assert _outcome(capped_scan, design, p, cap) == expected


def test_a_moved_point_fails_as_the_per_pair_loop_fails():
    # the line {0, 1, 2} of AG(2,3) loses 2 for 3: the pair (0, 2) has no
    # block, and the first closure that needs it raises, at the same pair
    d = ag_design(2, 3)
    blocks = d.blocks.copy()
    assert blocks[0].tolist() == [0, 1, 2]
    blocks[0] = [0, 1, 3]
    damaged = Design(d.carrier, blocks, 3)
    expected = _outcome(_per_pair_scan, damaged, 3, 10**4)
    assert expected.startswith("DesignError: no block through pair")
    assert _outcome(capped_scan, damaged, 3, 10**4) == expected


def test_the_cap_th_pair_is_decided():
    # the witness of thm62-z5 is its first pair: a cap of 1 still finds it
    d = develop(thm62_z5())
    assert capped_scan(d, 5, 1) == _per_pair_scan(d, 5, 1)
    assert capped_scan(d, 5, 1).anomalous


def test_closure_alone_decides_when_a_certificate_is_too_large(monkeypatch):
    # p = 23: a certificate would make C(529, 2) > 2^16 lookups
    def refused(*args):
        raise AssertionError("certified")

    monkeypatch.setattr(difam.designs, "_plane_certificates", refused)
    d = ag_design(2, 23)
    assert capped_scan(d, 23, 3) == _per_pair_scan(d, 23, 3)
    assert capped_scan(d, 23, 3).closures_scanned == 3


def test_a_scan_past_the_certificates_stops_at_its_lookup_budget(monkeypatch):
    # p = 53: every pair is a closure of up to C(2810, 2) = 3,946,645 lookups,
    # and 10^4 of them took about an hour; 17 fit in 2^26
    calls = []
    real = difam.designs.closure

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(difam.designs, "closure", counting)
    d = ag_design(2, 53)
    start = time.perf_counter()
    verdict = anomaly_witness(d, 53)
    assert time.perf_counter() - start < 10
    assert verdict == AnomalyVerdict(False, None, None, True, 17, True) and len(calls) == 17


def test_the_lookup_budget_counts_each_closure_before_it_is_made(monkeypatch):
    # the witness of thm62-z5 is its first pair, one closure of C(26, 2) = 325
    d = develop(thm62_z5())
    monkeypatch.setattr(difam.designs, "_SCAN_LOOKUPS", 324)
    assert anomaly_witness(d, 5) == AnomalyVerdict(False, None, None, True, 0, True)
    monkeypatch.setattr(difam.designs, "_SCAN_LOOKUPS", 325)
    assert anomaly_witness(d, 5) == AnomalyVerdict(True, (0, 26), 26, False, 1)


def test_a_row_given_reversed_scans_as_the_design_given_in_order():
    # the pair table once stored a row [2, 1, 0] at u * v + w with u > w,
    # where no lookup reads: the scan raised "no block through pair (0, 2)"
    # and the verifiers failed the design with no witness
    ag = ag_design(2, 3)
    rows = ag.blocks.copy()
    rows[0] = rows[0, ::-1]
    d = Design(ag.carrier, rows, 3)
    assert d == ag and np.array_equal(d.blocks, ag.blocks)
    assert verify_developed(d) == verify_developed(ag) and verify_developed(d)[0].is_design
    assert verify_design(d).is_design
    assert anomaly_witness(d, 3) == anomaly_witness(ag, 3) == AnomalyVerdict(False, None, None, True, 12)


# --- the pair listing, a slice at a time --------------------------------------


def _per_block_meeting_pairs(blocks, v):
    """(a, the later blocks of a's group meeting a), one block a at a time."""
    least = blocks[:, 0].astype(np.min_scalar_type(v - 1))
    order = np.argsort(least, kind="stable")
    cuts = (np.flatnonzero(np.diff(least[order])) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [order.size]):
        ids = order[lo:hi]
        group = blocks[ids]
        for a in range(ids.size - 1):
            row = group[a]
            shared = group[a + 1 :, :, None] == row[row != row[0]]
            yield ids[a], ids[a + 1 :][~shared.any(axis=(1, 2))]


@pytest.fixture(scope="module")
def ag37():
    return ag_design(3, 7)


@pytest.mark.parametrize("name", ["ag23", "ag33", "ag35", "ag37", "planted-ag45", "z5", "z7"])
def test_slices_list_the_pairs_of_the_per_block_listing(scan_designs, ag37, name):
    d = ag37 if name == "ag37" else scan_designs[name]
    shuffled = d.blocks[np.random.default_rng(3).permutation(d.b)]
    for blocks in (d.blocks, shuffled):
        expected = np.concatenate([
            np.column_stack([np.full(later.size, a), later])
            for a, later in _per_block_meeting_pairs(blocks, d.v)
        ])
        got = np.concatenate(list(_meeting_pairs(blocks, d.v)))
        assert got.shape[1] == 2 and np.array_equal(got, expected)


def test_a_scan_stopped_at_its_first_pair_compares_one_row(monkeypatch):
    # the witness of thm62-z5 is its first pair: the scan draws one slice,
    # the first row of the first group against the rest of that group
    d = develop(thm62_z5())
    drawn = []
    real = difam.designs._meeting_pairs

    def recording(blocks, v):
        for part in real(blocks, v):
            drawn.append(part)
            yield part

    monkeypatch.setattr(difam.designs, "_meeting_pairs", recording)
    assert anomaly_witness(d, 5).closures_scanned == 1
    first = int(np.argsort(d.blocks[:, 0], kind="stable")[0])
    assert len(drawn) == 1 and set(drawn[0][:, 0].tolist()) == {first}


def _recorded_argsorts(monkeypatch):
    """The sizes of the arrays np.argsort is called on, from now on."""
    sizes, real = [], np.argsort

    def recording(a, *args, **kwargs):
        sizes.append(np.size(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    return sizes


def test_a_scan_stopped_at_its_first_pair_sorts_one_window(monkeypatch):
    # the witness of thm62-z5 lies among the blocks through 0, the window
    # [0, 1): only those column-0 points are sorted, not all b of them
    d = develop(thm62_z5())
    sizes = _recorded_argsorts(monkeypatch)
    assert anomaly_witness(d, 5).closures_scanned == 1
    assert sizes == [int(np.count_nonzero(d.blocks[:, 0] == 0))] == [31]


def test_the_pair_listing_sorts_doubling_windows(monkeypatch, scan_designs):
    # AG(3,5): windows [0, 1), [1, 3), ..., [63, 127) reach v = 125, seven
    # sorts of ceil(log2 125) + 1 = 8 at most, and every block once
    d = scan_designs["ag35"]
    sizes = _recorded_argsorts(monkeypatch)
    for _ in _meeting_pairs(d.blocks, d.v):
        pass
    least = d.blocks[:, 0]
    bounds = [0, 1, 3, 7, 15, 31, 63, 127]
    windows = zip(bounds, bounds[1:])
    assert sizes == [int(np.count_nonzero((least >= lo) & (least < hi))) for lo, hi in windows]
    assert sum(sizes) == d.b


# --- plane certificates, each point set decided once ----------------------------


def _stage2_sets(monkeypatch, design, p):
    """The point sets whose C(p^2, 2) lookups one scan of `design` makes."""
    real = difam.designs._block_lookup
    width = p * p * (p * p - 1) // 2
    sets = []

    def counting(d):
        lookup = real(d)

        def counted(u, w):
            if u.ndim == 2 and u.shape[1] == width:
                sets.append(u.shape[0])
            return lookup(u, w)

        return counted

    with monkeypatch.context() as patch:
        patch.setattr(difam.designs, "_block_lookup", counting)
        verdict = anomaly_witness(design, p)
    return sum(sets), verdict


@pytest.mark.parametrize("n, p, sets, scanned", [
    (2, 3, 1, 12),  # the one plane
    (3, 3, 39, 468),  # every plane of AG(3,3)
    (3, 5, 155, 8525),  # every plane of AG(3,5)
    (3, 7, 351, 10**4),  # the planes met up to the cap
])
def test_each_plane_is_certified_once_per_scan(monkeypatch, n, p, sets, scanned):
    made, verdict = _stage2_sets(monkeypatch, ag_design(n, p), p)
    assert verdict == AnomalyVerdict(False, None, None, True, scanned)
    assert made == sets


def _certificate(design, lookup, a, b):
    """The certificate of the pair of blocks a, b from its definition."""
    p = design.k
    one, two = design.blocks[a], design.blocks[b]
    if np.intersect1d(one[1:], two[1:]).size:  # a point a = b
        return False
    through = lookup(one[1:, None], two[None, 1:])
    if (through < 0).any():
        return False
    s = np.unique(np.concatenate([one, two, design.blocks[through].ravel()]))
    return s.size == p * p and _plane_verdict(lookup, s, p)


def _plane_verdict(lookup, s, p):
    """Whether every pair of the points s has a block, p(p+1) blocks in all."""
    u, w = np.triu_indices(s.size, 1)
    ids = lookup(s[u], s[w])
    return bool((ids >= 0).all() and np.unique(ids).size == p * (p + 1))


@settings(database=None, derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_shared_verdicts_match_the_one_pair_certificate(scan_designs, data):
    name = data.draw(st.sampled_from(sorted(scan_designs)), label="design")
    d = scan_designs[name]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    damage = data.draw(st.sampled_from(DAMAGE), label="damage")
    design = Design(d.carrier, _damaged(d.blocks[rng.permutation(d.b)], damage, d.v, rng), d.k)
    pairs = np.concatenate(list(_meeting_pairs(design.blocks, design.v)))[:400]
    if len(pairs) < 2:
        return
    cuts = sorted(data.draw(st.sets(st.integers(1, len(pairs) - 1), max_size=8), label="cuts"))
    lookup, verdicts = _table_lookup(design), {}
    got = np.concatenate(
        [_plane_certificates(design, lookup, part, verdicts) for part in np.split(pairs, cuts)]
    )
    expected = [_certificate(design, lookup, a, b) for a, b in pairs.tolist()]
    assert got.tolist() == expected
    # each entry: the bytes of p^2 sorted points, and their verdict
    p = design.k
    assert len(verdicts) <= len(pairs)
    for key, verdict in verdicts.items():
        assert len(key) % (p * p) == 0
        points = np.frombuffer(key, dtype=f"i{len(key) // (p * p)}").astype(np.int64)
        assert np.all(np.diff(points) > 0) and verdict == _plane_verdict(lookup, points, p)
