"""The anomaly scan against the per-pair loop it replaced.

`_per_pair_scan` is the scan as it stood before plane certificates: one
`closure` call for every pair of blocks that share their column-0 point
and meet only there.  `anomaly_witness` must return the same verdict, with
every field equal, or raise the same error, on intact, shuffled and
damaged designs and at any cap.
"""

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
    _table_lookup,
    ag_design,
    anomaly_witness,
    closure,
    develop,
    subspace_replace,
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
    rows = {}
    target = p * p
    scanned = 0
    for a, b, s1, s2 in _scan_order(design):
        scanned += 1
        cl = closure(design, s1, s2, max_points=target, _lookup=table, _rows=rows)
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
        planes = difam.designs._plane_certificates(design, table, np.array(pairs))
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
