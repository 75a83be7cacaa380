"""The difference oracle against the pair table it replaces on developed designs.

On a design that `develop` built from a lambda = 1 family, the block through
u and w follows from w - u.  The oracle must give the pair table's answer
for every pair of an intact design, and on a damaged one it may only answer
-1 or a block that holds both points.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import difam.cli
import difam.designs
from difam.catalog import thm62_z5, thm62_z7
from difam.designs import (
    MAX_PAIR_TABLE_BYTES,
    AnomalyVerdict,
    Design,
    DesignError,
    _block_lookup,
    _difference_oracle,
    _meeting_pairs,
    _pair_block_table,
    _pair_index,
    _plane_certificates,
    _table_lookup,
    ag_design,
    anomaly_witness,
    closure,
    develop,
    subspace_replace,
)
from difam.diffs import GMultiset
from difam.families import PartialSpread, RelativeDifferenceFamily
from difam.groups import AbelianGroup, Subgroup
from difam.io import parse_family, render_family
from difam.lifting import extend_field
from test_designs import _copies

SRC = Path(__file__).resolve().parents[1] / "src"


def _spread27():
    """A (Z_3^3, 10 lines through 0, 3, 1)-RDF with the one base block
    {0, a, b}: its differences cover the three directions a, b and b - a,
    and the spread the other ten.  It develops into ten coset sections."""
    g = AbelianGroup((3, 3, 3))
    taken = [(1, 0, 0), (0, 1, 0), (1, 2, 0)]
    lines = [
        Subgroup(g, g.encode_array(np.outer(range(3), d) % 3))  # 0, d, 2d
        for d in g.elements()
        if any(d) and d[next(i for i, c in enumerate(d) if c)] == 1 and d not in taken
    ]
    block = GMultiset(g, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    return RelativeDifferenceFamily(g, PartialSpread(lines), 3, 1, [block])


@pytest.fixture(scope="module")
def developed():
    return {
        "z5": develop(thm62_z5()),
        "z7": develop(thm62_z7()),
        "v3125": develop(extend_field(thm62_z5(), 2)),
        "spread27": develop(_spread27()),
    }


@pytest.mark.parametrize("name", ["z5", "z7", "v3125", "spread27"])
def test_oracle_answers_every_pair_as_the_table_does(developed, name):
    d = developed[name]
    oracle = _difference_oracle(d)
    assert oracle is not None
    table, v = _pair_block_table(d), d.v
    w = np.arange(v)[None, :]
    for lo in range(0, v, 64):  # the pairs u < w, 64 values of u at a time
        u = np.arange(lo, min(lo + 64, v))[:, None]
        upper = u < w
        got = oracle(u, w)
        assert np.array_equal(got[upper], table[(u * v + w)[upper]])
        assert (got[upper] >= 0).all()  # lambda = 1: every pair has its block
    assert np.array_equal(oracle(w, u), got)  # either order


def _move_a_point(design, rng):
    """A copy that keeps the base rows, with one point of one row moved."""
    blocks = design.blocks.copy()
    row = int(rng.integers(design.b))
    off = np.setdiff1d(np.arange(design.v), blocks[row])
    blocks[row, rng.integers(design.k)] = rng.choice(off)
    blocks[row].sort()
    return Design(design.carrier, blocks, design.k, _base=design._base)


@pytest.mark.parametrize("name", ["z5", "z7", "spread27"])
def test_oracle_on_a_moved_point_answers_a_block_through_the_pair_or_none(developed, name):
    d = developed[name]
    v, k = d.v, d.k
    u, w = np.triu_indices(v, 1)
    i_idx, j_idx = np.triu_indices(k, 1)
    rng = np.random.default_rng(11)
    for _ in range(12):
        damaged = _move_a_point(d, rng)
        oracle = _difference_oracle(damaged)
        got = oracle(u, w)
        # one answer for either order, as the plane certificate needs
        assert np.array_equal(oracle(w, u), got)
        table = _pair_block_table(damaged)[u * v + w]
        blocks = damaged.blocks
        # never a row that lacks u or w
        rows = blocks[got[got >= 0]]
        assert (rows == u[got >= 0, None]).any(1).all()
        assert (rows == w[got >= 0, None]).any(1).all()
        # a pair in exactly one block gets that block or -1; a pair the move
        # put in two blocks may get either (the table keeps the later one)
        places = _pair_index(blocks[:, i_idx], blocks[:, j_idx], v).ravel()
        once = np.bincount(places, minlength=u.size) == 1
        assert np.all((got[once] == table[once]) | (got[once] == -1))
        assert (got == -1).any()  # the moved point's old pairs


def test_oracle_checks_the_rows_it_names(developed):
    # the translates of base block 0 are overwritten by those of block 1:
    # the oracle still names the rows B_0 + x for the pairs of B_0 + x, and
    # B_1 + x shares at most one point with B_0 + x, so each answer is -1
    d = developed["z5"]
    n = d.carrier.order
    blocks = d.blocks.copy()
    blocks[:n] = d.blocks[n : 2 * n]
    damaged = Design(d.carrier, blocks, d.k, _base=d._base)
    first = d.blocks[:n]
    assert (_difference_oracle(d)(first[:, :1], first[:, 1:]) == np.arange(n)[:, None]).all()
    assert (_difference_oracle(damaged)(first[:, :1], first[:, 1:]) == -1).all()


@pytest.mark.parametrize("name", ["z5", "z7", "v3125", "spread27"])
def test_anomaly_verdicts_match_the_table_path(developed, name, monkeypatch):
    d = developed[name]
    plain = Design(d.carrier, d.blocks, d.k)  # no base rows: the pair table
    expected = anomaly_witness(plain, d.k)
    pinned = {
        "z5": AnomalyVerdict(True, (0, 26), 26, False, 1),
        "z7": AnomalyVerdict(True, (0, 149), 50, False, 1),
        "v3125": AnomalyVerdict(True, (0, 933), 26, False, 1),
        "spread27": AnomalyVerdict(True, (0, 27), 10, False, 3),  # two planes first
    }
    assert expected == pinned[name]

    def refused(design):
        raise AssertionError("pair table built")

    monkeypatch.setattr(difam.designs, "_pair_block_table", refused)
    assert anomaly_witness(d, d.k) == expected


@pytest.mark.parametrize("name", ["z5", "z7", "spread27"])
def test_certificates_and_closures_match_the_table_path(developed, name):
    # the first 600 pairs of the scan, past its witness, decided by both lookups
    d = developed[name]
    oracle, table = _difference_oracle(d), _table_lookup(d)
    pairs, held = [], 0
    for part in _meeting_pairs(d.blocks, d.v):
        pairs.append(part)
        held += len(part)
        if held >= 600:
            break
    pairs = np.concatenate(pairs)[:600]
    planes = _plane_certificates(d, oracle, pairs, {})
    assert np.array_equal(planes, _plane_certificates(d, table, pairs, {}))
    assert planes.any() == (name == "spread27")  # no pair of z5 or z7 closes to a plane
    rows_o, rows_t = {}, {}
    for a, b in pairs[::7].tolist():
        one, two = d.blocks[a], d.blocks[b]
        cap = d.k * d.k
        got = closure(d, one, two, max_points=cap, _lookup=oracle, _rows=rows_o)
        assert got == closure(d, one, two, max_points=cap, _lookup=table, _rows=rows_t)
    assert rows_o == rows_t


def test_public_closure_on_a_developed_design_builds_no_pair_table(developed, monkeypatch):
    d = developed["v3125"]
    one, two = d.blocks[0], d.blocks[933]
    expected = closure(Design(d.carrier, d.blocks, d.k), one, two)

    def refused(design):
        raise AssertionError("pair table built")

    monkeypatch.setattr(difam.designs, "_pair_block_table", refused)
    assert closure(d, one, two) == expected
    assert len(expected) > 25


def test_oracle_only_for_develop_output_with_one_coset_copy(developed):
    z5 = developed["z5"]
    flat = Design(AbelianGroup((5, 5, 5)), z5.blocks, 5)
    assert _difference_oracle(Design(z5.carrier, z5.blocks, 5)) is None
    assert _difference_oracle(parse_family(render_family(z5))) is None
    assert _difference_oracle(develop(_copies(thm62_z5(), 3))) is None
    assert _difference_oracle(ag_design(3, 5)) is None
    assert _difference_oracle(subspace_replace(4, 3, 5, flat)) is None
    # a layout of the wrong length keeps the table
    short = Design(z5.carrier, z5.blocks[:-1], 5, _base=z5._base)
    assert _difference_oracle(short) is None
    assert _block_lookup(short)(np.array([0]), np.array([1])).tolist() == [
        _pair_block_table(short)[1]
    ]
    # the base rows are private: not compared, not shown, not written
    assert z5 == Design(z5.carrier, z5.blocks, 5) and "_base" not in repr(z5)
    assert render_family(z5) == render_family(Design(z5.carrier, z5.blocks, 5))


def _ag2_257_shaped():
    """v = 66,049, b = 66,306, k = 257: blocks from np.zeros, which touches
    no page until read."""
    return Design(AbelianGroup((257, 257)), np.zeros((66306, 257), dtype=np.int64), 257)


def test_pair_table_is_sized_before_it_is_made(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("allocated")

    d = _ag2_257_shaped()
    monkeypatch.setattr(np, "full", refused)
    with pytest.raises(DesignError, match="16.25 GiB"):
        anomaly_witness(d, 257)
    with pytest.raises(DesignError, match="16.25 GiB"):
        _pair_block_table(d)
    assert 16807**2 * 4 <= MAX_PAIR_TABLE_BYTES  # the W7 table fits


def test_anomaly_command_refuses_a_table_past_the_cap(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(difam.cli, "_read_family", lambda path, role: _ag2_257_shaped())
    with pytest.raises(SystemExit) as info:
        difam.cli.run(["anomaly", str(tmp_path / "ag-2-257.json"), "--p", "257"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "GiB" in err and err.count("\n") == 1


def test_w7_anomaly_scan_fits_where_the_pair_table_cannot():
    # v = 16,807: the blocks take 376 MB and the pair table 1.05 GiB, so the
    # table path cannot run in a 1.5 GB address space
    child = textwrap.dedent(
        """
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
        from difam.catalog import thm62_z7
        from difam.designs import anomaly_witness, develop
        from difam.lifting import extend_field
        design = develop(extend_field(thm62_z7(), 2))
        print(design.v, design.b, anomaly_witness(design, 7))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == (
        "16807 6725201 AnomalyVerdict(anomalous=True, witness=(0, 8377), closure_size=50, "
        "inconclusive=False, closures_scanned=1)"
    )
