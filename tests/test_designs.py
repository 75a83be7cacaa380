import numpy as np
import pytest

from difam.catalog import thm62_z5
from difam.designs import (
    Design,
    DesignError,
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
from difam.groups import AbelianGroup


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


def test_subspace_replace_errors():
    d = ag_design(2, 3)
    with pytest.raises(DesignError):
        subspace_replace(1, 2, 3, d)
    with pytest.raises(DesignError):
        subspace_replace(3, 2, 5, d)  # carrier is Z_3^2, not Z_5^2
