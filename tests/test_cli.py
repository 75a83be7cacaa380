import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import difam.cli
from difam.catalog import example51, thm62_z5
from difam.cli import run
from difam.designs import Design, develop
from difam.groups import AbelianGroup
from difam.io import render_family


def _emit(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert run(["catalog", "emit", name, "--out", str(path)]) == 0
    return path


def test_catalog_list(capsys):
    assert run(["catalog", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert "example51" in out
    assert "thm62-z5" in out


def test_catalog_emit_unknown(tmp_path):
    with pytest.raises(SystemExit) as info:
        run(["catalog", "emit", "nope", "--out", str(tmp_path / "x.json")])
    assert info.value.code == 2


def test_catalog_emit_needs_out():
    with pytest.raises(SystemExit) as info:
        run(["catalog", "emit", "example51"])
    assert info.value.code == 2


def test_verify_sdf_writes_cert(tmp_path, capsys):
    path = _emit(tmp_path, "example51")
    assert run(["verify", "sdf", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out
    cert = json.loads((tmp_path / "example51.json.cert").read_text())
    assert cert["pass"] is True
    assert cert["additive"] is True
    assert cert["lambda"] == 4


def test_verify_role_mismatch(tmp_path):
    path = _emit(tmp_path, "example51")
    with pytest.raises(SystemExit) as info:
        run(["verify", "df", str(path)])
    assert info.value.code == 2


def test_verify_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"role": "sdf"')
    with pytest.raises(SystemExit) as info:
        run(["verify", "sdf", str(path)])
    assert info.value.code == 2


def test_verify_missing_file(tmp_path):
    with pytest.raises(SystemExit) as info:
        run(["verify", "sdf", str(tmp_path / "nothing.json")])
    assert info.value.code == 2


def test_verify_failing_family_exits_1(tmp_path):
    path = _emit(tmp_path, "example51")
    doc = json.loads(path.read_text())
    doc["lambda"] = 2
    path.write_text(json.dumps(doc))
    assert run(["verify", "sdf", str(path)]) == 1


def test_verify_df_cert_lists_failures_as_python_ints_in_order(tmp_path):
    # one point of thm62-z5 moved into G x {0}: differences land in the
    # forbidden subgroup, and the coverage outside it is no longer constant
    path = _emit(tmp_path, "thm62-z5")
    doc = json.loads(path.read_text())
    assert doc["blocks"][0][1] == {"g": [1], "f": [1, 0]}
    doc["blocks"][0][1] = {"g": [1], "f": [0, 0]}
    path.write_text(json.dumps(doc))
    assert run(["verify", "df", str(path)]) == 1
    cert = json.loads((tmp_path / "thm62-z5.json.cert").read_text())
    assert cert["lambda"] is None
    failures = cert["failures"]
    assert len(failures) == 10
    for element, count in failures:  # a numpy scalar would be written as a string
        assert all(type(c) is int for c in element) and type(count) is int
    # forbidden members (field part zero) first, then the rest, each ascending
    keys = [(element[1:] != [0, 0], element) for element, _ in failures]
    assert keys == sorted(keys)
    assert failures[:3] == [[[1, 0, 0], 1], [[4, 0, 0], 1], [[0, 1, 0], 2]]


def test_pipeline_lift_develop_anomaly(tmp_path, capsys):
    sdf = _emit(tmp_path, "example51")
    df = tmp_path / "df.json"
    assert (
        run(
            [
                "lift",
                str(sdf),
                "--field",
                "5,2,2,1,1",
                "--strategy",
                "signed",
                "--out",
                str(df),
            ]
        )
        == 0
    )
    assert run(["verify", "df", str(df)]) == 0
    design = tmp_path / "design.json"
    assert run(["develop", str(df), "--out", str(design)]) == 0
    assert run(["verify", "design", str(design)]) == 0
    out = capsys.readouterr().out
    assert "super-regular" in out
    assert run(["anomaly", str(design), "--p", "5"]) == 0
    assert "pairs of blocks scanned" in capsys.readouterr().out
    cert = json.loads((tmp_path / "design.json.cert").read_text())
    assert cert["anomalous"] is True


def test_lift_greedy_with_adjusted_psi_seed(tmp_path):
    sdf = _emit(tmp_path, "example51")
    df = tmp_path / "df.json"
    code = run(
        [
            "lift",
            str(sdf),
            "--field",
            "13,1",
            "--strategy",
            "greedy",
            "--psi-seed",
            "59",
            "--out",
            str(df),
        ]
    )
    assert code == 0
    assert run(["verify", "df", str(df)]) == 0


def test_lift_reports_search_nodes(tmp_path, capsys):
    sdf = _emit(tmp_path, "example51")
    df = tmp_path / "df.json"
    argv = ["lift", str(sdf), "--field", "13,1", "--strategy", "greedy", "--psi-seed", "59"]
    assert run(argv + ["--out", str(df)]) == 0
    out = capsys.readouterr().out
    assert "(v=65,k=5,lambda=1), 3 base blocks, 5 search nodes, deepest level 4" in out
    assert run(["lift", str(sdf), "--field", "13,1", "--strategy", "simple", "--out", str(df)]) == 0
    assert "search nodes" not in capsys.readouterr().out


def test_lift_failure_exits_1(tmp_path):
    sdf = _emit(tmp_path, "example51")
    df = tmp_path / "df.json"
    code = run(
        ["lift", str(sdf), "--field", "11,1", "--strategy", "greedy", "--out", str(df)]
    )
    assert code == 1
    assert not df.exists()


def test_lift_simple_over_gf8(tmp_path, capsys):
    sdf, df = tmp_path / "paley7.json", tmp_path / "df.json"
    assert run(["build", "paley", "--q", "7", "--out", str(sdf)]) == 0
    code = run(["lift", str(sdf), "--strategy", "simple", "--field", "2,3", "--out", str(df)])
    assert code == 0
    assert "(v=56,k=7,lambda=6), 7 base blocks" in capsys.readouterr().out
    assert run(["verify", "df", str(df)]) == 0


def test_lift_signed_simple_rejects_characteristic_two(tmp_path, capsys):
    sdf, df = tmp_path / "paley7.json", tmp_path / "df.json"
    assert run(["build", "paley", "--q", "7", "--out", str(sdf)]) == 0
    argv = ["lift", str(sdf), "--strategy", "simple", "--signed", "--field", "2,3"]
    assert run(argv + ["--out", str(df)]) == 1
    assert "odd-order field" in capsys.readouterr().err
    assert not df.exists()


def test_build_paley_and_verify(tmp_path):
    out = tmp_path / "paley.json"
    assert run(["build", "paley", "--q", "13", "--out", str(out)]) == 0
    assert run(["verify", "sdf", str(out)]) == 0


def test_build_theorem82_bad_k(tmp_path):
    with pytest.raises(SystemExit) as info:
        run(["build", "theorem82", "--k", "10", "--out", str(tmp_path / "x.json")])
    assert info.value.code == 2


def test_build_zero_sum_dm_and_jungnickel(tmp_path):
    dm = tmp_path / "dm.json"
    assert run(["build", "zero-sum-dm", "--orders", "3", "--k", "5", "--out", str(dm)]) == 0
    assert run(["verify", "dm", str(dm)]) == 0
    sdf = _emit(tmp_path, "example51")
    out = tmp_path / "composed.json"
    assert (
        run(["build", "jungnickel", "--sdf", str(sdf), "--dm", str(dm), "--out", str(out)])
        == 0
    )
    assert run(["verify", "sdf", str(out)]) == 0


def test_build_ag_and_anomaly_inconclusive(tmp_path, capsys):
    out = tmp_path / "ag.json"
    assert run(["build", "ag", "--n", "2", "--p", "3", "--out", str(out)]) == 0
    assert run(["verify", "design", str(out)]) == 0
    capsys.readouterr()
    assert run(["anomaly", str(out), "--p", "3"]) == 1
    # every pair of lines of AG(2,3) that share their least point: 6 + 3 + 3
    assert capsys.readouterr().out.endswith("; pairs of blocks scanned: 12\n")


def test_anomaly_reports_a_closure_smaller_than_a_plane(tmp_path, capsys):
    # for p = 2 two lines close to 3 points, fewer than p^2
    out = tmp_path / "ag.json"
    assert run(["build", "ag", "--n", "3", "--p", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["anomaly", str(out), "--p", "2"]) == 0
    printed = capsys.readouterr().out
    assert "close to 3 points, not 4; pairs of blocks scanned: 1" in printed


def test_anomaly_rejects_p_below_two(tmp_path):
    out = tmp_path / "ag.json"
    assert run(["build", "ag", "--n", "2", "--p", "3", "--out", str(out)]) == 0
    for p in ("1", "0"):
        with pytest.raises(SystemExit) as info:
            run(["anomaly", str(out), "--p", p])
        assert info.value.code == 2


def test_build_ag_rejects_non_prime(tmp_path):
    out = tmp_path / "ag4.json"
    with pytest.raises(SystemExit) as info:
        run(["build", "ag", "--n", "2", "--p", "4", "--out", str(out)])
    assert info.value.code == 2
    assert not out.exists()


def test_build_ag_refuses_more_lines_than_the_cap(tmp_path, capsys):
    out = tmp_path / "ag24.json"
    with pytest.raises(SystemExit) as info:
        run(["build", "ag", "--n", "24", "--p", "2", "--out", str(out)])
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_verify_design_repeated_point_block_is_not_super_regular(tmp_path, capsys):
    # the one block {0,0,0} on Z_3 is moved to {1,1,1} by a translation
    path = tmp_path / "z3.json"
    path.write_text(
        '{"role":"design","carrier":{"group":[3]},"k":3,'
        '"blocks":[{"points":[[0],[0],[0]],"mult":1}]}'
    )
    assert run(["verify", "design", str(path)]) == 1
    assert "super-regular" not in capsys.readouterr().out
    cert = json.loads((tmp_path / "z3.json.cert").read_text())
    assert cert["super_regular"] is False
    assert cert["pass"] is False


def test_verify_design_rows_with_repeated_points_are_simple_unless_a_block_repeats(
    tmp_path, capsys
):
    # {0,0,0} fails as a design, yet no block repeats; two {0,0,1} blocks do
    path = tmp_path / "z3.json"
    path.write_text(
        '{"role":"design","carrier":{"group":[3]},"k":3,'
        '"blocks":[{"points":[[0],[0],[0]],"mult":1}]}'
    )
    assert run(["verify", "design", str(path)]) == 1
    assert capsys.readouterr().out.split() == ["2-(3,3,None)", "design:", "FAIL", "simple"]
    cert = json.loads((tmp_path / "z3.json.cert").read_text())
    assert cert["simple"] is True and cert["pass"] is False and cert["lambda"] is None
    path.write_text(
        '{"role":"design","carrier":{"group":[3]},"k":3,'
        '"blocks":[{"points":[[1],[0],[0]],"mult":1},{"points":[[0],[1],[0]],"mult":1}]}'
    )
    assert run(["verify", "design", str(path)]) == 1
    assert capsys.readouterr().out.split() == ["2-(3,3,None)", "design:", "FAIL", "non-simple"]
    cert = json.loads((tmp_path / "z3.json.cert").read_text())
    assert cert["simple"] is False and cert["pass"] is False


@pytest.mark.parametrize("k", [2, 10**9])
def test_verify_design_without_blocks_ends_in_a_verdict(tmp_path, capsys, k):
    # a file with no blocks bounds no array by k
    path = tmp_path / "empty.json"
    path.write_text(render_family(Design(AbelianGroup((3,)), np.empty((0, 2), np.int64), 2)))
    path.write_text(path.read_text().replace('"k": 2', f'"k": {k}'))
    assert run(["verify", "design", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"2-(3,{k},None) design: FAIL") and captured.err == ""
    cert = json.loads((tmp_path / "empty.json.cert").read_text())
    assert cert["pass"] is False and cert["lambda"] is None and cert["super_regular"] is True


def test_build_zero_sum_dm_rejects_k_below_two(tmp_path, capsys):
    out = tmp_path / "dm.json"
    with pytest.raises(SystemExit) as info:
        run(["build", "zero-sum-dm", "--orders", "3", "--k", "1", "--out", str(out)])
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_extend_command(tmp_path):
    df = _emit(tmp_path, "thm62-z5")
    out = tmp_path / "big.json"
    assert run(["extend", str(df), "--degree", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["carrier"]["field"]["n"] == 4
    assert len(doc["blocks"]) == 6 * 26


def test_admissibility_exit_codes(capsys):
    assert run(["admissibility", "--v", "125", "--k", "5"]) == 0
    assert run(["admissibility", "--v", "126", "--k", "15"]) == 1
    assert run(["admissibility", "--k", "5"]) == 0
    assert run(["admissibility", "--k", "6"]) == 1
    capsys.readouterr()


def test_admissibility_of_a_large_prime_v_ends(tmp_path):
    # trial division to sqrt(v) ran past a 10 s timeout on this v
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    argv = ["admissibility", "--v", "1000000000000000003", "--k", "3"]
    proc = subprocess.run([sys.executable, "-m", "difam.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode in (0, 1), proc.stderr
    assert "rad(v)=1000000000000000003" in proc.stdout


@pytest.mark.parametrize(
    "argv", [["--k", "0"], ["--v", "10", "--k", "1"], ["--v", "10", "--k", "0"], ["--v", "3", "--k", "5"]]
)
def test_admissibility_bad_parameters_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(["admissibility", *argv])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "path,value",
    [(("carrier", "group"), "33"), (("carrier", "group"), [0]), (("blocks", 0, "mult"), "x")],
    ids=["group-string", "group-zero", "mult-string"],
)
def test_verify_design_bad_header_exits_2(tmp_path, capsys, path, value):
    out = tmp_path / "ag.json"
    assert run(["build", "ag", "--n", "2", "--p", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as info:
        run(["verify", "design", str(out)])
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("error:")


# --- the error boundary: every input ends in exit 0, 1 or 2, never a traceback ---

EXAMPLE51 = json.loads(render_family(example51()))
Z5 = json.loads(render_family(thm62_z5()))
TINY_DESIGN = {"role": "design", "carrier": {"group": [2**22]}, "k": 2,
               "blocks": [{"points": [[0], [1]]}]}
SDF_K1 = {"role": "sdf", "carrier": {"group": [5]}, "k": 1, "lambda": 1, "blocks": [[[0]]]}


def _with(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# the developed thm62-z5 design, laid out as the writer lays it out, with one
# coordinate outside the group: the digit reader passes it to the JSON reader
Z5_DESIGN_OFF = json.dumps(
    _with(json.loads(render_family(develop(thm62_z5()))), ("blocks", 0, "points", 0, "f"), [99, 0]),
    indent=1,
)

# a file body and the command run on it: IN is the file, OUT an output path,
# MISSING an output path in a directory that does not exist
INPUT_ERRORS = {
    "sdf-k1-verify": (SDF_K1, ["verify", "sdf", "IN"]),
    "sdf-k1-lift": (SDF_K1, ["lift", "IN", "--field", "5,1", "--strategy", "simple", "--out", "OUT"]),
    "rdf-k1-develop": ({"role": "rdf", "carrier": {"group": [5]}, "k": 1, "lambda": 1,
                        "forbidden": [[[0]]], "blocks": [[[1]]]}, ["develop", "IN", "--out", "OUT"]),
    "overlapping-spread": ({"role": "rdf", "carrier": {"group": [4]}, "k": 2, "lambda": 1,
                            "forbidden": [[[0], [2]], [[0], [1], [2], [3]]],
                            "blocks": [[[0], [1]]]}, ["verify", "df", "IN"]),
    "residue-string": (_with(EXAMPLE51, ("blocks", 0, 1), ["x"]), ["verify", "sdf", "IN"]),
    "residue-float": (_with(EXAMPLE51, ("blocks", 0, 1), [1.9]), ["verify", "sdf", "IN"]),
    "field-list": (_with(Z5, ("carrier", "field"), [5, 1]), ["verify", "df", "IN"]),
    "forbidden-int": (_with(Z5, ("forbidden",), [5]), ["verify", "df", "IN"]),
    "k-overflow": (json.dumps(EXAMPLE51).replace('"k": 5', '"k": 1e999'), ["verify", "sdf", "IN"]),
    "non-utf8": (b'{"role": "sdf", "k": "\xff\xfe"}', ["verify", "sdf", "IN"]),
    "deep-json": ("[" * 100_000 + "]" * 100_000, ["verify", "sdf", "IN"]),
    "out-in-missing-dir": (EXAMPLE51, ["catalog", "emit", "example51", "--out", "MISSING"]),
    "design-point-off-verify": (Z5_DESIGN_OFF, ["verify", "design", "IN"]),
    "design-point-off-anomaly": (Z5_DESIGN_OFF, ["anomaly", "IN", "--p", "5"]),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_errors_exit_2_with_one_line(tmp_path, capsys, name):
    body, argv = INPUT_ERRORS[name]
    path, out = tmp_path / "in.json", tmp_path / "out"
    if isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_text(body if isinstance(body, str) else json.dumps(body))
    tokens = {"IN": str(path), "OUT": str(out), "MISSING": str(tmp_path / "no-such-dir" / "x")}
    with pytest.raises(SystemExit) as info:
        run([tokens.get(a, a) for a in argv])
    assert info.value.code == 2
    printed = capsys.readouterr()
    assert printed.err.startswith("error:") and printed.err.count("\n") == 1, printed.err
    # [1.9] used to be read as 1: example51 passed and got a certificate
    assert "PASS" not in printed.out
    assert not out.exists() and not (tmp_path / "in.json.cert").exists()


def _timed_peak(argv):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        return code, time.perf_counter() - start, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_tiny_design_on_big_carrier_allocates_no_v_squared(tmp_path, capsys):
    # 100 bytes that name 2^22 points: the v*v count array would be 128 TiB,
    # the v*v pair table 64 TiB
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_DESIGN))
    code, seconds, peak = _timed_peak(["verify", "design", str(path)])
    assert code == 1 and seconds < 1 and peak <= 100, (code, seconds, peak)
    assert "FAIL" in capsys.readouterr().out
    cert = json.loads((tmp_path / "tiny.json.cert").read_text())
    assert cert["pass"] is False and cert["witness_pair"] == [[0], [2]]
    code, seconds, peak = _timed_peak(["anomaly", str(path), "--p", "2"])
    assert code == 2 and seconds < 1 and peak <= 100, (code, seconds, peak)
    assert capsys.readouterr().err.startswith("error:")


def test_lift_refuses_a_family_that_is_not_an_sdf(tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(difam.cli, "build_psi", no_search)
    path, out = tmp_path / "lam2.json", tmp_path / "df.json"
    path.write_text(json.dumps(_with(EXAMPLE51, ("lambda",), 2)))
    argv = ["lift", str(path), "--field", "13,1", "--strategy", "greedy", "--out", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().out.strip() == f"{path} is not a (5,5,2) SDF"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["build", "zero-sum-dm", "--orders", "3,x", "--k", "3"],
     ["lift", "f.json", "--field", "4,1", "--strategy", "simple"],
     ["lift", "f.json", "--field", "5", "--strategy", "simple"]],
    ids=["orders", "field-not-prime", "field-short"],
)
def test_bad_argument_values_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as info:
        run(argv + ["--out", str(tmp_path / "x.json")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_lift_budget_below_one_is_a_usage_error(tmp_path, capsys, budget):
    sdf = _emit(tmp_path, "example51")
    capsys.readouterr()
    df = tmp_path / "df.json"
    argv = ["lift", str(sdf), "--field", "13,1", "--strategy", "greedy", "--psi-seed", "59",
            "--budget", budget, "--out", str(df)]
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --budget must be at least 1, got {budget}"]
    assert not df.exists()


def test_consecutive_runs_keep_their_own_options(tmp_path, capsys):
    # one parser serves every run in a process; no option of a run reaches the next
    assert difam.cli.build_parser() is difam.cli.build_parser()
    sdf, df = tmp_path / "paley7.json", tmp_path / "df.json"
    assert run(["build", "paley", "--q", "7", "--out", str(sdf)]) == 0
    argv = ["lift", str(sdf), "--strategy", "simple", "--field", "3,2", "--out", str(df)]
    assert run(argv + ["--signed"]) == 0
    assert run(argv) == 0
    with pytest.raises(SystemExit) as info:
        run(argv[:-4] + ["--field", "4,1", "--signed", "--out", str(df)])
    assert info.value.code == 2
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[1] for line in lines[1:]] == [
        "additive=True (v=63,k=7,lambda=3), 4 base blocks",
        "additive=True (v=63,k=7,lambda=6), 8 base blocks",
        "additive=True (v=63,k=7,lambda=6), 8 base blocks",
    ]


# a 51-digit semiprime, nextprime(10**25) * nextprime(3 * 10**25): sympy's
# factorint ran past 60 s on it
SEMIPRIME = str((10**25 + 13) * (3 * 10**25 + 67))
# a 130-bit odd semiprime, nextprime(2**64) * nextprime(2**65): factorint took 14.5 s on it
SEMIPRIME_130 = str(18446744073709551629 * 36893488147419103363)

# each input in its own process under a 1.5 GB address space: it must end in
# a verdict or in one `error:` line, never in a traceback, a hang or a
# MemoryError; "read" is the family the command reads instead of its file
BOUNDED_INPUTS = {
    "admissibility-51-digits": (["admissibility", "--v", SEMIPRIME, "--k", "3"], None, 1),
    "admissibility-v-equals-k": (["admissibility", "--v", SEMIPRIME, "--k", SEMIPRIME], None, 0),
    # _prime_to(0, k) divided 0 by gcd(0, k) = k forever
    "admissibility-v-zero": (["admissibility", "--v", "0", "--k", "3"], None, 2),
    # refused by the field cap before it is factored
    "paley-130-bit-q": (["build", "paley", "--q", SEMIPRIME_130, "--out", "x.json"], None, 2),
    "theorem82-huge-k": (["build", "theorem82", "--k", SEMIPRIME, "--out", "x.json"], None, 2),
    # 2^19 * 5: q = 5, r = 2^19, so r rows of k points, 10 TiB
    "theorem82-large-r": (["build", "theorem82", "--k", "2621440", "--out", "x.json"], None, 2),
    # 3^(10^8 - 1) columns: forming the count alone ran past 20 s
    "zero-sum-dm-huge-k": (["build", "zero-sum-dm", "--orders", "3", "--k", "100000000",
                            "--out", "x.json"], None, 2),
    # its file would be 533 MB, so it is built in the child.  AG(2,257) is regular:
    # its pair counts come from its 258 lines through 0, a verdict
    "verify-ag-2-257": (["verify", "design", "ag-2-257.json"], "ag_design(2, 257)", 0),
    # one line short, it is not regular: 2.03 GiB of one-byte pair counts, refused
    "verify-ag-2-257-less-a-line": (["verify", "design", "ag-2-257-less.json"],
                                    "(lambda d: type(d)(d.carrier, d.blocks[1:], d.k))"
                                    "(ag_design(2, 257))", 2),
    # 22 KB: one block of 1,000 points taken 2**24 times, a 125 GiB repeat
    "mult-2-24": (["verify", "design", "mult.json"], None, 2),
    "ag-2-1021": (["build", "ag", "--n", "2", "--p", "1021", "--out", "x.json"], None, 2),
    # 305,171,875 blocks (11.4 GiB of rows): refused for its size, not as a family
    "develop-degree-3": (["develop", "z5x3.json", "--out", "x.json"],
                         "extend_field(thm62_z5(), 3)", 2),
}

_BOUNDED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
import difam.cli
from difam.catalog import thm62_z5
from difam.designs import ag_design
from difam.lifting import extend_field
if sys.argv[1] != "None":
    difam.cli._read_family = lambda path, role: eval(sys.argv[1])
sys.exit(difam.cli.run(sys.argv[2:]))
"""


def test_large_inputs_end_in_a_verdict_or_one_error_line(tmp_path):
    block = [[x] for x in range(1000)]
    doc = {"role": "design", "carrier": {"group": [1009]}, "k": 1000,
           "blocks": [{"points": block, "mult": 2**24}]}
    (tmp_path / "mult.json").write_text(json.dumps(doc, indent=1))
    assert (tmp_path / "mult.json").stat().st_size < 23_000
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    procs = {
        name: subprocess.Popen([sys.executable, "-c", _BOUNDED_CHILD, str(read), *argv],
                               cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
        for name, (argv, read, _code) in BOUNDED_INPUTS.items()
    }
    outs = {}
    for name, proc in procs.items():
        outs[name], err = proc.communicate(timeout=60)
        assert proc.returncode == BOUNDED_INPUTS[name][2], (name, outs[name], err)
        assert "Traceback" not in err and "MemoryError" not in err, (name, err)
        if proc.returncode == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
    # decided by gcds; the radical, which the search cannot find, is left unfactored
    assert f"radical(v) = radical(k): PASS (rad(v)=rad({SEMIPRIME})" in outs["admissibility-v-equals-k"]
    assert f"rad(v)=rad({SEMIPRIME}), k=3" in outs["admissibility-51-digits"]


def test_verify_rdf_of_a_large_forbidden_subgroup_ends_in_time(tmp_path):
    # the forbidden subgroup of Z_131072 of even codes, 65,536 elements in a
    # 0.6 MB file; the pairwise closure check took 5.0 s on 2,048 elements
    # and 17.2 s on 4,096, so about 70 minutes on these
    doc = {"role": "rdf", "carrier": {"group": [2**17]}, "k": 2, "lambda": 1,
           "forbidden": [[[x] for x in range(0, 2**17, 2)]], "blocks": [[[0], [1]]]}
    (tmp_path / "rdf.json").write_text(json.dumps(doc, separators=(",", ":")))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    start = time.perf_counter()
    argv = [sys.executable, "-c", _BOUNDED_CHILD, "None", "verify", "rdf", "rdf.json"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert "FAIL (lambda found: None)" in proc.stdout
    assert elapsed < 5, elapsed


def test_importing_the_cli_leaves_sympy_unloaded():
    # sympy took 0.26 s of the 0.45 s import of difam.cli; only factoring needs it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = "import sys, difam.cli; print('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr
