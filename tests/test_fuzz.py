"""Fuzzing the error boundary: a malformed family file or argument value
ends in a verdict (exit 0 or 1) or one `error:` line (exit 2), never in a
traceback.

Generated carriers stay small so that the suite runs in seconds: a mutation
draws its integers from -2 to 4, or one value above every cap.  The inputs
that name a large carrier in a tiny file have their own regression tests in
test_cli.py and test_designs.py.
"""

import contextlib
import copy
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from difam.catalog import FIXTURES, example51, thm62_z5
from difam.cli import run
from difam.designs import MAX_DESIGN_BLOCKS, MAX_DESIGN_POINTS, ag_design, verify_design
from difam.families import zero_sum_dm
from difam.gf import FiniteField
from difam.groups import AbelianGroup
from difam.io import FamilyFormatError, parse_family, render_family
from difam.lifting import simple_lift

FUZZ = settings(
    database=None,
    derandomize=True,
    deadline=5000,  # generous: the host's speed swings
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_SMALL_RDF = simple_lift(example51(), FiniteField(7, 1))  # Z_5 x GF(7), 6 base blocks
BASES = {
    "sdf": json.loads(render_family(example51())),
    "rdf": json.loads(render_family(_SMALL_RDF)),
    "dm": json.loads(render_family(zero_sum_dm(AbelianGroup((3,)), 3))),
    "design": json.loads(render_family(ag_design(2, 3))),
}
PRODUCT_RDF = json.loads(render_family(thm62_z5()))

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.sampled_from([1.9, 5.0, -0.5, float("inf"), 2**70]),
    st.text(max_size=2),
)
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["g", "f", "p", "n", "points", "mult", "x"]), kids, max_size=2),
    max_leaves=6,
)


def _mutate(draw, doc):
    """Walk down from the top, going on three times in four below it, then
    replace, delete, wrap or nest the node reached."""
    holder, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (holder is None or draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        holder, node = node, node[key]
    op = draw(st.sampled_from(["replace", "delete", "wrap", "nest"]))
    new = {"replace": lambda: draw(VALUES), "wrap": lambda: [node], "nest": lambda: {"g": node},
           "delete": lambda: None}[op]()
    if holder is None:
        return new
    if op == "delete":
        del holder[key]
    else:
        holder[key] = new
    return doc


@st.composite
def family_docs(draw, bases=tuple(BASES.values())):
    """A family file, valid or damaged in up to three places."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(0, 3))):
        doc = _mutate(draw, doc)
    return doc


@FUZZ
@given(st.one_of(
    family_docs(tuple(BASES.values()) + (PRODUCT_RDF,)).map(json.dumps),
    st.binary(max_size=24),
    st.integers(1, 3000).map(lambda n: "[" * n + "]" * n),
))
def test_parse_family_raises_only_format_errors(text):
    try:
        obj = parse_family(text)
    except FamilyFormatError:
        return
    rendered = render_family(obj)
    assert render_family(parse_family(rendered)) == rendered


@st.composite
def wide_designs(draw):
    """A design file of up to three blocks of up to 1,200 points, each taken
    once or twice, or so often that the blocks or the block points pass
    their cap; in difam's own layout (the fast reader's) or compact (the
    JSON reader's).  Also whether it passes a cap.  A multiplicity just
    under a cap is left out: the design it makes is allowed, and takes up
    to 1 GiB."""
    k = draw(st.integers(1, 1200))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, 2**21 - k))
        mult = draw(st.one_of(st.integers(1, 2), st.integers(MAX_DESIGN_POINTS // k + 1, 2**70)))
        blocks.append({"points": [[x] for x in range(start, start + k)], "mult": mult})
    total = sum(b["mult"] for b in blocks)
    doc = {"role": "design", "carrier": {"group": [2**21]}, "k": k, "blocks": blocks}
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 1])))
    return text, total > MAX_DESIGN_BLOCKS or total * k > MAX_DESIGN_POINTS


@contextlib.contextmanager
def _address_space_headroom(extra=1 << 29):
    """This process's soft RLIMIT_AS lowered to its address space now plus
    `extra`, so that a reader that allocates by a file's numbers fails with
    a MemoryError instead of taking the machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * resource.getpagesize()
    limit = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@settings(FUZZ, max_examples=60)
@given(wide_designs())
def test_wide_blocks_and_large_multiplicities_are_refused_before_they_are_made(case):
    text, past_cap = case
    with _address_space_headroom():
        try:
            design = parse_family(text)
        except FamilyFormatError as exc:
            assert past_cap and "counting multiplicity" in str(exc)
            return
        assert not past_cap and design.b * design.k <= MAX_DESIGN_POINTS
        assert not verify_design(design).is_design  # a few blocks on 2^21 points


FIELDS = ["5,1", "7,1", "13,1", "2,2", "3,2", "5,2,2,1,1", "4,1", "5", "x,1", "2,2,1,0", "7,1,3", ""]
INTS = st.integers(-2, 9).map(str)


def _argv(draw, d: Path) -> list[str]:
    def file(role=None):
        path = d / f"in{len(list(d.iterdir()))}.json"
        bases = (BASES[role],) if role and draw(st.booleans()) else tuple(BASES.values())
        path.write_text(json.dumps(draw(family_docs(bases))))
        return str(path)

    out = str(d / draw(st.sampled_from(["out.json", "missing/out.json"])))
    cmd = draw(st.sampled_from(
        ["verify", "build", "lift", "develop", "extend", "anomaly", "admissibility", "catalog"]
    ))
    if cmd == "verify":
        role = draw(st.sampled_from(["sdf", "df", "rdf", "dm", "design"]))
        return ["verify", role, file({"df": "rdf"}.get(role, role))]
    if cmd == "build":
        what = draw(st.sampled_from(["paley", "theorem82", "zero-sum-dm", "ag", "jungnickel"]))
        args = {
            "paley": lambda: ["--q", draw(st.integers(-3, 31).map(str))],
            "theorem82": lambda: ["--k", draw(st.integers(-2, 40).map(str))],
            "zero-sum-dm": lambda: ["--orders", draw(st.lists(INTS, min_size=1, max_size=2).map(",".join)),
                                    "--k", draw(INTS)],
            "ag": lambda: ["--n", draw(st.integers(-1, 3).map(str)), "--p", draw(INTS)],
            "jungnickel": lambda: ["--sdf", file("sdf"), "--dm", file("dm")],
        }[what]()
        return ["build", what, *args, "--out", out]
    if cmd == "lift":
        argv = ["lift", file("sdf"), "--field", draw(st.sampled_from(FIELDS)),
                "--strategy", draw(st.sampled_from(["greedy", "zero-sum", "signed", "simple"])),
                "--budget", draw(st.integers(0, 300).map(str)), "--psi-seed", draw(INTS)]
        return argv + (["--signed"] if draw(st.booleans()) else []) + ["--out", out]
    if cmd == "develop":
        return ["develop", file("rdf"), "--out", out]
    if cmd == "extend":
        return ["extend", file("rdf"), "--degree", draw(st.integers(-1, 3).map(str)), "--out", out]
    if cmd == "anomaly":
        return ["anomaly", file("design"), "--p", draw(INTS)]
    if cmd == "admissibility":
        v = ["--v", draw(st.integers(-5, 400).map(str))] if draw(st.booleans()) else []
        return ["admissibility", *v, "--k", draw(st.integers(-2, 20).map(str))]
    name = draw(st.sampled_from(sorted(FIXTURES) + ["nope"]))
    return ["catalog", "list"] if draw(st.booleans()) else ["catalog", "emit", name, "--out", out]


@FUZZ
@given(st.data())
def test_every_command_ends_in_an_exit_code(data):
    with tempfile.TemporaryDirectory() as d:
        argv = _argv(data.draw, Path(d))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    errors = err.getvalue()
    assert "Traceback" not in errors and errors.count("error:") <= 1, (argv, errors)


# real processes, real exit codes: one input of each kind the boundary catches
SUBPROCESS_CASES = [
    ("float-residue", '{"role": "sdf", "carrier": {"group": [5]}, "k": 5, "lambda": 4,'
                      ' "blocks": [[[0], [1.9], [1], [4], [4]]]}', ["verify", "sdf"], 2),
    ("non-utf8", b'{"role": "\xff"}', ["verify", "sdf"], 2),
    ("tiny-design", '{"role": "design", "carrier": {"group": [4194304]}, "k": 2,'
                    ' "blocks": [{"points": [[0], [1]]}]}', ["verify", "design"], 1),
    ("tiny-anomaly", '{"role": "design", "carrier": {"group": [4194304]}, "k": 2,'
                     ' "blocks": [{"points": [[0], [1]]}]}', ["anomaly", "--p", "2"], 2),
]


def test_cli_subprocess_exit_codes(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    procs = []
    for name, body, command, expected in SUBPROCESS_CASES:
        path = tmp_path / f"{name}.json"
        path.write_bytes(body if isinstance(body, bytes) else body.encode())
        argv = command[:2] + [str(path)] if command[0] == "verify" else [command[0], str(path), *command[1:]]
        procs.append(subprocess.Popen([sys.executable, "-m", "difam.cli", *argv], env=env,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    for (name, _body, _command, expected), proc in zip(SUBPROCESS_CASES, procs):
        _out, err = proc.communicate(timeout=60)
        assert proc.returncode == expected, (name, err)
        assert "Traceback" not in err, name
        assert err.count("error:") == (expected == 2), name
