"""The benchmark's four workloads, run inside a child process.

Each workload has a set-up (the fixtures and fields it needs: counted in
setup_s) and a job (the timed steps: counted in wall_s).  Every step's
verdict is compared with a pinned value.  The seed changes only what leaves
every verdict unchanged (an order of blocks, rows, fields or chains), so the
pins hold for every seed.

Calls go through module attributes (`dz.develop`, not a name imported at
load time), so a traced child's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import random
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

import calibrate
from difam import catalog, cli, families, gf, groups
from difam import designs as dz
from difam import io as fio
from difam import lifting as lf
from difam.diffs import GMultiset


class Aborted(Exception):
    """A step raised, so the steps after it have no input."""


class Ops:
    """Runs a workload's steps and counts them against their pins.

    A step that raises, or whose observed verdict differs from its pin, is a
    failed operation.  A raise also ends the job.

    `clock` (calibrate.StepClock) times each step: `step_s` and `step_cpu_s`
    sum the steps' wall and CPU time, `step_cal` their wall time in units of
    the reference kernel.
    """

    def __init__(self, tracer, clock):
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: Counter = Counter()
        self.step_s = 0.0
        self.step_cpu_s = 0.0
        self.step_cal = 0.0

    def run(self, name: str, fn: Callable, observe: Optional[Callable] = None,
            pin: Optional[dict] = None):
        self.attempted += 1

        def step():
            cpu = time.process_time()
            with self.tracer.span("step:" + name):
                result = fn()
                seen = observe(result) if observe else None
            self.step_cpu_s += time.process_time() - cpu
            return result, seen

        try:
            (result, seen), took, took_cal = self.clock.time(step)
        except Exception as exc:
            self.failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
            raise Aborted(name) from exc
        self.step_s += took
        self.step_cal += took_cal
        if pin is not None and seen != pin:
            self.failures.append(f"{name}: got {seen}, pinned {pin}")
        return result


class Workload(NamedTuple):
    setup: Callable  # (seed, workdir) -> state
    job: Callable  # (state, ops, damage) -> None
    check_files: Optional[Callable] = None  # (state, ops) -> None, untimed


# --- extend-3125: thm62-z5 extended to Z_5 x GF(625), developed, checked ---


def _extend_setup(seed: int, workdir: Path) -> dict:
    return {"rdf": catalog.thm62_z5(), "rng": random.Random(seed)}


def _move_one_point(rdf) -> None:
    """Damage: move one point of the first base block off the family."""
    pts = rdf.blocks[0].expand()
    outside = next(e for e in rdf.group.elements() if e not in pts)
    rdf.blocks[0] = GMultiset(rdf.group, pts[:-1] + [outside])


def _extend_job(st: dict, ops: Ops, damage: Optional[str]) -> None:
    big = ops.run(
        "extend_field",
        lambda: lf.extend_field(st["rdf"], 2),
        lambda r: {"base_blocks": r.s},
        {"base_blocks": 156},
    )
    st["rng"].shuffle(big.blocks)
    if damage == "rdf-point":
        _move_one_point(big)
    ops.run(
        "verify_rdf",
        lambda: families.verify_rdf(big.blocks, big.group, big.forbidden, big.k, big.lam),
        lambda v: {"is_rdf": v.is_rdf, "lambda": v.lam},
        {"is_rdf": True, "lambda": 1},
    )
    design = ops.run(
        "develop", lambda: dz.develop(big), lambda d: {"v": d.v, "b": d.b}, {"v": 3125, "b": 488125}
    )
    ops.run(
        "verify_design",
        lambda: dz.verify_design(design),
        lambda v: {"design": v.is_design, "lambda": v.lambda_found, "simple": v.is_simple},
        {"design": True, "lambda": 1, "simple": True},
    )
    ops.run(
        "verify_super_regular",
        lambda: dz.verify_super_regular(design, design.carrier),
        lambda v: {"super_regular": v.is_super_regular},
        {"super_regular": True},
    )
    ops.run(
        "anomaly_witness",
        lambda: dz.anomaly_witness(design, 5),
        lambda v: {"anomalous": v.anomalous, "closure_size": v.closure_size},
        {"anomalous": True, "closure_size": 26},
    )
    text = ops.run("render_family", lambda: fio.render_family(big))
    ops.run(
        "parse_family",
        lambda: fio.parse_family(text),
        lambda back: {"round_trip": back == big},
        {"round_trip": True},
    )


# --- lift-sweep: example51 lifted over GF(q), first working psi seed ---

# q -> (first psi seed whose greedy search succeeds, nodes of the failed seeds)
LIFT_PINS = {13: (59, 5584), 29: (61, 46693), 53: (6, 27195), 101: (2, 53229)}
LIFT_BUDGET = 10**5
MAX_PSI_SEEDS = 256


def _lift_setup(seed: int, workdir: Path) -> dict:
    qs = list(LIFT_PINS)
    random.Random(seed).shuffle(qs)
    return {
        "sdf": catalog.example51(),
        "fields": [(q, gf.FiniteField(q, 1)) for q in qs],
    }


def _first_lifting(sdf, field, ops: Ops):
    failed_nodes = 0
    for psi_seed in range(MAX_PSI_SEEDS):
        psi = lf.build_psi(sdf, sdf.lam, seed=psi_seed)
        try:
            lifting = lf.greedy_lift(sdf, field, psi, budget=LIFT_BUDGET)
        except lf.LiftingError as exc:
            failed_nodes += exc.nodes
            continue
        ops.counts["lifting.nodes"] += failed_nodes
        return psi_seed, failed_nodes, lifting
    raise RuntimeError(f"no psi seed below {MAX_PSI_SEEDS} lifts over GF({field.q})")


def _lift_job(st: dict, ops: Ops, damage: Optional[str]) -> None:
    sdf = st["sdf"]
    for q, field in st["fields"]:
        psi_seed, nodes, lifting = ops.run(
            f"greedy q={q}",
            lambda: _first_lifting(sdf, field, ops),
            lambda r: {"psi_seed": r[0], "failed_nodes": r[1]},
            dict(zip(("psi_seed", "failed_nodes"), LIFT_PINS[q])),
        )
        rdf, _verdict = ops.run(
            f"multipliers q={q}",
            lambda: lf.apply_multipliers(
                lifting, lf.MultiplierSet(field, gf.cyclotomic_class(field, sdf.lam, 0))
            ),
            lambda r: {"ok": r[1].ok},
            {"ok": True},
        )
        ops.run(
            f"verify_rdf q={q}",
            lambda: families.verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, rdf.k, rdf.lam),
            lambda v: {"is_rdf": v.is_rdf, "lambda": v.lam},
            {"is_rdf": True, "lambda": 1},
        )


# --- cli-chain: the two command chains a user runs, over files ---


def _cli_step(ops: Ops, name: str, argv: list, pin: dict, cert: Optional[Path] = None):
    """One `difam` command, in process.  `pin` may hold "rc", keys of the
    command's .cert file, and "printed": a text its stdout must contain."""

    def command():
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out), ops.tracer.span("cli." + argv[0]):
            try:
                rc = cli.run([str(a) for a in argv])
            except SystemExit as exc:  # usage and input errors exit 2
                rc = exc.code
        return rc, out.getvalue()

    def observe(result):
        rc, printed = result
        seen = {"rc": rc}
        if "printed" in pin:
            seen["printed"] = pin["printed"] if pin["printed"] in printed else printed.strip()
        if cert is not None:
            fields = json.loads(Path(f"{cert}.cert").read_text())
            seen.update((k, fields.get(k)) for k in pin if k not in seen)
        return seen

    ops.run(name, command, observe, pin)


def _alter_row(path: Path) -> None:
    """Damage: move one point of the first block of a design file."""
    doc = json.loads(path.read_text())
    point = doc["blocks"][0]["points"][0]
    point["f"][0] = (point["f"][0] + 1) % doc["carrier"]["field"]["p"]
    path.write_text(json.dumps(doc))


def _z7_chain(ops: Ops, d: Path, stem: str, damage: Optional[str]) -> None:
    df, design = d / f"{stem}z7.json", d / f"{stem}z7-design.json"
    _cli_step(ops, "z7 catalog emit", ["catalog", "emit", "thm62-z7", "--out", df], {"rc": 0})
    _cli_step(ops, "z7 verify df", ["verify", "df", df], {"rc": 0, "pass": True, "lambda": 1}, df)
    _cli_step(
        ops,
        "z7 develop",
        ["develop", df, "--out", design],
        {"rc": 0, "printed": "2-(343,7,1), 2793 blocks"},
    )
    if damage == "design-row":
        _alter_row(design)
    _cli_step(
        ops,
        "z7 verify design",
        ["verify", "design", design],
        {"rc": 0, "pass": True, "lambda": 1, "simple": True, "super_regular": True},
        design,
    )
    _cli_step(
        ops,
        "z7 anomaly",
        ["anomaly", design, "--p", "7"],
        {"rc": 0, "anomalous": True, "closure_size": 50},
        design,
    )


def _sigma_chain(ops: Ops, d: Path, stem: str, damage: Optional[str]) -> None:
    sdf, df, design = (d / f"{stem}{n}.json" for n in ("sp", "sp-lift", "sp-design"))
    _cli_step(ops, "sp catalog emit", ["catalog", "emit", "sigma-prime", "--out", sdf], {"rc": 0})
    _cli_step(ops, "sp verify sdf", ["verify", "sdf", sdf], {"rc": 0, "pass": True, "lambda": 42}, sdf)
    _cli_step(
        ops,
        "sp lift",
        ["lift", sdf, "--strategy", "simple", "--signed", "--field", "5,2,2,1,1", "--out", df],
        {"rc": 0, "printed": "(v=375,k=15,lambda=21), 36 base blocks"},
    )
    _cli_step(ops, "sp verify df", ["verify", "df", df], {"rc": 0, "pass": True, "lambda": 21}, df)
    _cli_step(
        ops,
        "sp develop",
        ["develop", df, "--out", design],
        {"rc": 0, "printed": "2-(375,15,21), 14025 blocks"},
    )
    _cli_step(
        ops,
        "sp verify design",
        ["verify", "design", design],
        {"rc": 0, "pass": True, "lambda": 21, "simple": False, "super_regular": True},
        design,
    )


def _cli_setup(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    chains = [_z7_chain, _sigma_chain]
    rng.shuffle(chains)
    return {"chains": chains, "dir": workdir, "stem": f"s{seed}-"}


def _cli_job(st: dict, ops: Ops, damage: Optional[str]) -> None:
    for chain in st["chains"]:
        chain(ops, st["dir"], st["stem"], damage)


def _cli_check_files(st: dict, ops: Ops) -> None:
    """parse(render(x)) == x for every family file the chain wrote."""
    for path in sorted(st["dir"].glob("*.json")):
        text = path.read_text()
        ops.run(
            f"round trip {path.name}",
            lambda: fio.render_family(fio.parse_family(text)) == text,
            lambda same: {"round_trip": same},
            {"round_trip": True},
        )


# --- closure-ag: the closure scan on explicit designs ---


def _closure_setup(seed: int, workdir: Path) -> dict:
    return {"rdf": catalog.thm62_z5(), "rng": np.random.default_rng(seed)}


def _closure_job(st: dict, ops: Ops, damage: Optional[str]) -> None:
    ag = ops.run(
        "ag_design(3,5)", lambda: dz.ag_design(3, 5), lambda d: {"v": d.v, "b": d.b}, {"v": 125, "b": 775}
    )
    shuffled = dz.Design(ag.carrier, ag.blocks[st["rng"].permutation(ag.b)], ag.k)
    ops.run(
        "anomaly_witness AG(3,5)",
        lambda: dz.anomaly_witness(shuffled, 5),
        lambda v: {"anomalous": v.anomalous, "inconclusive": v.inconclusive},
        {"anomalous": False, "inconclusive": True},
    )
    small = ops.run(
        "develop thm62-z5", lambda: dz.develop(st["rdf"]), lambda d: {"v": d.v, "b": d.b}, {"v": 125, "b": 775}
    )
    flat = dz.Design(groups.AbelianGroup((5, 5, 5)), small.blocks, 5)
    planted = ops.run(
        "subspace_replace(4,3,5)",
        lambda: dz.subspace_replace(4, 3, 5, flat),
        lambda d: {"v": d.v, "b": d.b},
        {"v": 625, "b": 19500},
    )
    ops.run(
        "verify_design planted",
        lambda: dz.verify_design(planted),
        lambda v: {"design": v.is_design, "lambda": v.lambda_found},
        {"design": True, "lambda": 1},
    )
    ops.run(
        "anomaly_witness planted",
        lambda: dz.anomaly_witness(planted, 5),
        lambda v: {"anomalous": v.anomalous, "closure_size": v.closure_size},
        {"anomalous": True, "closure_size": 26},
    )


WORKLOADS = {
    "extend-3125": Workload(_extend_setup, _extend_job),
    "lift-sweep": Workload(_lift_setup, _lift_job),
    "cli-chain": Workload(_cli_setup, _cli_job, _cli_check_files),
    "closure-ag": Workload(_closure_setup, _closure_job),
}
