"""Command-line surface.

Subcommands: verify, build, lift, develop, extend, anomaly, admissibility,
catalog.  Exit codes: 0 verified/constructed, 1 negative verdict, 2 usage
or input error.  Verification commands write a .cert file next to the
input with the verdict, a coverage summary, and any witness data.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog as cat
from . import designs as dz
from .families import (
    DifferenceMatrix,
    FamilyError,
    RelativeDifferenceFamily,
    StrongDifferenceFamily,
    jungnickel_compose,
    paley_sdf,
    theorem82_core_sdf,
    verify_dm,
    verify_rdf,
    verify_sdf,
    zero_sum_dm,
)
from .gf import FieldError, FiniteField, coset_reps, cyclotomic_class, parse_modulus
from .groups import AbelianGroup, GroupError
from .io import FamilyFormatError, parse_family, render_family
from .lifting import (
    LiftingError,
    MultiplierSet,
    apply_multipliers,
    build_psi,
    extend_field,
    greedy_lift,
    signed_lift,
    simple_lift,
    zero_sum_lift,
)
from .params import strict_additive_necessary, super_regular_necessary, trivial_additive


def _read_family(path: str):
    try:
        return parse_family(Path(path).read_text())
    except OSError as exc:
        _fail2(f"cannot read {path}: {exc}")
    except FamilyFormatError as exc:
        _fail2(f"{path}: {exc}")


def _fail2(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _write_cert(path: str, payload: dict) -> None:
    Path(path + ".cert").write_text(json.dumps(payload, indent=1, default=str) + "\n")


def _parse_field(text: str) -> FiniteField:
    parts = text.split(",", 2)
    try:
        p, n = int(parts[0]), int(parts[1])
        modulus = parse_modulus(parts[2]) if len(parts) > 2 else None
        return FiniteField(p, n, modulus)
    except (IndexError, ValueError) as exc:
        _fail2(f"bad field spec {text!r} (want p,n[,modulus coeffs]): {exc}")


def _cmd_verify(args) -> int:
    obj = _read_family(args.file)
    if args.role == "sdf":
        if not isinstance(obj, StrongDifferenceFamily):
            _fail2(f"{args.file} has role {type(obj).__name__}, expected an SDF")
        v = verify_sdf(obj.blocks, obj.group, obj.k, obj.lam)
        tag = "additive " if v.is_additive else ""
        print(
            f"{tag}SDF({obj.group.order},{obj.k},{obj.lam}): "
            f"{'PASS' if v.is_sdf else 'FAIL'} (lambda found: {v.lam})"
        )
        _write_cert(
            args.file,
            {
                "role": "sdf",
                "pass": v.is_sdf,
                "additive": v.is_additive,
                "lambda": v.lam,
                "failures": v.coverage.failures[:10],
            },
        )
        return 0 if v.is_sdf else 1
    if args.role in ("df", "rdf"):
        if not isinstance(obj, RelativeDifferenceFamily):
            _fail2(f"{args.file} has role {type(obj).__name__}, expected a relative DF")
        v = verify_rdf(obj.blocks, obj.group, obj.forbidden, obj.k, obj.lam)
        tag = "additive " if v.is_additive else ""
        print(
            f"{tag}DF(v={obj.group.order},k={obj.k},lambda={obj.lam}): "
            f"{'PASS' if v.is_rdf else 'FAIL'} (lambda found: {v.lam})"
        )
        _write_cert(
            args.file,
            {
                "role": "rdf",
                "pass": v.is_rdf,
                "additive": v.is_additive,
                "lambda": v.lam,
                "failures": v.coverage.failures[:10],
            },
        )
        return 0 if v.is_rdf else 1
    if args.role == "dm":
        if not isinstance(obj, DifferenceMatrix):
            _fail2(f"{args.file} has role {type(obj).__name__}, expected a DM")
        v = verify_dm(obj.columns, obj.group, obj.k, obj.mu)
        print(
            f"DM(|H|={obj.group.order},k={obj.k},mu={obj.mu}): "
            f"{'PASS' if v.is_dm else 'FAIL'}"
            + (" additive" if v.is_additive else "")
        )
        _write_cert(
            args.file,
            {"role": "dm", "pass": v.is_dm, "additive": v.is_additive, "failures": v.failures[:10]},
        )
        return 0 if v.is_dm else 1
    # design
    if not isinstance(obj, dz.Design):
        _fail2(f"{args.file} has role {type(obj).__name__}, expected a design")
    v = dz.verify_design(obj)
    sr = dz.verify_super_regular(obj, obj.carrier)
    print(
        f"2-({obj.v},{obj.k},{v.lambda_found}) design: "
        f"{'PASS' if v.is_design else 'FAIL'}"
        + (" simple" if v.is_simple else " non-simple")
        + (" super-regular" if sr.is_super_regular else "")
    )
    r = None
    if v.is_design:
        r = v.lambda_found * (obj.v - 1) // (obj.k - 1)
    _write_cert(
        args.file,
        {
            "role": "design",
            "pass": v.is_design,
            "lambda": v.lambda_found,
            "simple": v.is_simple,
            "replication": r,
            "super_regular": sr.is_super_regular,
            "witness_pair": v.witness_pair,
        },
    )
    return 0 if v.is_design else 1


def _cmd_build(args) -> int:
    try:
        if args.what == "paley":
            obj = paley_sdf(args.q)
        elif args.what == "theorem82":
            obj = theorem82_core_sdf(args.k)
        elif args.what == "zero-sum-dm":
            group = AbelianGroup(tuple(int(x) for x in args.orders.split(",")))
            obj = zero_sum_dm(group, args.k)
        elif args.what == "ag":
            obj = dz.ag_design(args.n, args.p)
        else:  # jungnickel
            sdf = _read_family(args.sdf)
            dm = _read_family(args.dm)
            if not isinstance(sdf, StrongDifferenceFamily) or not isinstance(dm, DifferenceMatrix):
                _fail2("jungnickel needs an SDF file and a DM file")
            obj = jungnickel_compose(sdf, dm)
    except (FamilyError, FieldError, GroupError, ValueError) as exc:
        _fail2(str(exc))
    Path(args.out).write_text(render_family(obj))
    print(f"wrote {args.out}")
    return 0


def _cmd_lift(args) -> int:
    obj = _read_family(args.file)
    if not isinstance(obj, StrongDifferenceFamily):
        _fail2(f"{args.file} has role {type(obj).__name__}, expected an SDF")
    field = _parse_field(args.field)
    try:
        if args.strategy == "simple":
            rdf = simple_lift(obj, field, signed=args.signed)
            v = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, rdf.k, rdf.lam)
        else:
            if args.strategy == "signed":
                half = obj.lam // 2
                lifting = signed_lift(obj, field, half, budget=args.budget, seed=args.seed)
                mults = MultiplierSet(field, coset_reps(field, ("pm1-in-index", half)))
            else:
                psi = build_psi(obj, obj.lam, seed=args.psi_seed)
                search = greedy_lift if args.strategy == "greedy" else zero_sum_lift
                lifting = search(obj, field, psi, budget=args.budget, seed=args.seed)
                mults = MultiplierSet(field, cyclotomic_class(field, obj.lam, 0))
            rdf, verdict = apply_multipliers(lifting, mults)
            if not verdict.ok:
                print(f"multiplier expansion failed at g={verdict.failing_g}")
                return 1
            v = verdict.rdf_verdict  # apply_multipliers has run verify_rdf
    except (LiftingError, FamilyError, FieldError) as exc:
        print(f"lift failed: {exc}", file=sys.stderr)
        return 1
    if not v.is_rdf:
        print("lift output failed re-verification")
        return 1
    Path(args.out).write_text(render_family(rdf))
    print(
        f"wrote {args.out}: additive={v.is_additive} "
        f"(v={rdf.group.order},k={rdf.k},lambda={rdf.lam}), {rdf.s} base blocks"
    )
    return 0


def _cmd_develop(args) -> int:
    obj = _read_family(args.file)
    if not isinstance(obj, RelativeDifferenceFamily):
        _fail2(f"{args.file} has role {type(obj).__name__}, expected a relative DF")
    try:
        design = dz.develop(obj)
    except dz.DesignError as exc:
        print(f"develop failed: {exc}", file=sys.stderr)
        return 1
    v = dz.verify_design(design)
    if not v.is_design:
        print("developed design failed re-verification")
        return 1
    Path(args.out).write_text(render_family(design))
    print(f"wrote {args.out}: 2-({design.v},{design.k},{v.lambda_found}), {design.b} blocks")
    return 0


def _cmd_extend(args) -> int:
    obj = _read_family(args.file)
    if not isinstance(obj, RelativeDifferenceFamily):
        _fail2(f"{args.file} has role {type(obj).__name__}, expected a relative DF")
    try:
        big = extend_field(obj, args.degree)
    except (LiftingError, FieldError) as exc:
        _fail2(str(exc))
    v = verify_rdf(big.blocks, big.group, big.forbidden, big.k, big.lam)
    if not v.is_rdf:
        print("extended family failed re-verification")
        return 1
    Path(args.out).write_text(render_family(big))
    print(f"wrote {args.out}: v={big.group.order}, {big.s} base blocks")
    return 0


def _cmd_anomaly(args) -> int:
    obj = _read_family(args.file)
    if not isinstance(obj, dz.Design):
        _fail2(f"{args.file} has role {type(obj).__name__}, expected a design")
    try:
        verdict = dz.anomaly_witness(obj, args.p)
    except dz.DesignError as exc:
        _fail2(str(exc))
    payload = {
        "anomalous": verdict.anomalous,
        "witness": verdict.witness,
        "closure_size": verdict.closure_size,
        "inconclusive": verdict.inconclusive,
    }
    _write_cert(args.file, payload)
    if verdict.anomalous:
        print(
            f"anomalous: blocks {verdict.witness} close to {verdict.closure_size} "
            f"points (> {args.p * args.p})"
        )
        return 0
    print("inconclusive: no witness within scan cap")
    return 1


def _cmd_admissibility(args) -> int:
    try:
        if args.v is None:
            ok = trivial_additive(args.k)
            print(f"one-block design on k={args.k} admits a zero-sum group: {'PASS' if ok else 'FAIL'}")
            return 0 if ok else 1
        verdict = super_regular_necessary(args.v, args.k)
        strict = strict_additive_necessary(args.v, args.k)
    except ValueError as exc:
        _fail2(str(exc))
    print(verdict.render())
    print(strict.render())
    return 0 if verdict.all_pass and strict.all_pass else 1


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in sorted(cat.FIXTURES):
            print(name)
        return 0
    if args.name not in cat.FIXTURES:
        _fail2(f"unknown fixture {args.name!r}; try 'catalog list'")
    obj = cat.FIXTURES[args.name]()
    Path(args.out).write_text(render_family(obj))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="difam")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a family file")
    p.add_argument("role", choices=["sdf", "df", "rdf", "dm", "design"])
    p.add_argument("file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("build", help="construct a standard object")
    bs = p.add_subparsers(dest="what", required=True)
    b = bs.add_parser("paley")
    b.add_argument("--q", type=int, required=True)
    b = bs.add_parser("theorem82")
    b.add_argument("--k", type=int, required=True)
    b = bs.add_parser("zero-sum-dm")
    b.add_argument("--orders", required=True, help="comma-separated cyclic orders")
    b.add_argument("--k", type=int, required=True)
    b = bs.add_parser("ag")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--p", type=int, required=True)
    b = bs.add_parser("jungnickel")
    b.add_argument("--sdf", required=True)
    b.add_argument("--dm", required=True)
    for b in bs.choices.values():
        b.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("lift", help="lift an SDF to a relative DF")
    p.add_argument("file")
    p.add_argument("--field", required=True, help="p,n[,modulus coeffs ascending]")
    p.add_argument("--strategy", choices=["greedy", "zero-sum", "signed", "simple"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--psi-seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10**7)
    p.add_argument("--signed", action="store_true", help="simple strategy: halve lambda")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("develop", help="develop a relative DF into a design")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_develop)

    p = sub.add_parser("extend", help="expand a DF over G x F_q to G x F_q^n")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("anomaly", help="closure-based anomaly witness scan")
    p.add_argument("file")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=_cmd_anomaly)

    p = sub.add_parser("admissibility", help="arithmetic necessary conditions")
    p.add_argument("--v", type=int)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_admissibility)

    p = sub.add_parser("catalog", help="list or emit reference fixtures")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_catalog)

    return ap


def run(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "catalog" and args.action == "emit" and (not args.name or not args.out):
        _fail2("catalog emit needs a fixture name and --out")
    return args.fn(args)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
