"""Command-line surface.

Subcommands: verify, build, lift, develop, extend, anomaly, admissibility,
catalog.  Exit codes: 0 verified/constructed, 1 negative verdict, 2 usage
or input error.  One rule maps errors to codes: any package error
(`DifamError`) or OS error that a command raises ends, in `run`, in one
`error:` line on stderr and exit 2.  The two errors that are negative
verdicts exit 1: a failed search in `lift` and a family that `develop`
refuses.  Verification commands write a .cert file next to the input with
the verdict, a coverage summary, and any witness data.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import catalog as cat
from . import designs as dz
from .families import (
    DifferenceMatrix,
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
from .gf import FiniteField, coset_reps, cyclotomic_class, parse_modulus
from .groups import AbelianGroup, DifamError
from .io import FamilyFormatError, parse_family, write_family
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


# the class of family each role of `verify` reads
_ROLES = {"sdf": StrongDifferenceFamily, "df": RelativeDifferenceFamily,
          "rdf": RelativeDifferenceFamily, "dm": DifferenceMatrix, "design": dz.Design}


def _read_family(path: str, role: type):
    """The family in the file at `path`, which must be a `role`."""
    try:
        obj = parse_family(Path(path).read_bytes())
    except FamilyFormatError as exc:
        raise FamilyFormatError(str(exc), path) from None
    if not isinstance(obj, role):
        raise FamilyFormatError(f"has role {type(obj).__name__}, expected {role.__name__}", path)
    return obj


def _fail2(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _write_cert(path: str, payload: dict) -> None:
    Path(path + ".cert").write_text(json.dumps(payload, indent=1, default=str) + "\n")


def _parse_field(text: str) -> FiniteField:
    """The argument type of --field: p,n[,modulus coeffs]."""
    parts = text.split(",", 2)
    try:
        p, n = int(parts[0]), int(parts[1])
        modulus = parse_modulus(parts[2]) if len(parts) > 2 else None
        return FiniteField(p, n, modulus)
    except (IndexError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad field spec {text!r} (want p,n[,modulus coeffs]): {exc}")


def _parse_orders(text: str) -> tuple[int, ...]:
    """The argument type of --orders: comma-separated cyclic orders."""
    return tuple(int(x) for x in text.split(","))


def _cmd_verify(args) -> int:
    obj = _read_family(args.file, _ROLES[args.role])
    if args.role in ("sdf", "df", "rdf"):
        if args.role == "sdf":
            v = verify_sdf(obj.blocks, obj.group, obj.k, obj.lam)
            role, ok, name = "sdf", v.is_sdf, f"SDF({obj.group.order},{obj.k},{obj.lam})"
        else:
            v = verify_rdf(obj.blocks, obj.group, obj.forbidden, obj.k, obj.lam)
            role, ok, name = "rdf", v.is_rdf, f"DF(v={obj.group.order},k={obj.k},lambda={obj.lam})"
        tag = "additive " if v.is_additive else ""
        print(f"{tag}{name}: {'PASS' if ok else 'FAIL'} (lambda found: {v.lam})")
        _write_cert(
            args.file,
            {
                "role": role,
                "pass": ok,
                "additive": v.is_additive,
                "lambda": v.lam,
                "failures": v.coverage.failures[:10],
            },
        )
        return 0 if ok else 1
    if args.role == "dm":
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
    v, sr = dz.verify_developed(obj)
    print(
        f"2-({obj.v},{obj.k},{v.lambda_found}) design: "
        f"{'PASS' if v.is_design else 'FAIL'}"
        + (" simple" if v.is_simple else " non-simple")
        + (" super-regular" if sr.is_super_regular else "")
    )
    r = v.lambda_found * (obj.v - 1) // (obj.k - 1) if v.is_design else None
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
    if args.what == "paley":
        obj = paley_sdf(args.q)
    elif args.what == "theorem82":
        obj = theorem82_core_sdf(args.k)
    elif args.what == "zero-sum-dm":
        obj = zero_sum_dm(AbelianGroup(args.orders), args.k)
    elif args.what == "ag":
        obj = dz.ag_design(args.n, args.p)
    else:  # jungnickel
        sdf = _read_family(args.sdf, StrongDifferenceFamily)
        obj = jungnickel_compose(sdf, _read_family(args.dm, DifferenceMatrix))
    write_family(obj, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_lift(args) -> int:
    if args.budget < 1:
        raise DifamError(f"--budget must be at least 1, got {args.budget}")
    obj = _read_family(args.file, StrongDifferenceFamily)
    if not verify_sdf(obj.blocks, obj.group, obj.k, obj.lam).is_sdf:
        print(f"{args.file} is not a ({obj.group.order},{obj.k},{obj.lam}) SDF")
        return 1
    field = args.field
    nodes = ""  # the search's node count and depth, for the strategies that search
    try:
        if args.strategy == "simple":
            rdf = simple_lift(obj, field, signed=args.signed)
            v = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, rdf.k, rdf.lam)
        else:
            if args.strategy == "signed":
                half = obj.lam // 2
                lifting = signed_lift(obj, field, half, budget=args.budget, seed=args.seed)
                mults = MultiplierSet(field, coset_reps(field, half))
            else:
                psi = build_psi(obj, obj.lam, seed=args.psi_seed)
                search = greedy_lift if args.strategy == "greedy" else zero_sum_lift
                lifting = search(obj, field, psi, budget=args.budget, seed=args.seed)
                mults = MultiplierSet(field, cyclotomic_class(field, obj.lam, 0))
            nodes = f", {lifting.nodes} search nodes, deepest level {lifting.deepest}"
            rdf, verdict = apply_multipliers(lifting, mults)
            if not verdict.ok:
                print(f"multiplier expansion failed at g={verdict.failing_g}")
                return 1
            v = verdict.rdf_verdict  # apply_multipliers has run verify_rdf
    except LiftingError as exc:
        print(f"lift failed: {exc}", file=sys.stderr)
        return 1
    if not v.is_rdf:
        print("lift output failed re-verification")
        return 1
    write_family(rdf, args.out)
    print(
        f"wrote {args.out}: additive={v.is_additive} "
        f"(v={rdf.group.order},k={rdf.k},lambda={rdf.lam}), {rdf.s} base blocks{nodes}"
    )
    return 0


def _cmd_develop(args) -> int:
    obj = _read_family(args.file, RelativeDifferenceFamily)
    try:
        design = dz.develop(obj)
    except dz.DesignTooLarge:
        raise  # no verdict on the family: one `error:` line, exit 2
    except dz.DesignError as exc:
        print(f"develop failed: {exc}", file=sys.stderr)
        return 1
    v = dz.verify_developed(design)[0]
    if not v.is_design:
        print("developed design failed re-verification")
        return 1
    write_family(design, args.out)
    print(f"wrote {args.out}: 2-({design.v},{design.k},{v.lambda_found}), {design.b} blocks")
    return 0


def _cmd_extend(args) -> int:
    big = extend_field(_read_family(args.file, RelativeDifferenceFamily), args.degree)
    v = verify_rdf(big.blocks, big.group, big.forbidden, big.k, big.lam)
    if not v.is_rdf:
        print("extended family failed re-verification")
        return 1
    write_family(big, args.out)
    print(f"wrote {args.out}: v={big.group.order}, {big.s} base blocks")
    return 0


def _cmd_anomaly(args) -> int:
    verdict = dz.anomaly_witness(_read_family(args.file, dz.Design), args.p)
    payload = {
        "anomalous": verdict.anomalous,
        "witness": verdict.witness,
        "closure_size": verdict.closure_size,
        "inconclusive": verdict.inconclusive,
    }
    _write_cert(args.file, payload)
    scanned = f"pairs of blocks scanned: {verdict.closures_scanned}"
    if verdict.anomalous:
        print(
            f"anomalous: blocks {verdict.witness} close to {verdict.closure_size} "
            f"points, not {args.p * args.p}; {scanned}"
        )
        return 0
    print(f"inconclusive: no witness within scan cap; {scanned}")
    return 1


def _cmd_admissibility(args) -> int:
    if args.v is None:
        ok = trivial_additive(args.k)
        print(f"one-block design on k={args.k} admits a zero-sum group: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    verdict = super_regular_necessary(args.v, args.k)
    strict = strict_additive_necessary(args.v, args.k)
    print(verdict.render())
    print(strict.render())
    return 0 if verdict.all_pass and strict.all_pass else 1


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in sorted(cat.FIXTURES):
            print(name)
        return 0
    if args.name not in cat.FIXTURES:
        raise DifamError(f"unknown fixture {args.name!r}; try 'catalog list'")
    obj = cat.FIXTURES[args.name]()
    write_family(obj, args.out)
    print(f"wrote {args.out}")
    return 0


@functools.cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="difam")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a family file")
    p.add_argument("role", choices=_ROLES)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("build", help="construct a standard object")
    bs = p.add_subparsers(dest="what", required=True)
    b = bs.add_parser("paley")
    b.add_argument("--q", type=int, required=True)
    b = bs.add_parser("theorem82")
    b.add_argument("--k", type=int, required=True)
    b = bs.add_parser("zero-sum-dm")
    b.add_argument("--orders", type=_parse_orders, required=True, help="comma-separated cyclic orders")
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
    p.add_argument("--field", type=_parse_field, required=True, help="p,n[,modulus coeffs ascending]")
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
    args = build_parser().parse_args(argv)
    if args.command == "catalog" and args.action == "emit" and (not args.name or not args.out):
        _fail2("catalog emit needs a fixture name and --out")
    try:
        return args.fn(args)
    except (DifamError, OSError) as exc:
        _fail2(str(exc))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
