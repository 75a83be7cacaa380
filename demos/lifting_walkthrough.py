"""From a 5-element difference multiset to a 125-point Steiner design.

Walks the full construction in small steps: the (5,5,4) multiset on Z_5,
its plus/minus lifting into Z_5 x GF(25), the multiplier expansion into a
six-block relative difference family, and the developed 2-(125,5,1)
design, which turns out to be super-regular and provably different from
the point-line design of AG(3,5).
"""

from difam.catalog import example51, paper_signed_lifting_z5
from difam.designs import anomaly_witness, develop, verify_design, verify_super_regular
from difam.families import verify_rdf, verify_sdf
from difam.gf import coset_reps
from difam.lifting import (
    MultiplierSet,
    apply_multipliers,
    signed_lifting_from_assignments,
    verify_signed_lifting,
)


def main():
    sdf = example51()
    verdict = verify_sdf(sdf.blocks, sdf.group, 5, 4)
    print(f"base multiset {sdf.blocks[0].expand()}")
    print(f"  (5,5,4) strong difference family: {verdict.is_sdf}, additive: {verdict.is_additive}")

    field, assigns = paper_signed_lifting_z5()
    print(f"\nlifting into Z_5 x {field} with assignment {assigns[0]}")
    print(f"  half-lambda transversal check: {verify_signed_lifting(sdf, field, assigns, 2)}")

    lifting = signed_lifting_from_assignments(sdf, field, assigns)
    mults = MultiplierSet(field, coset_reps(field, 2))
    rdf, mv = apply_multipliers(lifting, mults)
    fam = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 5, 1)
    print(f"\nmultiplier expansion by six even powers of the primitive root")
    print(f"  {rdf.s} base blocks, lambda=1 relative family: {fam.is_rdf}, additive: {fam.is_additive}")

    design = develop(rdf)
    dv = verify_design(design)
    sr = verify_super_regular(design, design.carrier)
    print(f"\ndeveloped design: 2-({design.v},{design.k},{dv.lambda_found}) with {design.b} blocks")
    print(f"  simple: {dv.is_simple}, super-regular: {sr.is_super_regular}")

    witness = anomaly_witness(design, 5)
    print(
        f"\nclosure witness: blocks {witness.witness} generate {witness.closure_size} "
        f"points (a plane of AG(3,5) would close at 25)"
    )


if __name__ == "__main__":
    main()
