#!/usr/bin/env python3
"""Manufacturing deep dead ends: the full construction pipeline.

The integers have no deep dead ends under {1}, but a generating set can
be engineered to create them.  Recipe, for a target depth D:

  1. set d = D - 1 and find a finite quotient whose diameter n exceeds 2d;
  2. pick the ball radius N from the sufficiency bound for (n, d);
  3. take A = every element of the radius-N ball whose image is a
     generator image of the quotient;
  4. lift a maximal-length quotient element to a witness g with
     norm_A(g) = n.

Everything within A-distance d of the witness then stays inside the
closed radius-n ball, so the witness has depth >= d + 1 = D.  The claim
is proved per neighbour by an explicit factorization certificate,
re-checkable without any search.  The verification builds no ball over A
beyond the radius-d one it walks about the witness, and reads no norm off
it; this demo builds ``ball(zz, A, n)`` only to show norms and the exact
depth by brute force.
"""

from deadend import Construction, GeneratingSet, IntegerLine, ball, cyclic_quotient, depth


def main():
    zz = IntegerLine()
    unit = GeneratingSet([zz.element(1)])
    pi = cyclic_quotient(unit, 10)

    print("== build for target depth 3 through the mod-10 quotient ==")
    ctx = Construction(unit, pi, target_depth=3, bound_mode="paper")
    p = ctx.params
    print(f"parameters: d={p.d}, quotient diameter n={p.n}, ball radius N={p.N}")
    entries = [e.payload for e in ctx.genset.entries]
    print(f"A has {len(entries)} entries (all = 1 mod 10, magnitude <= {p.N}):")
    print(f"  {entries}")
    w = ctx.witness
    a_ball = ball(zz, ctx.genset, p.n)
    print(f"witness: {w.element} with norm_A = {a_ball.norm(w.element)} = n")

    print()
    print("== exhaustive verification of the depth bound ==")
    report = ctx.verify()
    print(f"checked {report.neighborhood_size} elements within distance {p.d} "
          f"of the witness: all norms <= {p.n}, all certificates valid")
    exact = depth(a_ball, w.element, cap=20)
    print(f"certified depth >= {p.d + 1}; exhaustive search says depth = {exact}")

    print()
    print("== a certificate, unpacked ==")
    g = zz.element(76)  # one A-step beyond the witness
    cert = ctx.certify(g)
    print(f"element {g}: k = {cert.k} factors {list(cert.v_payloads)}")
    print(f"each factor is in A or its inverses, so norm_A({g}) <= {cert.k}")
    print(f"certificate digest: {cert.digest()}")

    print()
    print("== the same bound, tighter ==")
    tight = Construction(unit, pi, target_depth=3, bound_mode="tight")
    print(f"tight mode shrinks N from 78 to {tight.params.N} "
          f"(|A| = {len(tight.genset)}) and still verifies: "
          f"{tight.verify().passed}")


if __name__ == "__main__":
    main()
