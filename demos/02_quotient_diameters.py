#!/usr/bin/env python3
"""Finite quotients of the integers and their diameters.

Reducing mod m maps the integers onto the cyclic group of order m.  The
diameter (longest word norm) of the image controls everything downstream:
the deep-generating-set construction needs a quotient whose diameter
clears a target.  Two search modes are shown: a counting-bound guarantee
that picks order (2a+1)^n', and a greedy scan that measures diameters
and stops much earlier.
"""

from deadend import (
    GeneratingSet,
    IntegerLine,
    counting_bound_check,
    cyclic_quotient,
    find_quotient,
)


def main():
    zz = IntegerLine()
    unit = GeneratingSet([zz.element(1)])

    print("== diameters of small cyclic quotients ==")
    for m in (2, 3, 10, 11, 24):
        # the map built the ball of its target, and read its diameter off it
        report = cyclic_quotient(unit, m).report
        print(f"C_{m:<3} diameter {report.diameter:>2}  witness {report.witness}"
              f"  spheres {report.sphere_sizes}")

    print()
    print("== the counting bound as a self-test ==")
    report = cyclic_quotient(unit, 243).report
    ok = counting_bound_check(report, a=1)
    print(f"C_243: (2*1+1)^{report.diameter} >= 243?  {ok}")

    print()
    print("== two ways to hit a diameter target of 5 ==")
    pi = find_quotient(unit, n_prime=5, mode="paper_safe")
    print(f"counting-bound pick : C_{pi.target.modulus} (diameter {pi.report.diameter})")
    pi = find_quotient(unit, n_prime=5, mode="greedy")
    print(f"greedy scan         : C_{pi.target.modulus} (diameter {pi.report.diameter})")
    print("the guarantee costs a far larger quotient than measuring does")


if __name__ == "__main__":
    main()
