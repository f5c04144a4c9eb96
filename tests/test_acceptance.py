"""Acceptance suite: one test per claim, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import deadend
from conftest import a_ball, random_table_groups
from deadend.cayley import Budget, ball
from deadend.construction import Construction, bound_inequality_holds, required_N
from deadend.depth import DepthValue, depth, depth_oracle, depth_profile
from deadend.groups import (
    Cyclic,
    Dihedral,
    GeneratingSet,
    IntegerLine,
    Lamplighter,
    standard_gens,
)
from deadend.quotient import QuotientMap, cyclic_quotient, diameter, find_quotient

ZZ = IntegerLine()
UNIT = GeneratingSet([ZZ.element(1)])
# SHA-256 of the newline-joined certificate digests of lamplighter -> D_4 at D=2, tight
LAMPLIGHTER_D4_DIGESTS_SHA256 = "37889cbd9d2e7fd9479d6acddc5ed0ddeeae7b278943cc482702e7816f10f3b6"


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {summary}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {summary}")


def test_01_construction_c10_paper_bound():
    with criterion(1, "C_10 construction at D=3, N=78: witness norm 5, ball stays closed"):
        ctx = Construction(UNIT, cyclic_quotient(UNIT, 10), target_depth=3,
                           bound_mode="paper")
        assert ctx.params.d == 2
        assert ctx.params.n == 5
        assert ctx.params.N == 78
        entries = sorted(e.payload for e in ctx.genset.entries)
        assert entries == [k for k in range(-78, 79) if k % 10 == 1]
        assert len(entries) == 15
        helper = a_ball(ctx)
        assert helper.norm(ctx.witness.element) == 5
        neighborhood = ctx.witness_neighborhood()
        for element, _ in neighborhood:
            norm = helper.norm(element)
            assert norm is not None and norm <= 5
        report = ctx.verify()
        assert report.passed
        # depth(5) >= 3, exact value pinned by brute-force BFS
        value = depth(helper, ctx.witness.element, cap=20)
        assert value.is_finite and value.value >= 3
        assert value == DepthValue.finite(5)


def test_02_tight_bound_verifies_and_inequality_recheck():
    with criterion(2, "tight bound N=38 verifies; inequality holds at 38/78, fails at 37"):
        ctx = Construction(UNIT, cyclic_quotient(UNIT, 10), target_depth=3,
                           bound_mode="tight")
        assert ctx.params.N == 38
        assert required_N(5, 2, "tight") == 38
        assert ctx.verify().passed
        assert bound_inequality_holds(5, 2, 38)
        assert bound_inequality_holds(5, 2, 78)
        assert not bound_inequality_holds(5, 2, 37)


def test_03_certificate_suite_full_neighborhood():
    with criterion(3, "certificates validate for all of B_{A,2}(witness), k >= 3"):
        ctx = Construction(UNIT, cyclic_quotient(UNIT, 10), target_depth=3)
        neighborhood = ctx.witness_neighborhood()
        assert len(neighborhood) == 117
        checked = 0
        for element, s_word in neighborhood:
            cert = ctx.certify(element, s_word)
            assert not cert.degenerate
            # product, images and membership were checked by factorize
            # inside certify(), as it derived the certificate; re-assert
            # the headline facts directly
            product = ZZ.identity()
            for payload in cert.v_payloads:
                product = product * ZZ.element(payload)
            assert product == element
            assert all(abs(p) <= ctx.params.N for p in cert.v_payloads)
            assert ctx.params.n - ctx.params.d <= cert.k <= ctx.params.n
            checked += 1
        assert checked == len(neighborhood)  # 100% pass rate


def test_04_oracle_equivalence_corpus():
    with criterion(4, "depth_profile equals depth_oracle on cyclic/dihedral/table corpus"):
        def assert_equal(group, gens):
            order = group.order()
            b = ball(group, gens, order)
            prof = depth_profile(b, cap=order + 1)
            oracle = depth_oracle(group, gens)
            left = {p: (n, dv) for p, n, dv in prof.rows()}
            right = {p: (n, dv) for p, n, dv in oracle.rows()}
            assert left == right, f"profile/oracle mismatch for {group!r}"

        for m in range(2, 51):
            group = Cyclic(m)
            assert_equal(group, GeneratingSet([group.element(1)]))
            # gens {1, 2}: drop identity images (m = 2) and duplicates
            payloads = [p for p in dict.fromkeys((1 % m, 2 % m)) if p != 0]
            assert_equal(group, GeneratingSet([group.element(p) for p in payloads]))
        for m in range(3, 13):
            group = Dihedral(m)
            assert_equal(group, standard_gens(group))
        tables = random_table_groups(10, max_order=64, seed=41, degree=4)
        tables += random_table_groups(10, max_order=64, seed=42, degree=5)
        assert len(tables) == 20
        assert any(g.order() > 24 for g, _ in tables)
        for group, gens in tables:
            assert group.order() <= 64
            assert_equal(group, gens)


def test_05_counting_bound_and_quotient_search():
    with criterion(5, "3^floor(m/2) >= m for m <= 3^10; paper_safe -> C_243, greedy -> C_10"):
        limit = 3**10
        # diameter of C_m under {1} is floor(m/2): confirmed by BFS on an
        # initial segment plus spot checks, closed form swept to 3^10
        for m in range(2, 257):
            group = Cyclic(m)
            report = diameter(group, GeneratingSet([group.element(1)]))
            assert report.diameter == m // 2
        big = Budget(max_radius=limit + 1)
        for m in (243, 1024, limit):
            group = Cyclic(m)
            report = diameter(group, GeneratingSet([group.element(1)]), big)
            assert report.diameter == m // 2
        for m in range(1, limit + 1):
            k = m // 2
            assert 3 ** min(k, 11) >= m  # 3^11 > 3^10 >= m caps the power
        pi = find_quotient(UNIT, n_prime=5, mode="paper_safe")
        assert pi.target.modulus == 243
        assert pi.report.diameter == 121
        assert pi.report.diameter >= 5
        pi = find_quotient(UNIT, n_prime=5, mode="greedy")
        assert pi.target.modulus == 10
        assert pi.report.diameter == 5


def test_06_baseline_sanity():
    with criterion(6, "unit integers: depth 1 everywhere to 200; C_10 extremal infinite"):
        b = ball(ZZ, UNIT, 201)
        for g in range(-200, 201):
            assert depth(b, ZZ.element(g), cap=3) == DepthValue.finite(1)
        c10 = Cyclic(10)
        cb = ball(c10, GeneratingSet([c10.element(1)]), 10)
        assert depth(cb, c10.element(5), cap=10) == DepthValue.infinite()


def test_07_second_scale_construction_c22():
    with criterion(7, "C_22 construction at D=4 (n=11, N=66) fully verifies"):
        assert required_N(11, 3, "paper") == 66
        ctx = Construction(UNIT, cyclic_quotient(UNIT, 22), target_depth=4,
                           bound_mode="paper")
        assert ctx.params.d == 3
        assert ctx.params.n == 11
        assert ctx.params.N == 66
        assert ctx.witness.element.payload == 11
        helper = a_ball(ctx)
        assert helper.norm(ctx.witness.element) == 11
        report = ctx.verify()
        assert report.passed
        value = depth(helper, ctx.witness.element, cap=30)
        assert value.is_finite and value.value >= 4


def test_08_lamplighter_regression():
    with criterion(8, "lamplighter radius-8 profile reproduces pinned max finite depth 3"):
        lamp = Lamplighter()
        gens = standard_gens(lamp)
        b = ball(lamp, gens, 8)
        assert len(b) == 490
        prof = depth_profile(b, cap=64)
        # pinned after the first brute-force computation
        assert prof.max_finite_depth() == 3
        assert [dv.render() for dv in prof.max_depth_by_norm()] == [
            "1", "1", "1", "1", "1", "1", "1", "3", "1",
        ]
        again = depth_profile(ball(lamp, gens, 8), cap=64)
        assert {p: (n, dv) for p, n, dv in again.rows()} == {
            p: (n, dv) for p, n, dv in prof.rows()
        }


def test_09_lamplighter_construction_onto_d4():
    with criterion(9, "lamplighter -> D_4 (t -> s, a -> rs) at D=2, tight: passes, witness norm 4"):
        lamp = Lamplighter()
        gens = standard_gens(lamp)
        d4 = Dihedral(4)
        pi = QuotientMap(gens, d4, [d4.element((0, 1)), d4.element((1, 1))])
        ctx = Construction(gens, pi, target_depth=2, bound_mode="tight")
        assert (ctx.params.n, ctx.params.d, ctx.params.N) == (4, 1, 16)
        report = ctx.verify()
        assert report.passed
        assert report.neighborhood_size == 5998
        digests = "\n".join(row["certificate_digest"] for row in report.rows)
        assert hashlib.sha256(digests.encode()).hexdigest() == LAMPLIGHTER_D4_DIGESTS_SHA256
        # The A-ball of radius 4 is a BFS over 6,080 signed letters, out of a
        # test's reach.  S lies in A, so the S-ball bounds norm_A(w) <= 4;
        # pi maps A into {s, rs}, so the target ball bounds it from below.
        w = ctx.witness
        assert w.n == 4
        assert ball(lamp, gens, 4).norm(w.element) == 4
        assert ball(d4, pi.image_gens, 4).norm(pi.apply_word(w.s_word)) == 4
        assert all(pi.apply_word(ctx.s_ball.geodesic(e)) in pi.image_gens
                   for e in ctx.genset)


def test_readme_library_example_prints_what_it_says():
    # the README's "## Library" block, run as a script
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(deadend.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "True 15\n5\n"
