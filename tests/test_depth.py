"""Dead-end depth: examples, oracle equivalence, cap semantics, regression."""

from __future__ import annotations

import hashlib
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    free_abelian_cases,
    gens_of,
    lamplighter_cases,
    outcome,
    outcome_text,
    random_table_groups,
    reference_depth,
    retained_bytes,
    table_cases,
)
from deadend.cayley import ball
from deadend.depth import DepthValue, depth, depth_oracle, depth_profile
from deadend.groups import (
    Cyclic,
    Dihedral,
    GeneratingSet,
    IntegerLine,
    Lamplighter,
    RangeOverflowError,
    standard_gens,
)

ZZ = IntegerLine()


def unit_gens(group):
    return GeneratingSet([group.element(1)])


# -- basic examples -------------------------------------------------------------


def test_line_depth_is_one():
    b = ball(ZZ, unit_gens(ZZ), 10)
    assert depth(b, ZZ.element(5), cap=5) == DepthValue.finite(1)


def test_cyclic_extremal_element_is_infinite():
    c10 = Cyclic(10)
    b = ball(c10, unit_gens(c10), 10)
    assert depth(b, c10.element(5), cap=10) == DepthValue.infinite()


def test_cyclic_two_nonidentity_infinite():
    c2 = Cyclic(2)
    b = ball(c2, unit_gens(c2), 2)
    assert depth(b, c2.element(1), cap=4) == DepthValue.infinite()


def test_identity_depth_finite_one_in_nontrivial_group():
    b = ball(ZZ, unit_gens(ZZ), 5)
    assert depth(b, ZZ.identity(), cap=3) == DepthValue.finite(1)


def test_trivial_group_identity_depth_infinite():
    c1 = Cyclic(1)
    b = ball(c1, GeneratingSet.empty(c1), 3)
    assert depth(b, c1.identity(), cap=3) == DepthValue.infinite()


def test_depth_precondition_ball_too_small():
    b = ball(ZZ, unit_gens(ZZ), 5)
    with pytest.raises(ValueError):
        depth(b, ZZ.element(9), cap=2)  # norm 5 elements fine, 9 unrecorded
    gens2 = GeneratingSet([ZZ.element(2), ZZ.element(3)])
    wide = ball(ZZ, gens2, 4)
    narrow_elem = ZZ.element(11)  # norm 4 under {2,3}
    assert wide.norm(narrow_elem) == 4
    assert depth(wide, narrow_elem, cap=3).is_finite


# -- cap semantics -----------------------------------------------------------------


def test_cap_reports_at_least():
    lamp = Lamplighter()
    gens = standard_gens(lamp)
    b = ball(lamp, gens, 8)
    deep = lamp.element(((-1, 0, 1), 0))
    assert depth(b, deep, cap=10) == DepthValue.finite(3)
    assert depth(b, deep, cap=2) == DepthValue.at_least(2)
    assert depth(b, deep, cap=1) == DepthValue.at_least(1)


def test_monotone_consistency():
    # Finite(k) at a generous cap implies AtLeast(k-1) at cap k-1.
    lamp = Lamplighter()
    gens = standard_gens(lamp)
    b = ball(lamp, gens, 6)
    for x in b.elements():
        dv = depth(b, x, cap=32)
        assert dv.is_finite
        if dv.value > 1:
            assert depth(b, x, cap=dv.value - 1) == DepthValue.at_least(dv.value - 1)


def test_depth_at_least_one_everywhere():
    d6 = Dihedral(6)
    gens = standard_gens(d6)
    b = ball(d6, gens, 12)
    for x in b.elements():
        dv = depth(b, x, cap=20)
        assert dv.is_infinite or dv.value >= 1


@pytest.mark.parametrize("group", [ZZ, Cyclic(10)], ids=repr)
def test_huge_cap_allocates_nothing_for_it(group):
    # Z exits at the first layer; in C10 the search from 5 runs out of group.
    b = ball(group, unit_gens(group), 8)
    far = group.element(5)

    def peak(cap):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            profile = depth_profile(b, cap)
            value = depth(b, far, cap)
            elapsed = time.perf_counter() - start
            return tracemalloc.get_traced_memory()[1], elapsed, list(profile.rows()), value
        finally:
            tracemalloc.stop()

    small, _, rows, value = peak(16)
    huge, elapsed, huge_rows, huge_value = peak(10**9)
    assert elapsed < 0.5
    assert huge <= small + 4096
    assert huge_rows == rows and huge_value == value


def test_trivial_group_profile_is_infinite():
    c1 = Cyclic(1)
    for cap in (1, 2, 10**9):
        rows = list(depth_profile(ball(c1, GeneratingSet.empty(c1), 3), cap).rows())
        assert rows == [(0, 0, DepthValue.infinite())]


@settings(max_examples=100, deadline=None)
@given(st.one_of(free_abelian_cases(), lamplighter_cases()))
def test_profile_rows_match_reference_search(case):
    # Caps 1 and 2 meet the first-layer exit at >=1 and >=2.
    group, gens, radius = case
    b = outcome(ball, group, gens, radius)
    if b is RangeOverflowError:
        return
    norms = dict(zip(b.payloads(), b.dist.values()))
    for cap in (1, 2, 4):
        expected = outcome(lambda: [
            (p, n, reference_depth(group, gens, norms, p, cap)) for p, n in norms.items()
        ])
        assert outcome(lambda: list(depth_profile(b, cap).rows())) == expected


def per_element_depths(b, cap):
    """Each element's depth() rendered in the ball's order, or the error of the first."""
    return outcome_text(lambda: [depth(b, x, cap).render() for x in b.elements()])


def profile_depths(b, cap):
    return outcome_text(lambda: [dv.render() for _, _, dv in depth_profile(b, cap).rows()])


@settings(max_examples=150, deadline=None)
@given(st.one_of(free_abelian_cases(), lamplighter_cases(), table_cases()),
       st.sampled_from([1, 2, 3, 64]))
def test_profile_depths_are_the_per_element_depths(case, cap):
    # the profile screens depth 1 a step at a time over the whole ball; depth() searches alone
    group, gens, radius = case
    b = outcome(ball, group, gens, radius)
    if b is RangeOverflowError:
        return
    assert profile_depths(b, cap) == per_element_depths(b, cap)


@pytest.mark.parametrize("group, payloads, radius, cap, outcomes", [
    (Lamplighter(), (((), 1), ((0,), 0)), 8, 2, {"1", ">=2"}),
    (Cyclic(11), (1,), 11, 11, {"1", "inf"}),
    (Cyclic(12), (1, 5), 12, 3, {"1", "3", ">=3"}),
    (Cyclic(12), (1, 5), 12, 12, {"1", "3", "inf"}),
    (Dihedral(6), ((1, 0), (0, 1)), 12, 1, {"1", ">=1"}),
], ids=["lamplighter", "cyclic", "cyclic-two-gens-cap-3", "cyclic-two-gens",
        "dihedral-cap-1"])
def test_profile_depths_with_capped_and_infinite_outcomes(group, payloads, radius, cap, outcomes):
    b = ball(group, gens_of(group, *payloads), radius)
    depths = per_element_depths(b, cap)
    assert set(depths) == outcomes
    assert profile_depths(b, cap) == depths


def test_profile_past_the_cap_raises_the_per_element_searchs_error():
    # The whole-ball screen meets 120 + 20 before the per-element search meets
    # 100 + 40: the profile reruns an element at a time and raises the latter.
    line = IntegerLine(bits=8)
    b = ball(line, gens_of(line, 20, 40), 3)
    error = (RangeOverflowError, "sum 100 + 40 exceeds the 8-bit cap")
    assert per_element_depths(b, 4) == error
    assert profile_depths(b, 4) == error


def test_equal_profile_values_are_shared():
    lamp = Lamplighter()
    prof = depth_profile(ball(lamp, standard_gens(lamp), 8), cap=2)
    d6 = Dihedral(6)
    oracle = depth_oracle(d6, standard_gens(d6))
    for profile, values in ((prof, {DepthValue.finite(1), DepthValue.at_least(2)}),
                            (oracle, {DepthValue.finite(1), DepthValue.infinite()})):
        by_value: dict = {}
        for _, _, dv in profile.rows():
            by_value.setdefault(dv, set()).add(id(dv))
        assert set(by_value) == values
        assert all(len(ids) == 1 for ids in by_value.values())


def test_depth_of_outside_the_profile():
    prof = depth_profile(ball(ZZ, unit_gens(ZZ), 3), cap=2)
    assert prof.depth_of(ZZ.element(-3)) == DepthValue.finite(1)
    with pytest.raises(ValueError, match="not recorded in the profile"):
        prof.depth_of(ZZ.element(4))

# -- profiles ------------------------------------------------------------------------


def test_line_profile_all_depth_one():
    b = ball(ZZ, unit_gens(ZZ), 50)
    prof = depth_profile(b, cap=5)
    for _, _, dv in prof.rows():
        assert dv == DepthValue.finite(1)


def test_cyclic_eleven_profile():
    c11 = Cyclic(11)
    b = ball(c11, unit_gens(c11), 11)
    prof = depth_profile(b, cap=11)
    for payload, norm, dv in prof.rows():
        if norm == 5:
            assert dv.is_infinite
        else:
            assert dv.is_finite and dv.value >= 1


def test_profile_summary_and_csv(tmp_path):
    c10 = Cyclic(10)
    b = ball(c10, unit_gens(c10), 10)
    prof = depth_profile(b, cap=10)
    doc = prof.summary_json()
    assert doc["schema"] == "depth-profile-summary.v1"
    assert doc["elements"] == 10
    assert doc["overall_max"] == "inf"
    assert doc["max_finite_depth"] == 1
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "element,norm,depth"
    assert len(lines) == 11
    assert "5,5,inf" in lines


# -- oracle equivalence ----------------------------------------------------------------


def assert_profiles_equal(profile, oracle):
    left = {p: (n, dv) for p, n, dv in profile.rows()}
    right = {p: (n, dv) for p, n, dv in oracle.rows()}
    assert left == right


@pytest.mark.parametrize("m", [2, 5, 10, 11, 24, 50])
def test_oracle_equivalence_cyclic(m):
    group = Cyclic(m)
    gens = unit_gens(group)
    b = ball(group, gens, m)
    assert_profiles_equal(depth_profile(b, cap=m + 1), depth_oracle(group, gens))


@pytest.mark.parametrize("m", [3, 6, 12])
def test_oracle_equivalence_dihedral(m):
    group = Dihedral(m)
    gens = standard_gens(group)
    b = ball(group, gens, 2 * m)
    assert_profiles_equal(depth_profile(b, cap=2 * m + 1), depth_oracle(group, gens))


def test_oracle_equivalence_random_tables():
    for group, gens in random_table_groups(5, seed=7):
        b = ball(group, gens, group.order())
        assert_profiles_equal(
            depth_profile(b, cap=group.order() + 1), depth_oracle(group, gens)
        )


def test_oracle_rejects_infinite_or_huge():
    with pytest.raises(ValueError):
        depth_oracle(ZZ, unit_gens(ZZ))
    big = Cyclic(20001)
    with pytest.raises(ValueError):
        depth_oracle(big, unit_gens(big))


# -- lamplighter regression ---------------------------------------------------------------


def test_lamplighter_radius8_regression():
    # Pinned after the first brute-force computation: the deepest
    # finite-depth element within radius 8 is the three-lamps-around-home
    # configuration at norm 7, with depth exactly 3.
    lamp = Lamplighter()
    gens = standard_gens(lamp)
    b = ball(lamp, gens, 8)
    assert len(b) == 490
    assert b.sphere_sizes == (1, 3, 6, 12, 22, 40, 71, 123, 212)
    prof = depth_profile(b, cap=64)
    assert prof.max_finite_depth() == 3
    assert [dv.render() for dv in prof.max_depth_by_norm()] == [
        "1", "1", "1", "1", "1", "1", "1", "3", "1",
    ]
    deepest = [
        (p, n) for p, n, dv in prof.rows() if dv == DepthValue.finite(3)
    ]
    assert deepest == [(((-1, 0, 1), 0), 7)]


def test_lamplighter_profile_csv_pinned(tmp_path):
    # SHA-256 of the radius-10, cap-16 profile CSV under {t, a}, pinned
    # before balls and depth searches ran on element codes.
    lamp = Lamplighter()
    path = tmp_path / "profile.csv"
    depth_profile(ball(lamp, standard_gens(lamp), 10), cap=16).to_csv(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "45210a40a45d16573b2aea6aca1f40c04562769a33d3696af5a9c2534eefa296"


def test_lamplighter_profile_retains_under_16_bytes_per_element():
    # the entries are a list of shared depths in the ball's order and each norm is
    # the ball's: 8.4 B per element on Python 3.11, 51 B with a code-keyed dict
    lamp = Lamplighter()
    b = ball(lamp, standard_gens(lamp), 14)
    prof, retained = retained_bytes(lambda: depth_profile(b, cap=32))
    assert len(b) == 11_609 and prof.summary_json()["elements"] == len(b)
    assert retained / len(b) < 16, f"{retained / len(b):.1f} B per element"
