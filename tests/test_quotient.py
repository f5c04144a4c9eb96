"""Quotient maps, diameters, counting bound, and quotient search."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deadend.cayley import Budget, BudgetExceededError
from deadend.groups import (
    Cyclic,
    Dihedral,
    GeneratingSet,
    IntegerGrid,
    IntegerLine,
    Lamplighter,
    TableGroup,
    standard_gens,
)
from deadend.quotient import (
    FamilyExhaustedError,
    HomomorphismError,
    QuotientMap,
    SurjectivityError,
    check_homomorphism,
    counting_bound_check,
    cyclic_quotient,
    diameter,
    find_quotient,
    group_ball,
)

ZZ = IntegerLine()
UNIT = GeneratingSet([ZZ.element(1)])


def brute_force_diameter(group, gens):
    """Independent oracle: expand products length by length until closure."""
    steps = list(gens.letters.values())
    seen = {group.identity_payload()}
    current = set(seen)
    length = 0
    while True:
        nxt = set()
        for x in current:
            for s in steps:
                y = group.mul_payload(x, s)
                if y not in seen:
                    nxt.add(y)
        if not nxt:
            return length
        length += 1
        seen |= nxt
        current = nxt


# -- apply_word -------------------------------------------------------------------


def test_cyclic_apply_examples():
    pi = cyclic_quotient(UNIT, 10)
    assert pi.apply_word([1] * 76).payload == 6
    assert pi.apply_word([]) == Cyclic(10).identity()
    assert pi.apply_word([1] * 5).payload == 5
    assert pi.apply_word([-1] * 3).payload == 7


def test_apply_word_rejects_letters_out_of_range():
    gens = GeneratingSet([ZZ.element(2), ZZ.element(3)])
    pi = cyclic_quotient(gens, 14)
    for letter in (0, 3, -3):
        with pytest.raises(ValueError, match=f"word letter {letter} out of range for 2 generators"):
            pi.apply_word((1, letter))


def test_quotient_letters_are_images_and_inverses():
    gens = standard_gens(Lamplighter())
    target = Cyclic(6)
    pi = QuotientMap(gens, target, [target.element(1), target.element(3)])
    assert list(pi.letters.items()) == [(1, 1), (-1, 5), (2, 3), (-2, 3)]
    assert list(pi.letters) == [x for x, _ in gens.symmetrized_letters()]


def test_apply_constant_across_words():
    target = Cyclic(6)
    pi = QuotientMap(UNIT, target, [target.element(1)])
    rng = random.Random(11)
    for value in range(-6, 7):
        base = [1] * value if value >= 0 else [-1] * (-value)
        padded = list(base)
        for _ in range(rng.randrange(1, 4)):
            pos = rng.randrange(len(padded) + 1)
            padded[pos:pos] = [1, -1]
        first = pi.apply_word(base)
        second = pi.apply_word(padded)
        assert first == second == target.element(value)


def test_surjectivity_enforced():
    with pytest.raises(SurjectivityError):
        cyclic_quotient(GeneratingSet([ZZ.element(2)]), 10)
    # 2 generates C_9 (gcd 1), so this is fine
    cyclic_quotient(GeneratingSet([ZZ.element(2)]), 9)


def test_homomorphism_check_cyclic_and_word():
    check_homomorphism(cyclic_quotient(UNIT, 10))
    target = Cyclic(6)
    check_homomorphism(QuotientMap(UNIT, target, [target.element(1)]))


def test_homomorphism_check_returns_none_on_every_source():
    c6 = Cyclic(6)
    grid = standard_gens(IntegerGrid(2))
    c12 = GeneratingSet([Cyclic(12).element(1)])
    lamp = standard_gens(Lamplighter())
    assert check_homomorphism(QuotientMap(UNIT, c6, [c6.element(1)])) is None
    assert check_homomorphism(QuotientMap(grid, c6, [c6.element(1)] * 2)) is None
    assert check_homomorphism(QuotientMap(c12, c6, [c6.element(1)])) is None
    d4 = Dihedral(4)
    d8_to_d4 = QuotientMap(standard_gens(Dihedral(8)), d4, [d4.element((1, 0)),
                                                             d4.element((0, 1))])
    assert check_homomorphism(d8_to_d4) is None
    parity = QuotientMap(lamp, Cyclic(2), [Cyclic(2).element(0), Cyclic(2).element(1)])
    assert check_homomorphism(parity) is None


# -- the lamplighter -------------------------------------------------------------

_LAMP = Lamplighter()
# t, a and t^21
_T_A_T21 = GeneratingSet([_LAMP.element(((), 1)), _LAMP.element(((0,), 0)),
                          _LAMP.element(((), 21))])


@pytest.mark.parametrize("images, ok", [((1, 11, 21), True), ((1, 11, 2), False)])
def test_lamplighter_check_reads_each_generator_off_t_and_a(images, ok):
    # in C_22, t -> 1 forces t^21 -> 21: an image of 2 shows up only in words
    # of 21 letters or more, past any short probe
    c22 = Cyclic(22)
    pi = QuotientMap(_T_A_T21, c22, [c22.element(x) for x in images])
    if ok:
        check_homomorphism(pi)
    else:
        with pytest.raises(HomomorphismError, match="@21 and its normal form map to different"):
            check_homomorphism(pi)


def test_lamplighter_onto_d4_is_a_homomorphism():
    # t -> s, a -> rs: a and its conjugates by s are reflections rs, r^-1 s of D_4,
    # which commute (their product is the central r^2)
    d4 = Dihedral(4)
    pi = QuotientMap(standard_gens(_LAMP), d4, [d4.element((0, 1)), d4.element((1, 1))])
    assert check_homomorphism(pi) is None


def _wreath(m):
    """C_2 wr C_m as a table on ids lamps * m + cursor: (v, i)(w, j) = (v ^ w<<i, i + j),
    the lamp masks rotated mod m, so lamps and cursor reduce mod m."""
    def rotate(w, i):
        return ((w << i) | (w >> (m - i))) & ((1 << m) - 1)

    table = [[(v ^ rotate(w, i)) * m + (i + j) % m for w in range(1 << m) for j in range(m)]
             for v in range(1 << m) for i in range(m)]
    return TableGroup(table, identity_id=0, name=f"C2wrC{m}")


@pytest.mark.parametrize("m", [3, 4, 6])
@pytest.mark.parametrize(
    "t_image, a_image, ok",
    [
        ((0, 1), (1, 0), True),  # the natural map: t -> shift, a -> toggle
        ((1, 1), (1, 0), True),  # t -> toggle * shift: a's conjugates are still lamps
        # a -> toggle * shift: a = a^-1 has two images, as the first BFS layer shows
        ((0, 1), (1, 1), False),
    ],
)
def test_lamplighter_onto_wreath_products(m, t_image, a_image, ok):
    group = _wreath(m)
    assert group.order() == m << m
    images = [group.element(lamps * m + cursor) for lamps, cursor in (t_image, a_image)]
    pi = QuotientMap(standard_gens(_LAMP), group, images)
    if ok:
        assert check_homomorphism(pi) is None
    else:
        with pytest.raises(HomomorphismError, match="map to different images"):
            check_homomorphism(pi)


def test_lamplighter_check_needs_a_to_commute_with_its_conjugates():
    # onto S_3, t -> (0 1 2) and a -> (0 1): a^2 = 1, but a and t a t^-1 are
    # different transpositions, which do not commute
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    s3 = TableGroup(table, identity_id=index[(0, 1, 2)], name="S3")
    images = [s3.element(index[(1, 2, 0)]), s3.element(index[(1, 0, 2)])]
    pi = QuotientMap(standard_gens(_LAMP), s3, images)
    with pytest.raises(HomomorphismError, match=r"\[a, t\^1 a t\^-1\] and 1 map to different"):
        check_homomorphism(pi)


@pytest.mark.parametrize(
    "values, target, images, ok",
    [
        # 21 -> 1 agrees with 1 -> 1 in C_10; 21 -> 2 does not, but only
        # words of 21 letters or more show it
        ((1, 21), Cyclic(10), (1, 1), True),
        ((1, 21), Cyclic(10), (1, 2), False),
        # gcd 2: -4 -> 3 = -2 * t forces t = 1 as the image of 2, so 6 -> 3
        ((-4, 6), Cyclic(5), (3, 3), True),
        ((-4, 6), Cyclic(5), (3, 1), False),
        # 1 -> r and 2 -> s do not commute, though 1 + 2 = 2 + 1
        ((1, 2), Dihedral(3), ((1, 0), (0, 1)), False),
        # Z^2: (21, 0) = 21 * (1, 0) must map to 21 * 1 = 1 in C_10
        (((1, 0), (0, 1), (21, 0)), Cyclic(10), (1, 1, 1), True),
        (((1, 0), (0, 1), (21, 0)), Cyclic(10), (1, 1, 2), False),
        # (4, 6) = 2 * (2, 0) + 2 * (0, 3) -> 2 * 1 + 2 * 2 = 1 in C_5
        (((2, 0), (0, 3), (4, 6)), Cyclic(5), (1, 2, 1), True),
        (((2, 0), (0, 3), (4, 6)), Cyclic(5), (1, 2, 2), False),
        # no relations, but r and s do not commute
        (((1, 0), (0, 1)), Dihedral(4), ((1, 0), (0, 1)), False),
        (((1, 0), (0, 1)), Dihedral(4), ((0, 1), (1, 1)), False),
    ],
)
def test_homomorphism_check_is_exact_on_the_integers(values, target, images, ok):
    group = IntegerGrid(len(values[0])) if isinstance(values[0], tuple) else ZZ
    gens = GeneratingSet([group.element(v) for v in values])
    pi = QuotientMap(gens, target, [target.element(x) for x in images])
    if ok:
        check_homomorphism(pi)
    else:
        with pytest.raises(HomomorphismError, match="map to different images"):
            check_homomorphism(pi)


@st.composite
def lattice_quotients(draw):
    """Z (rank 0 here) or Z^k, k <= 2, with s <= 3 distinct nonzero generators,
    entries in +-2, onto C_m with surjective images."""
    rank = draw(st.integers(0, 2))
    coord = st.integers(-2, 2)
    vector = st.tuples(*[coord] * max(rank, 1)).filter(any)
    vectors = draw(st.lists(vector, min_size=1, max_size=3, unique=True))
    m = draw(st.integers(2, 6))
    images = draw(st.lists(st.integers(0, m - 1), min_size=len(vectors), max_size=len(vectors)))
    assume(math.gcd(m, *images) == 1)
    return rank, vectors, m, images


@settings(max_examples=150, deadline=None)
@given(lattice_quotients())
def test_lattice_homomorphism_check_matches_brute_force(case):
    rank, vectors, m, images = case
    group = IntegerGrid(rank) if rank else ZZ
    gens = GeneratingSet([group.element(v if rank else v[0]) for v in vectors])
    target = Cyclic(m)
    pi = QuotientMap(gens, target, [target.element(x) for x in images])
    # C_m is abelian, so the images define a map exactly when every relation
    # c (sum c_i g_i = 0) has sum c_i t_i = 0 mod m; checking a set of
    # relations that contains a basis of them suffices.  With entries at most
    # B = 2 and k <= 2, s <= 3, every relation lattice has a basis in the box
    # |c_i| <= 2 B^2: a rank-1 lattice is spanned by the primitive vector of
    # the 2 x 2 minors (s = 3, rank 2; at most 2 B^2) or of (a_2, -a_1)
    # where g_i = a_i w (s = 2; at most B); the rank-2 lattice a^perp of
    # g_i = a_i w (s = 3) has determinant at most |a| <= sqrt(3) B, so a
    # Gauss-reduced basis has lengths at most (2 / sqrt(3)) |a| <= 2 B.
    box = 2 * 2 * 2
    dims = range(len(vectors[0]))
    violated = any(
        sum(c * t for c, t in zip(cs, images)) % m
        for cs in itertools.product(range(-box, box + 1), repeat=len(vectors))
        if not any(sum(c * v[x] for c, v in zip(cs, vectors)) for x in dims)
    )
    if violated:
        with pytest.raises(HomomorphismError, match="map to different images"):
            check_homomorphism(pi)
    else:
        check_homomorphism(pi)


def test_homomorphism_check_rejects_bad_images():
    # Lamplighter -> C_3 sending the shift to 1 and the toggle to 1 is not
    # a homomorphism (the toggle is an involution, 1 has order 3).
    lamp = Lamplighter()
    gens = standard_gens(lamp)
    target = Cyclic(3)
    pi = QuotientMap(gens, target, [target.element(1), target.element(1)])
    with pytest.raises(HomomorphismError):
        check_homomorphism(pi)


def test_lamp_parity_quotient_is_well_defined():
    # Lamplighter -> C_2 by lamp-count parity: shift -> 0, toggle -> 1.
    lamp = Lamplighter()
    gens = standard_gens(lamp)
    target = Cyclic(2)
    pi = QuotientMap(gens, target, [target.element(0), target.element(1)])
    check_homomorphism(pi)
    assert [e.payload for e in pi.image_gens.entries] == [1]
    assert pi.section == (1,)


# -- diameter --------------------------------------------------------------------


def test_diameter_cyclic_examples():
    for m, expected in [(10, 5), (11, 5), (243, 121)]:
        group = Cyclic(m)
        report = diameter(group, GeneratingSet([group.element(1)]))
        assert report.diameter == expected
        assert report.order == m
        assert sum(report.sphere_sizes) == m
    report = diameter(Cyclic(10), GeneratingSet([Cyclic(10).element(1)]))
    assert report.witness.payload == 5


def test_diameter_matches_brute_force():
    rng = random.Random(3)
    for m in range(2, 30):
        group = Cyclic(m)
        payloads = [1]
        if m > 4 and rng.random() < 0.5:
            payloads.append(rng.randrange(2, m - 1))
        gens = GeneratingSet([group.element(p) for p in dict.fromkeys(payloads)])
        try:
            report = diameter(group, gens)
        except SurjectivityError:
            continue
        assert report.diameter == brute_force_diameter(group, gens)
    for m in range(3, 9):
        group = Dihedral(m)
        gens = standard_gens(group)
        report = diameter(group, gens)
        assert report.diameter == brute_force_diameter(group, gens)


def test_diameter_errors_when_gens_do_not_generate():
    group = Cyclic(10)
    with pytest.raises(SurjectivityError):
        diameter(group, GeneratingSet([group.element(2)]))
    # the subgroup's radius 2 is above the radius budget, but a larger budget would not help
    with pytest.raises(SurjectivityError, match="generators reach only 5 of 10 elements"):
        diameter(group, GeneratingSet([group.element(2)]), Budget(max_radius=1))


def test_whole_group_bfs_is_held_to_the_radius_it_reaches():
    # order 10,001 is above the default radius budget, the diameter is not
    big = Cyclic(10_001)
    assert diameter(big, GeneratingSet([big.element(1)])).diameter == 5000
    small = Cyclic(100)
    with pytest.raises(BudgetExceededError, match="reached radius 50"):
        diameter(small, GeneratingSet([small.element(1)]), Budget(max_radius=10))
    assert diameter(small, GeneratingSet([small.element(1)]), Budget(max_radius=50)).diameter == 50
    with pytest.raises(BudgetExceededError, match="element budget"):
        diameter(small, GeneratingSet([small.element(1)]), Budget(max_elements=20))


def test_the_whole_group_bfs_keeps_the_callers_deadline(clock):
    # group_ball lifts the radius limit to the order for its BFS; the lifted
    # budget keeps the clock reading the caller's started from
    group, budget = Cyclic(100), Budget(max_seconds=5, started=100.0)
    gens = GeneratingSet([group.element(1)])
    clock.set(105.5)
    with pytest.raises(BudgetExceededError, match="^time budget 5s exceeded$"):
        group_ball(group, gens, budget)
    clock.set(105.0)
    assert len(group_ball(group, gens, budget)) == 100


def test_quotient_map_builds_its_ball_under_the_callers_budget():
    with pytest.raises(BudgetExceededError, match="element budget 1000") as info:
        cyclic_quotient(UNIT, 200_001, budget=Budget(max_elements=1000))
    assert info.value.elements_seen <= 1001
    with pytest.raises(BudgetExceededError, match="reached radius 15, above 5") as info:
        cyclic_quotient(UNIT, 30, budget=Budget(max_radius=5))
    assert (info.value.radius_reached, info.value.elements_seen) == (15, 30)


def test_diameter_witness_max_length_invariant():
    report = diameter(Cyclic(17), GeneratingSet([Cyclic(17).element(1)]))
    assert report.sphere_sizes[report.diameter] >= 1
    assert len(report.sphere_sizes) == report.diameter + 1


def test_diameter_report_json():
    report = diameter(Cyclic(10), GeneratingSet([Cyclic(10).element(1)]))
    doc = report.to_json()
    assert doc["schema"] == "diameter-report.v1"
    assert doc["order"] == 10
    assert doc["diameter"] == 5
    assert doc["witness"] == "5"


# -- counting bound -----------------------------------------------------------------


def test_counting_bound_examples():
    r10 = diameter(Cyclic(10), GeneratingSet([Cyclic(10).element(1)]))
    assert counting_bound_check(r10, a=1)
    r3 = diameter(Cyclic(3), GeneratingSet([Cyclic(3).element(1)]))
    assert r3.diameter == 1
    assert counting_bound_check(r3, a=1)
    r243 = diameter(Cyclic(243), GeneratingSet([Cyclic(243).element(1)]))
    assert counting_bound_check(r243, a=1)


def test_counting_bound_as_diameter_lower_bound_sampled():
    # floor(m/2) >= log_3(m), equivalently 3^floor(m/2) >= m, for the
    # cyclic family; exhaustive sweep happens in the acceptance suite.
    for m in itertools.chain(range(2, 200), [243, 1000, 3**10]):
        assert 3 ** (m // 2) >= m


# -- find_quotient --------------------------------------------------------------------


def test_find_quotient_paper_safe():
    pi = find_quotient(UNIT, n_prime=5, mode="paper_safe")
    assert pi.target.modulus == 243
    assert pi.report.diameter == 121
    assert pi.report.diameter >= 5


def test_find_quotient_greedy():
    pi = find_quotient(UNIT, n_prime=5, mode="greedy")
    assert pi.target.modulus == 10
    assert pi.report.diameter == 5


def test_find_quotient_greedy_minimal_target():
    pi = find_quotient(UNIT, n_prime=1, mode="greedy")
    assert pi.target.modulus == 2
    assert pi.report.diameter == 1


def test_find_quotient_family_exhausted():
    message = "^no cyclic quotient of order 2 to 5 reaches diameter 50$"
    with pytest.raises(FamilyExhaustedError, match=message):
        find_quotient(UNIT, n_prime=50, mode="greedy", stop=5)


def test_family_exhaustion_names_the_orders_searched():
    # C_243 is the only member searched, and 3 does not generate it
    with pytest.raises(FamilyExhaustedError, match=r"^no cyclic quotient of order 243 to 243 "):
        find_quotient(GeneratingSet([ZZ.element(3)]), n_prime=5, mode="paper_safe", stop=243)
    with pytest.raises(FamilyExhaustedError) as exc:
        find_quotient(UNIT, n_prime=5, mode="greedy", stop=1)
    assert str(exc.value) == "no cyclic quotient searched: the first order 2 lies above the stop 1"


def test_find_quotient_modes_meet_target():
    for mode in ("paper_safe", "greedy"):
        for n_prime in (1, 2, 3, 4):
            pi = find_quotient(UNIT, n_prime, mode=mode)
            assert pi.report.diameter >= n_prime


@pytest.mark.parametrize("entries, top", [((1,), 8), ((2, 3), 4), ((3,), 6)])
def test_paper_safe_returns_the_first_surjective_member_at_the_counting_bound(entries, top):
    # Z -> C_m sends S onto a generating set exactly when gcd(S, m) = 1
    gens = GeneratingSet([ZZ.element(s) for s in entries])
    for n_prime in range(1, top + 1):
        m = (2 * len(entries) + 1) ** n_prime
        while math.gcd(m, *entries) != 1:
            m += 1
        pi = find_quotient(gens, n_prime, mode="paper_safe")
        assert pi.target.modulus == m
        assert pi.report.diameter >= n_prime
        if m <= 1000:
            assert pi.report.diameter == brute_force_diameter(pi.target, pi.image_gens)


def test_find_quotient_skips_non_surjective(monkeypatch):
    import deadend.quotient

    gens = GeneratingSet([ZZ.element(2)])
    assert find_quotient(gens, n_prime=1, mode="greedy").target.modulus == 3
    built = []
    real = deadend.quotient.cyclic_quotient

    def recording(gens, m, budget):
        pi = real(gens, m, budget)
        built.append(m)
        return pi

    monkeypatch.setattr(deadend.quotient, "cyclic_quotient", recording)
    with pytest.raises(FamilyExhaustedError):
        find_quotient(gens, n_prime=50, mode="greedy", stop=10)
    assert built == [3, 5, 7, 9]
