"""Deep generating-set pipeline: bounds, built sets, witnesses, certificates."""

from __future__ import annotations

import functools
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deadend.cayley
import deadend.construction
import deadend.quotient
from conftest import a_ball, retained_bytes
from deadend.cayley import Budget, ball, bfs_layers
from deadend.construction import (
    Certificate,
    CertificateError,
    Construction,
    ConstructionError,
    ConstructionParams,
    PrefixTable,
    bound_inequality_holds,
    constructed_genset,
    factorize,
    find_witness,
    required_N,
    required_n,
)
from deadend.depth import depth
from deadend.groups import (
    Cyclic,
    Dihedral,
    GeneratingSet,
    IntegerGrid,
    IntegerLine,
    evaluate_word,
    invert_word,
    standard_gens,
)
from deadend.quotient import (
    HomomorphismError,
    QuotientMap,
    cyclic_quotient,
    diameter,
    find_quotient,
)

ZZ = IntegerLine()
UNIT = GeneratingSet([ZZ.element(1)])


@pytest.fixture(scope="module")
def c10_ctx():
    return Construction(UNIT, cyclic_quotient(UNIT, 10), target_depth=3)


# -- parameter arithmetic --------------------------------------------------------


def test_required_n():
    assert required_n(1) == 3
    assert required_n(2) == 5
    assert required_n(3) == 7
    with pytest.raises(ValueError):
        required_n(0)


def test_required_N_paper():
    assert required_N(5, 2, "paper") == 78
    assert required_N(7, 3, "paper") == 151
    assert required_N(11, 3, "paper") == 66


def test_required_N_tight():
    assert required_N(5, 2, "tight") == 38
    # re-derive: the cleared inequality must hold at 38 and fail at 37
    assert bound_inequality_holds(5, 2, 38)
    assert not bound_inequality_holds(5, 2, 37)
    assert bound_inequality_holds(5, 2, 78)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(0, 10**12))
def test_bound_inequality_equals_the_fraction_form(d, excess, N):
    n = d + excess
    assert bound_inequality_holds(n, d, N) == (Fraction(n + d * N, n - d) + 2 * n + 1 <= N)


def test_the_cli_imports_no_fractions():
    code = "import sys, deadend.cli; print('fractions' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(deadend.construction.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "False"


def test_required_N_rejects_small_n():
    with pytest.raises(ValueError):
        required_N(4, 2)
    with pytest.raises(ValueError):
        required_N(5, 0)


def test_paper_bound_dominates_tight():
    for d in range(1, 50):
        for n in range(2 * d + 1, 101):
            assert required_N(n, d, "paper") >= required_N(n, d, "tight")


def test_both_modes_satisfy_inequality():
    for d in range(1, 20):
        for n in range(2 * d + 1, 61):
            for mode in ("paper", "tight"):
                assert bound_inequality_holds(n, d, required_N(n, d, mode))


def test_params_validation():
    params = ConstructionParams(3, 5, "paper")
    assert (params.d, params.N) == (2, 78)
    assert ConstructionParams(3, 5, "tight").N == 38
    with pytest.raises(ValueError, match="quotient diameter 4 is too small for target depth 3"):
        ConstructionParams(3, 4, "paper")  # n <= 2d
    with pytest.raises(ValueError, match="bound mode must be one of"):
        ConstructionParams(3, 5, "loose")


# -- built generating sets -----------------------------------------------------------


def test_build_c10_full_set(c10_ctx):
    entries = [e.payload for e in c10_ctx.genset.entries]
    assert entries == [1, -9, 11, -19, 21, -29, 31, -39, 41, -49, 51, -59, 61, -69, 71]
    assert sorted(entries) == sorted(k for k in range(-78, 79) if k % 10 == 1)
    assert len(entries) == 15


def test_build_radius_one_returns_source():
    genset, _ = constructed_genset(UNIT, cyclic_quotient(UNIT, 10), N=1)
    assert [e.payload for e in genset.entries] == [1]


def test_build_mod2_dedups_inverse_pairs():
    genset, _ = constructed_genset(UNIT, cyclic_quotient(UNIT, 2), N=3)
    assert [e.payload for e in genset.entries] == [1, 3]
    # the symmetrized view still covers all four odd values
    assert genset.symmetrized_payloads() == frozenset({1, -1, 3, -3})


def test_built_set_invariants(c10_ctx):
    ctx = c10_ctx
    pi = ctx.pi
    tset = pi.image_set()
    for e in ctx.genset.entries:
        assert abs(e.payload) <= ctx.params.N
        word = ctx.s_ball.geodesic(e)
        assert evaluate_word(word, ctx.source_gens) == e
        assert pi.apply_word(word).payload in tset
        assert ctx.s_ball.norm(e) is not None
    for s in ctx.source_gens.entries:
        assert s.payload in ctx.symmetrized


# -- witness -----------------------------------------------------------------------


def test_find_witness_c10(c10_ctx):
    w = c10_ctx.witness
    assert w.element.payload == 5
    assert w.n == 5
    assert w.depth_lower_bound == 3
    assert w.s_word == (1, 1, 1, 1, 1)
    assert a_ball(c10_ctx).norm(w.element) == 5


def test_find_witness_minimal_quotient():
    # C_2 with N=1: the constructed set is S itself, witness is 1.
    pi = cyclic_quotient(UNIT, 2)
    genset, _ = constructed_genset(UNIT, pi, N=1)
    report = diameter(pi.target, pi.image_gens)
    assert report.diameter == 1
    w = find_witness(UNIT, pi)
    assert w.element.payload == 1
    assert w.n == 1
    assert ball(ZZ, genset, 1).norm(w.element) == 1


def test_find_witness_c22():
    ctx = Construction(UNIT, cyclic_quotient(UNIT, 22), target_depth=4)
    assert [e.payload for e in ctx.genset.entries] == [1, -21, 23, -43, 45, -65]
    assert ctx.witness.element.payload == 11
    assert a_ball(ctx).norm(ctx.witness.element) == 11


# -- lifts and the target ball ------------------------------------------------------


def _lifts_of(gens, pi):
    # _lifts reads only the source generators and the quotient map
    ctx = object.__new__(Construction)
    ctx.source_gens, ctx.pi = gens, pi
    return ctx._lifts


def _section_word(pi, h):
    """S-word that the target geodesic of h spells through the section of pi."""
    return tuple((pi.section[abs(x) - 1] + 1) * (1 if x > 0 else -1)
                 for x in pi.ball.geodesic_payload(h))


def test_lift_examples(c10_ctx):
    # a lift's length is the target norm of its element
    lifts, norm = c10_ctx._lifts, c10_ctx.pi.ball.norm_payload
    assert (norm(6), lifts[6]) == (4, -4)
    assert (norm(0), lifts[0]) == (0, 0)
    assert (norm(5), lifts[5]) == (5, 5)


def test_lifts_over_c19683_retain_under_90_bytes_per_element():
    # a lift is its source payload alone: 62 B per element on Python 3.11, 157 B
    # with its length beside it
    pi = cyclic_quotient(UNIT, 19683)
    lifts, retained = retained_bytes(lambda: _lifts_of(UNIT, pi))
    assert len(lifts) == len(pi.ball) == 19683
    assert retained / len(lifts) < 90, f"{retained / len(lifts):.1f} B per element"


def test_lift_lengths_match_target_norms(c10_ctx):
    pi = c10_ctx.pi
    for h, lift in c10_ctx._lifts.items():
        word = _section_word(pi, h)
        assert len(word) == pi.ball.norm_payload(h) <= c10_ctx.params.n
        assert evaluate_word(word, UNIT).payload == lift
        assert pi.apply_word(word).payload == h


def _bfs_over(cls, monkeypatch):
    """Record every BFS whose steps multiply in a group of class cls."""
    calls = []
    for module in (deadend.cayley, deadend.quotient):
        real = module.bfs_layers

        def counting(mul, *rest, real=real):
            if isinstance(getattr(mul, "__self__", None), cls):
                calls.append(mul.__self__)
            return real(mul, *rest)

        monkeypatch.setattr(module, "bfs_layers", counting)
    return calls


def test_one_target_bfs_per_quotient_map(monkeypatch):
    calls = _bfs_over(Cyclic, monkeypatch)
    ctx = Construction(UNIT, cyclic_quotient(UNIT, 22), target_depth=4)
    assert ctx.verify().passed
    assert calls == [ctx.pi.target]
    calls.clear()
    members = []
    real = deadend.quotient.cyclic_quotient

    def recording(gens, m, budget):
        pi = real(gens, m, budget)
        members.append(pi.target)
        return pi

    monkeypatch.setattr(deadend.quotient, "cyclic_quotient", recording)
    pi = find_quotient(UNIT, 5)
    assert (pi.target.modulus, pi.report.diameter) == (10, 5)
    assert calls == members and len(members) == 9


def test_library_paper_safe_builds_one_target_ball(monkeypatch):
    calls = _bfs_over(Cyclic, monkeypatch)
    pi = find_quotient(UNIT, 8, "paper_safe")
    assert (pi.target.modulus, pi.report.diameter) == (6561, 3280)  # 3^8
    assert len(calls) == 1 and calls[0] is pi.target


def _dihedral_table_quotient():
    from deadend.groups import Dihedral, TableGroup, standard_gens
    from deadend.quotient import QuotientMap

    d4 = Dihedral(4)
    ids = {e.payload: i for i, e in enumerate(d4.elements())}
    table = [[ids[d4.mul_payload(p, q)] for q in ids] for p in ids]
    target = TableGroup(table, ids[d4.identity_payload()], name="D_4")
    gens = standard_gens(Dihedral(8))
    images = [target.element(ids[(1, 0)]), target.element(ids[(0, 1)])]
    return gens, QuotientMap(gens, target, images)


def _grid_quotient():
    from deadend.groups import IntegerGrid, standard_gens
    from deadend.quotient import QuotientMap

    gens = standard_gens(IntegerGrid(2))
    c10 = Cyclic(10)
    return gens, QuotientMap(gens, c10, [c10.element(1), c10.element(1)])


def _lamplighter_quotient():
    from deadend.groups import Lamplighter, standard_gens
    from deadend.quotient import QuotientMap

    gens = standard_gens(Lamplighter())
    c6 = Cyclic(6)
    return gens, QuotientMap(gens, c6, [c6.element(1), c6.element(3)])


def _z23_quotient():
    gens = GeneratingSet([ZZ.element(2), ZZ.element(3)])
    return gens, cyclic_quotient(gens, 14)


@pytest.mark.parametrize(
    "make,N",
    [
        (_z23_quotient, 6),
        (_grid_quotient, 6),
        (_lamplighter_quotient, 4),
        (_dihedral_table_quotient, 6),
    ],
    ids=["z23-c14", "grid-c10", "lamplighter-c6", "dihedral-table"],
)
def test_parent_folds_match_geodesic_reference(make, N):
    # Reference: lift every target geodesic through the section and evaluate
    # it from scratch, with no fold down the BFS tree.
    gens, pi = make()
    expected = []
    for h in pi.ball.payloads():
        word = _section_word(pi, h)
        assert len(word) == pi.ball.norm_payload(h)
        assert pi.apply_word(word).payload == h
        expected.append((h, evaluate_word(word, gens).payload))
    assert list(_lifts_of(gens, pi).items()) == expected

    genset, s_ball = constructed_genset(gens, pi, N)
    words = s_ball.along_parents((), lambda word, letter: word + (letter,))
    assert list(words.items()) == [(p, s_ball.geodesic_payload(p)) for p in s_ball.payloads()]
    group = gens.group
    tset = pi.image_set()
    expected_a: list = []
    for p in s_ball.payloads():
        if p == group.identity_payload() or group.inv_payload(p) in expected_a:
            continue
        if pi.apply_word(s_ball.geodesic_payload(p)).payload in tset:
            expected_a.append(p)
    assert [e.payload for e in genset.entries] == expected_a


# -- certificates --------------------------------------------------------------------


def test_certificate_for_witness(c10_ctx):
    cert = c10_ctx.certify(c10_ctx.witness.element)
    assert cert.k == 5
    assert cert.u_lengths == [1, 1, 1, 1, 1]
    assert all(length <= 1 + 2 * 5 for length in cert.v_word_lengths)
    assert cert.v_payloads == (1, 1, 1, 1, 1)


def test_certificate_one_step_from_witness(c10_ctx):
    cert = c10_ctx.certify(ZZ.element(76))
    assert cert.k == 4
    assert cert.k >= c10_ctx.params.n - c10_ctx.params.d
    assert a_ball(c10_ctx).norm(ZZ.element(76)) <= cert.k


def test_certificate_degenerate_when_image_trivial(c10_ctx):
    cert = c10_ctx.certify(ZZ.element(30))
    assert cert.degenerate
    assert cert.k == 0


def test_certificate_rejects_wrong_word(c10_ctx):
    with pytest.raises(CertificateError, match="does not evaluate to the element"):
        factorize(c10_ctx, ZZ.element(5), (1, 1, 1))


def test_certificate_rejects_overlong_word(c10_ctx):
    long_word = (1,) * (c10_ctx.params.n + c10_ctx.params.d * c10_ctx.params.N + 1)
    g = evaluate_word(long_word, UNIT)
    with pytest.raises(CertificateError, match=r"S-word length 162 exceeds n \+ d\*N = 161"):
        factorize(c10_ctx, g, long_word)


@pytest.mark.parametrize("g", [1, 30], ids=["k=1", "degenerate"])
def test_triangle_bound_rejects_an_element_far_from_the_witness(c10_ctx, g):
    g = ZZ.element(g)
    with pytest.raises(CertificateError, match="k = [01] below the triangle bound n - d = 3"):
        factorize(c10_ctx, g, c10_ctx.path_for(g), near_witness=True)


# A corrupted target ball or lift table, each caught by the check named.
FACTORIZE_FAULTS = {
    "k = 6 exceeds the diameter n = 5": lambda ctx: (
        ctx.pi.ball, "norm_payload", lambda p: ctx.params.n + 1),
    "target geodesic does not spell the image": lambda ctx: (
        ctx.pi.ball, "geodesic_payload",
        lambda p, real=ctx.pi.ball.geodesic_payload: invert_word(real(p))),
    "factors do not multiply to the element": lambda ctx: (
        ctx, "_lifts", {**ctx._lifts, 0: 1}),
}


@pytest.mark.parametrize("message", sorted(FACTORIZE_FAULTS))
def test_factorize_rejects_a_corrupted_derivation(monkeypatch, message):
    ctx = Construction(UNIT, cyclic_quotient(UNIT, 10), target_depth=3)
    monkeypatch.setattr(*FACTORIZE_FAULTS[message](ctx))
    with pytest.raises(CertificateError, match=message):
        ctx.certify(ZZ.element(46))


def test_certificate_rejects_a_word_letter_out_of_range(c10_ctx):
    # a caller's plain S-word is folded into its table, which names the bad letter
    message = "word letter 9 out of range for 1 generators"
    with pytest.raises(ValueError, match=message):
        factorize(c10_ctx, ZZ.element(5), (1, 9))
    with pytest.raises(ValueError, match=message):
        c10_ctx.certify(ZZ.element(5), (1, 9))


def test_certificate_factor_outside_a_rejected(c10_ctx, monkeypatch):
    cert = c10_ctx.certify(ZZ.element(46))
    symmetrized = c10_ctx.symmetrized - {cert.v_payloads[1]}
    monkeypatch.setattr(c10_ctx, "symmetrized", symmetrized)
    with pytest.raises(CertificateError, match="factor 1: factor is not in A"):
        c10_ctx.certify(ZZ.element(46))


def reference_factorize(ctx, g, s_word):
    """Letter-by-letter reference: every prefix image, correction and factor
    word is built and folded from scratch, as certificates were built before
    the lifts; the certificate keeps each factor word's length."""
    s_word = tuple(s_word)
    assert evaluate_word(s_word, ctx.source_gens) == g
    L = len(s_word)
    pi_g = ctx.pi.apply_word(s_word).payload
    k = ctx.pi.ball.norm_payload(pi_g)
    if k == 0:
        return Certificate(g, 0, (), (), (), (), degenerate=True)
    t_letters = ctx.pi.ball.geodesic_payload(pi_g)
    base, extra = divmod(L, k)
    cuts = [i * base + min(i, extra) for i in range(k + 1)]
    target = ctx.pi.target
    corrections = [()]
    for i in range(1, k):
        prefix_image = ctx.pi.apply_word(s_word[: cuts[i]]).payload
        prefix_geo = evaluate_word(t_letters[:i], ctx.pi.image_gens).payload
        corrections.append(_section_word(ctx.pi, target.mul_payload(
            target.inv_payload(prefix_image), prefix_geo)))
    corrections.append(())
    v_words = tuple(invert_word(corrections[i]) + s_word[cuts[i]:cuts[i + 1]]
                    + corrections[i + 1] for i in range(k))
    v_payloads = tuple(evaluate_word(w, ctx.source_gens).payload for w in v_words)
    return Certificate(g, k, tuple(cuts), t_letters, v_payloads, tuple(map(len, v_words)))


def _spelled(path):
    """The S-word a path of prefix tables spells."""
    return tuple(letter for table in path for letter in table.word)


def _assert_matches_reference(ctx, g, path):
    # a path is checked against the word it spells
    cert = factorize(ctx, g, path)
    is_path = bool(path) and isinstance(path[0], PrefixTable)
    expected = reference_factorize(ctx, g, _spelled(path) if is_path else path)
    assert (cert.u_lengths, cert.t_letters, cert.v_word_lengths, cert.v_payloads) == (
        expected.u_lengths, expected.t_letters, expected.v_word_lengths, expected.v_payloads)
    assert cert == expected
    assert cert.digest() == expected.digest()
    return cert


@functools.lru_cache(maxsize=None)
def _d8_ctx():
    return WALK_CASES["D8-D4"][0]()


@st.composite
def padded_d8_words(draw):
    # a random word with cancelling pairs spliced in, up to n + d*N = 20 letters
    letters = st.sampled_from((1, -1, 2, -2))
    word = draw(st.lists(letters, max_size=12))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(word)))
        x = draw(letters)
        word[at:at] = [x, -x]
    return tuple(word)


@settings(max_examples=200, deadline=None)
@given(padded_d8_words())
def test_factorize_matches_reference_on_padded_d8_words(word):
    ctx = _d8_ctx()
    _assert_matches_reference(ctx, evaluate_word(word, _D8), word)


def test_certificate_soundness_sampled(c10_ctx):
    # every certificate that derives with the triangle bound upper-bounds the BFS norm by k
    helper = a_ball(c10_ctx)
    for element, path in c10_ctx.witness_neighborhood():
        cert = factorize(c10_ctx, element, path, near_witness=True)
        assert helper.norm(element) <= cert.k


# -- prefix tables and paths ---------------------------------------------------------


@pytest.mark.parametrize("side,at", [("source", -1), ("image", -1)])
@pytest.mark.parametrize("key,name", [(0, "the witness lift"), (1, "A-letter 1"),
                                      (-15, "A-letter -15")])
def test_table_check_rejects_a_corrupted_entry(monkeypatch, side, at, key, name):
    ctx = Construction(UNIT, cyclic_quotient(UNIT, 10), target_depth=3)
    real, group = ctx._table, {"source": ZZ, "image": ctx.pi.target}[side]
    word = ctx.witness.s_word if key == 0 else ctx.a_letter_s_word(key)

    def corrupted(w):
        table = real(w)
        if tuple(w) != word:
            return table
        entries = list(getattr(table, side))
        entries[at] = group.mul_payload(entries[at], 1)
        return table._replace(**{side: entries})

    monkeypatch.setattr(ctx, "_table", corrupted)
    with pytest.raises(ConstructionError, match=f"prefix table of {name} does not end at its"):
        ctx.verify()


def test_table_check_rejects_a_word_that_misses_its_a_element(monkeypatch):
    ctx = Construction(UNIT, cyclic_quotient(UNIT, 10), target_depth=3)
    real = ctx.a_letter_s_word
    monkeypatch.setattr(ctx, "a_letter_s_word", lambda letter: real(letter) + (1, -1, 1))
    with pytest.raises(ConstructionError, match="prefix table of A-letter 1 does not end at its"):
        ctx.verify()


# Z{2,3} tables are arrays of 64-bit cells, lamplighter tables lists of payloads
READERS = {
    "Z{2,3}-C14": lambda: (_Z23, cyclic_quotient(_Z23, 14)),
    "lamplighter-C6": _lamplighter_quotient,
}


@functools.lru_cache(maxsize=None)
def _reader(name):
    # a construction's path reading needs only its groups and quotient
    ctx = object.__new__(Construction)
    ctx.source_gens, ctx.pi = READERS[name]()
    return ctx


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(READERS)),
       st.lists(st.lists(st.sampled_from((1, -1, 2, -2)), max_size=6), min_size=1, max_size=4),
       st.data())
def test_paths_read_the_prefixes_of_the_word_they_spell(reader, segments, data):
    ctx = _reader(reader)
    path = tuple(map(ctx._table, segments))
    word = _spelled(path)
    assert word == tuple(letter for segment in segments for letter in segment)
    starts, bases = ctx._starts(path)
    assert starts[-1] == len(word)
    assert bases[-1] == (evaluate_word(word, ctx.source_gens).payload,
                         ctx.pi.apply_word(word).payload)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(word)), max_size=8)))
    source, image = ctx._at_cuts(path, starts, bases, cuts)
    assert source == [evaluate_word(word[:c], ctx.source_gens).payload for c in cuts]
    assert image == [ctx.pi.apply_word(word[:c]).payload for c in cuts]


# -- the walk about the witness ------------------------------------------------------


def _cyclic_case(gens, m, target_depth, mode="paper"):
    return lambda: Construction(gens, cyclic_quotient(gens, m), target_depth, mode)


def _word_case(gens, target, images, target_depth):
    return lambda: Construction(
        gens, QuotientMap(gens, target, images), target_depth, "tight"
    )


_Z23 = GeneratingSet([ZZ.element(2), ZZ.element(3)])
_GRID = standard_gens(IntegerGrid(2))
_C12 = GeneratingSet([Cyclic(12).element(1)])
_D8 = standard_gens(Dihedral(8))
WALK_CASES = {
    "Z-C10-paper": (_cyclic_case(UNIT, 10, 3), ">=3"),
    "Z-C10-tight": (_cyclic_case(UNIT, 10, 3, "tight"), ">=3"),
    "Z-C14-paper": (_cyclic_case(UNIT, 14, 4), ">=4"),
    "Z-C14-tight": (_cyclic_case(UNIT, 14, 4, "tight"), ">=4"),
    "Z{2,3}-C14": (_cyclic_case(_Z23, 14, 2, "tight"), ">=2"),
    "Z2-C10": (_word_case(_GRID, Cyclic(10), [Cyclic(10).element(1)] * 2, 2), ">=2"),
    "C12-C6": (_word_case(_C12, Cyclic(6), [Cyclic(6).element(1)], 2), ">=2"),
    "D8-D4": (_word_case(_D8, Dihedral(4), [Dihedral(4).element((1, 0)),
                                            Dihedral(4).element((0, 1))], 2), ">=2"),
    # depth exactly d+1: the walk meets its first escape in its last layer
    "Z-C7-D2": (_cyclic_case(UNIT, 7, 2), "2"),
}


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_walk_depth_matches_depth_search(case):
    # the certificates prove depth >= d+1; a search in the A-ball pins the depth
    make, rendered = WALK_CASES[case]
    ctx = make()
    assert ctx.verify().passed
    helper = a_ball(ctx)
    assert not depth(helper, ctx.witness.element, cap=ctx.params.d).is_finite
    assert depth(helper, ctx.witness.element, cap=ctx.params.d + 1).render() == rendered


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_walk_is_the_bfs_about_the_witness(case):
    # reference: a payload BFS about g_n, d layers deep
    ctx = WALK_CASES[case][0]()
    g_n = ctx.witness.element.payload
    parent = {g_n: 0}
    layers = bfs_layers(ctx.source_gens.group.mul_payload, ctx.genset.symmetrized_letters(),
                        g_n, parent)
    for _ in itertools.islice(layers, ctx.params.d):
        pass
    neighbourhood = ctx.witness_neighborhood()
    assert [element.payload for element, _ in neighbourhood] == list(parent)
    mul = ctx.source_gens.group.mul_payload
    for (element, path), letter in zip(neighbourhood, parent.values()):
        assert path[-1] is ctx._tables[letter]
        assert functools.reduce(mul, (table.source[-1] for table in path)) == element.payload


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_norm_column_is_the_bfs_norm(case):
    ctx = WALK_CASES[case][0]()
    report = ctx.verify()
    helper = a_ball(ctx)
    for (element, _), row in zip(ctx.witness_neighborhood(), report.rows):
        assert row["element"] == str(element)
        assert row["norm_A"] == row["certificate_k"] == helper.norm(element)


def _ball_calls(monkeypatch, name):
    """Record the (gens, radius) of every call of ``deadend.construction.<name>``."""
    calls = []
    real = getattr(deadend.construction, name)
    monkeypatch.setattr(deadend.construction, name, lambda group, gens, radius, *rest:
                        calls.append((gens, radius)) or real(group, gens, radius, *rest))
    return calls


def test_verify_on_an_exact_source_builds_no_a_ball(monkeypatch):
    # no A-ball of radius n: the one ball over A is B_A(d), the walk's
    cached, walked = _ball_calls(monkeypatch, "ball_cached"), _ball_calls(monkeypatch, "ball")
    ctx = Construction(_GRID, QuotientMap(_GRID, Cyclic(10), [Cyclic(10).element(1)] * 2),
                       target_depth=2, bound_mode="tight")
    assert ctx.verify().passed
    assert ctx.certify(ctx.witness_neighborhood()[-1][0]).k <= ctx.params.n
    assert [gens for gens, _ in cached] == [_GRID]  # the S-ball only
    assert len(walked) == 1 and walked[0][0] is ctx.genset and walked[0][1] == ctx.params.d


def test_construction_rejects_a_library_quotient_that_is_not_a_homomorphism():
    # 21 -> 2, but 21 = 21 * 1 -> 1 in C_10: only words of 21 letters or more disagree
    gens = GeneratingSet([ZZ.element(1), ZZ.element(21)])
    pi = QuotientMap(gens, Cyclic(10), [Cyclic(10).element(1), Cyclic(10).element(2)])
    with pytest.raises(HomomorphismError, match="map to different images"):
        Construction(gens, pi, target_depth=2, bound_mode="tight")


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_factorize_matches_reference_on_every_neighbour(case):
    ctx = WALK_CASES[case][0]()
    for element, path in ctx.witness_neighborhood():
        _assert_matches_reference(ctx, element, path)


def test_certify_outside_the_s_ball_walks_once(monkeypatch):
    ctx = Construction(UNIT, cyclic_quotient(UNIT, 10), target_depth=3)
    walks = _ball_calls(monkeypatch, "ball")
    g = ZZ.element(147)  # 5 + 71 + 71: two A-steps from the witness, beyond N = 78
    assert ctx.s_ball.norm(g) is None
    first = ctx.certify(g)
    second = ctx.certify(g)
    assert len(walks) == 1 and walks[0][0] is ctx.genset and walks[0][1] == ctx.params.d
    assert first == second
    assert not first.degenerate and ctx.params.n - ctx.params.d <= first.k <= ctx.params.n
    s_word_length = sum(len(table.word) for table in ctx.path_for(g))
    assert s_word_length <= ctx.params.n + ctx.params.d * ctx.params.N


# -- full verification -----------------------------------------------------------------


def test_verify_construction_c10(c10_ctx):
    report = c10_ctx.verify()
    assert report.passed
    assert report.a_size == 15
    assert report.neighborhood_size == 117
    assert report.params.N == 78
    for row in report.rows:
        assert row["norm_A"] <= 5
        assert row["certificate_ok"]
        assert 3 <= row["certificate_k"] <= 5
    assert "witness_depth_search" not in report.to_json()


def test_verify_construction_c10_tight():
    ctx = Construction(UNIT, cyclic_quotient(UNIT, 10), target_depth=3, bound_mode="tight")
    assert ctx.params.N == 38
    assert len(ctx.genset) == 7
    report = ctx.verify()
    assert report.passed


def test_exact_depth_of_witness(c10_ctx):
    # pinned from the brute-force search; the certified bound is only >= 3
    dv = depth(a_ball(c10_ctx), c10_ctx.witness.element, cap=20)
    assert dv.is_finite and dv.value == 5


def test_verify_construction_c22():
    ctx = Construction(UNIT, cyclic_quotient(UNIT, 22), target_depth=4)
    assert ctx.params.n == 11
    assert ctx.params.N == 66
    report = ctx.verify()
    assert report.passed
    assert "witness_depth_search" not in report.to_json()
    dv = depth(a_ball(ctx), ctx.witness.element, cap=30)
    assert dv == type(dv).finite(9)


def test_verify_derives_each_certificate_once(c10_ctx, monkeypatch):
    calls = {"_starts": [], "_at_cuts": []}
    for name, reads in calls.items():
        real = getattr(c10_ctx, name)
        monkeypatch.setattr(c10_ctx, name,
                            lambda path, *rest, real=real, reads=reads:
                            reads.append(path) or real(path, *rest))
    report = c10_ctx.verify()
    assert len(calls["_at_cuts"]) == report.neighborhood_size == 117
    assert calls["_starts"] == calls["_at_cuts"]


@pytest.mark.parametrize("target_depth", [1, 0])
def test_build_rejects_a_target_depth_below_2_before_the_diameter(target_depth):
    pi = cyclic_quotient(UNIT, 10)
    with pytest.raises(ValueError, match=f"^target depth must be >= 2, got {target_depth}$"):
        Construction(UNIT, pi, target_depth)


def test_report_json_round_trip(c10_ctx):
    doc = c10_ctx.verify().to_json()
    assert doc["schema"] == "construction-report.v1"
    assert doc["passed"] is True
    assert doc["params"]["n"] == 5
    assert doc["params"]["N"] == 78
    assert doc["generating_set_size"] == 15
    assert doc["depth_lower_bound"] == 3
    assert len(doc["verification_table"]) == 117


def test_construction_with_cache(tmp_path):
    ctx1 = Construction(
        UNIT, cyclic_quotient(UNIT, 10), target_depth=3, cache_dir=tmp_path
    )
    assert ctx1.verify().passed
    files = sorted(p.name for p in tmp_path.glob("ball-*.bin"))
    assert len(files) == 1  # the S-ball: the walk's radius-d ball over A is not cached
    ctx2 = Construction(
        UNIT, cyclic_quotient(UNIT, 10), target_depth=3, cache_dir=tmp_path
    )
    assert [e.payload for e in ctx2.genset.entries] == [
        e.payload for e in ctx1.genset.entries
    ]
    assert ctx2.verify().passed
    assert ctx2.s_ball.dist == ctx1.s_ball.dist
    assert sorted(p.name for p in tmp_path.glob("ball-*.bin")) == files


def test_budget_propagates():
    with pytest.raises(Exception) as info:
        Construction(
            UNIT,
            cyclic_quotient(UNIT, 10),
            target_depth=3,
            budget=Budget(max_elements=20),
        )
    assert "budget" in str(info.value).lower()


def test_find_witness_c22_large_slack():
    # same quotient, slack pushed to d=5 (n=11 > 10 still holds)
    assert required_N(11, 5, "paper") == 369
    ctx = Construction(UNIT, cyclic_quotient(UNIT, 22), target_depth=6)
    assert ctx.params.N == 369
    assert len(ctx.genset) == 33
    assert ctx.witness.element.payload == 11
    assert a_ball(ctx).norm(ctx.witness.element) == 11


def test_finite_source_construction():
    # C_12 -> C_6: the witness lands on an extremal element of the finite
    # source, so its true depth is infinite (>= d+1 holds a fortiori)
    from deadend.quotient import QuotientMap

    c12 = Cyclic(12)
    s12 = GeneratingSet([c12.element(1)])
    c6 = Cyclic(6)
    pi = QuotientMap(s12, c6, [c6.element(1)])
    ctx = Construction(s12, pi, target_depth=2, bound_mode="tight")
    assert [e.payload for e in ctx.genset.entries] == [1, 7]
    assert ctx.witness.element.payload == 3
    helper = a_ball(ctx)
    assert helper.norm(ctx.witness.element) == 3
    assert ctx.verify().passed
    assert depth(helper, ctx.witness.element, cap=20).is_infinite


def test_grid_source_with_identity_image():
    # rank-2 grid -> C_6 killing the second coordinate: one generator
    # image is the target identity, so the kernel direction enters A
    from deadend.groups import IntegerGrid
    from deadend.quotient import QuotientMap

    grid = IntegerGrid(2)
    gens = GeneratingSet([grid.element((1, 0)), grid.element((0, 1))], ["x", "y"])
    c6 = Cyclic(6)
    pi = QuotientMap(gens, c6, [c6.element(1), c6.element(0)])
    with pytest.warns(UserWarning, match="identity"):
        ctx = Construction(gens, pi, target_depth=2, bound_mode="tight")
    assert ctx.params.n == 3
    assert ctx.witness.element.payload == (3, 0)
    assert a_ball(ctx).norm(ctx.witness.element) == 3
    report = ctx.verify()
    assert report.passed
    assert report.neighborhood_size == 307


def test_nonabelian_target_construction():
    # D_8 -> D_4 (rotation reduced mod 4): the target geodesic corrections
    # run through genuinely noncommutative algebra
    from deadend.groups import Dihedral, standard_gens
    from deadend.quotient import QuotientMap, check_homomorphism

    d8 = Dihedral(8)
    d4 = Dihedral(4)
    gens = standard_gens(d8)
    pi = QuotientMap(gens, d4, [d4.element((1, 0)), d4.element((0, 1))])
    check_homomorphism(pi)
    ctx = Construction(gens, pi, target_depth=2, bound_mode="tight")
    assert ctx.params.n == 3
    assert [e.payload for e in ctx.genset.entries] == [
        (1, 0), (0, 1), (5, 0), (4, 1),
    ]
    assert ctx.witness.element.payload == (2, 1)
    helper = a_ball(ctx)
    assert helper.norm(ctx.witness.element) == 3
    report = ctx.verify()
    assert report.passed
    assert report.neighborhood_size == 7
    assert depth(helper, ctx.witness.element, cap=16).is_infinite


def test_word_mode_quotient_runs_the_same_pipeline():
    # the same mod-10 map, declared through QuotientMap instead of
    # cyclic_quotient, gives the same pipeline
    from deadend.quotient import QuotientMap

    target = Cyclic(10)
    pi = QuotientMap(UNIT, target, [target.element(1)])
    ctx = Construction(UNIT, pi, target_depth=3, bound_mode="tight")
    assert [e.payload for e in ctx.genset.entries] == [1, -9, 11, -19, 21, -29, 31]
    assert ctx.witness.element.payload == 5
    assert ctx.verify().passed


def test_identity_image_excluded_with_warning():
    # lamplighter -> C_2 by lamp parity: the shift maps to the identity,
    # so the group identity lies in the filter and is dropped with a warning
    from deadend.groups import Lamplighter, standard_gens
    from deadend.quotient import QuotientMap

    lamp = Lamplighter()
    gens = standard_gens(lamp)
    target = Cyclic(2)
    pi = QuotientMap(gens, target, [target.element(0), target.element(1)])
    with pytest.warns(UserWarning, match="identity"):
        genset, s_ball = constructed_genset(gens, pi, N=2)
    payloads = [e.payload for e in genset.entries]
    assert lamp.identity_payload() not in payloads
    # parity filters nothing else: all 9 non-identity ball elements
    # qualify, stored as 5 entries after inverse-pair dedup
    assert len(payloads) == 5
    assert genset.symmetrized_payloads() >= {p for p in payloads}
    for e in genset.entries:
        assert pi.apply_word(s_ball.geodesic(e)).payload in (0, 1)
