"""Deep generating sets from finite quotients, with verifiable certificates.

Pipeline: given source generators S, a quotient pi onto a finite group of
diameter n, a depth slack d with n > 2d, and a ball radius N meeting the
bound, the generating set A collects every element of the radius-N S-ball
whose image is a generator image.  The maximal-length quotient element
lifts to a witness g_n with norm_A(g_n) = n, and every element within
A-distance d of g_n stays inside the closed radius-n ball, which makes
g_n a dead end of depth at least d+1.  Each membership claim is proved by
a factorization certificate into k = |pi(g)|_T <= n factors from A or
their inverses, with no ball over A; where the homomorphism check is only
a probe (the lamplighter), an A-ball BFS cross-checks every norm as well.
The target side reads the quotient map's one ball of its target: the
diameter, the witness, every target geodesic, and the lift of each target
element, folded down its BFS tree through the section of pi.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from pathlib import Path
from typing import Any, NamedTuple, Optional, Sequence, Union

from .cayley import Ball, Budget, DEFAULT_BUDGET, ball_cached, bfs_layers
from .depth import DepthValue, depth
from .groups import (
    Codec,
    GeneratingSet,
    GroupElement,
    GroupError,
    Word,
    WordFold,
    evaluate_word,
    invert_word,
)
from .quotient import DiameterReport, QuotientMap, check_homomorphism, held_to
from .serialize import dumps, payload_to_json

__all__ = [
    "ConstructionError",
    "CertificateError",
    "VerificationError",
    "ConstructionParams",
    "ConstructedGenSet",
    "DeadEndWitness",
    "Certificate",
    "ConstructionReport",
    "Construction",
    "required_n",
    "required_N",
    "bound_inequality_holds",
    "constructed_genset",
    "find_witness",
    "factorize",
    "validate_certificate",
    "verify_construction",
]

BOUND_MODES = ("paper", "tight")


class ConstructionError(GroupError):
    """A construction step failed or was given inconsistent inputs."""


class CertificateError(ConstructionError):
    """A factorization certificate failed validation."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message if index is None else f"factor {index}: {message}")
        self.index = index


class VerificationError(ConstructionError):
    """The exhaustive construction check found a counterexample (a bug)."""

    def __init__(self, message: str, failures: Sequence[str] = ()):
        super().__init__(message)
        self.failures = tuple(failures)


def required_n(d: int) -> int:
    """Least quotient diameter admitting depth slack d (the bound n > 2d)."""
    if d < 1:
        raise ValueError(f"depth slack must be >= 1, got {d}")
    return 2 * d + 1


def _ceil_div(p: int, q: int) -> int:
    return -(-p // q)


def required_N(n: int, d: int, mode: str = "paper") -> int:
    """Minimal ball radius N for parameters (n, d) under the chosen bound.

    "paper" evaluates the headline bound (2n^2+2nd+2n-d)/(n-2d); "tight"
    clears denominators in (n+dN)/(n-d)+2n+1 <= N directly, which yields
    the smaller numerator (2n^2-2nd+2n-d).  Both are sufficient, at every
    N >= required_N too, as the inequality is monotone in N once n > 2d.
    """
    if mode not in BOUND_MODES:
        raise ValueError(f"bound mode must be one of {BOUND_MODES}, got {mode!r}")
    if d < 1 or n <= 2 * d:
        raise ValueError(f"need n > 2d >= 2, got n={n}, d={d}")
    if mode == "paper":
        numerator = 2 * n * n + 2 * n * d + 2 * n - d
    else:
        numerator = 2 * n * n - 2 * n * d + 2 * n - d
    return _ceil_div(numerator, n - 2 * d)


def bound_inequality_holds(n: int, d: int, N: int) -> bool:
    """Exact check of (n + d*N)/(n - d) + 2n + 1 <= N."""
    if d < 1 or n <= d:
        raise ValueError(f"need n > d >= 1, got n={n}, d={d}")
    return Fraction(n + d * N, n - d) + 2 * n + 1 <= N


@dataclass(frozen=True)
class ConstructionParams:
    """Validated parameter bundle: target depth D, slack d=D-1, n > 2d, N."""

    target_depth: int
    d: int
    n: int
    N: int
    bound_mode: str = "paper"

    def __post_init__(self):
        if self.target_depth < 2:
            raise ValueError(f"target depth must be >= 2, got {self.target_depth}")
        if self.d != self.target_depth - 1:
            raise ValueError(f"d must equal target_depth - 1, got d={self.d}")
        if self.n <= 2 * self.d:
            raise ValueError(f"need n > 2d (n={self.n}, d={self.d})")
        minimum = required_N(self.n, self.d, self.bound_mode)
        if self.N < minimum:
            raise ValueError(
                f"N={self.N} below required_N={minimum} for mode {self.bound_mode!r}"
            )

    @classmethod
    def derive(cls, target_depth: int, n: int, bound_mode: str = "paper") -> "ConstructionParams":
        d = target_depth - 1
        return cls(target_depth, d, n, required_N(n, d, bound_mode), bound_mode)

    def to_json(self) -> dict:
        return {
            "target_depth": self.target_depth,
            "d": self.d,
            "n": self.n,
            "N": self.N,
            "bound_mode": self.bound_mode,
        }


class ConstructedGenSet:
    """The generating set A with its provenance (S, quotient, N, S-ball)."""

    def __init__(
        self,
        genset: GeneratingSet,
        source_gens: GeneratingSet,
        pi: QuotientMap,
        N: int,
        s_ball: Ball,
    ):
        self.genset = genset
        self.source_gens = source_gens
        self.pi = pi
        self.N = N
        self.s_ball = s_ball
        self.symmetrized = genset.symmetrized_payloads()


def constructed_genset(
    source_gens: GeneratingSet,
    pi: QuotientMap,
    N: int,
    budget: Budget = DEFAULT_BUDGET,
    cache_dir: Optional[Union[str, Path]] = None,
) -> ConstructedGenSet:
    """Intersect the radius-N S-ball with the generator-image preimage.

    Entries come out in deterministic BFS order.  The identity is dropped
    with a warning if some generator image is the target identity; when
    both an element and its inverse qualify, only the BFS-first one is
    stored (metric code symmetrizes anyway).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    group = source_gens.group
    s_ball = ball_cached(group, source_gens, N, cache_dir, budget)
    tset = pi.image_set()
    identity = group.identity_payload()
    mul_t = pi.target.mul_payload
    images = s_ball.along_parents(
        pi.target.identity_payload(), lambda acc, letter: mul_t(acc, pi.letters[letter])
    )
    entries: list[GroupElement] = []
    kept: set = set()
    for payload, image in images.items():
        if image not in tset:
            continue
        if payload == identity:
            warnings.warn(
                "identity lies in the preimage of the generator images; dropped from A"
            )
            continue
        if group.inv_payload(payload) in kept:
            continue
        kept.add(payload)
        entries.append(GroupElement(group, payload))
    built = ConstructedGenSet(GeneratingSet(entries), source_gens, pi, N, s_ball)
    for s in source_gens.entries:
        if s.payload not in built.symmetrized:
            raise ConstructionError(f"source generator {s} missing from constructed set")
    return built


def _lift(section: Sequence[int], t_word: Word) -> Word:
    """S-word spelling a target word through the section, letter by letter."""
    return tuple((section[abs(letter) - 1] + 1) * (1 if letter > 0 else -1) for letter in t_word)


@dataclass(frozen=True)
class DeadEndWitness:
    """Lifted maximal-length element g_n with its certified depth bound."""

    element: GroupElement
    n: int
    depth_lower_bound: Optional[int]
    s_word: Word

    def to_json(self) -> dict:
        return {
            "element": payload_to_json(self.element.group, self.element.payload),
            "element_str": str(self.element),
            "n": self.n,
            "depth_lower_bound": self.depth_lower_bound,
            "s_word_length": len(self.s_word),
        }


def find_witness(
    built: ConstructedGenSet,
    a_ball: Optional[Ball] = None,
    claimed_depth: Optional[int] = None,
) -> DeadEndWitness:
    """Lift the diameter witness of the quotient's target ball through the
    canonical section.  Its norm under A is the diameter n: at most n, as S
    lies in A± and the lift has n letters; at least n, as pi is a
    homomorphism sending A± into the image generators and the identity.
    Where that was only probed, pass a_ball (radius >= n) and the norm is
    looked up in it."""
    pi = built.pi
    report = DiameterReport.of_ball(pi.ball)
    n = report.diameter
    s_word = _lift(pi.section, pi.ball.geodesic_payload(report.witness.payload))
    g_n = evaluate_word(s_word, built.source_gens)
    if len(s_word) != n or pi.apply_word(s_word) != report.witness:
        raise ConstructionError("lifted witness is not an n-letter lift of the diameter witness")
    found = n if a_ball is None else a_ball.norm(g_n)
    if found != n:
        raise ConstructionError(
            f"witness norm under A is {found}, expected the diameter {n}; "
            "this indicates a construction bug"
        )
    return DeadEndWitness(g_n, n, claimed_depth, s_word)


@dataclass(frozen=True)
class Certificate:
    """Factorization g = v_1 ... v_k with every factor in A or its inverses.

    A validating certificate witnesses norm_A(g) <= k without BFS.  Of each
    factor word phi(c_{i-1})^-1 u_i phi(c_i), where phi(c) is the S-word
    the target geodesic of c spells through the section of pi, it keeps
    the value and length, never the word.  The degenerate flag marks
    arguments mapping to the target identity, where no factorization into
    generator-image preimages exists.
    """

    target: GroupElement
    k: int
    u_words: tuple[Word, ...]
    t_letters: Word
    v_payloads: tuple[Any, ...]
    v_word_lengths: tuple[int, ...]
    degenerate: bool = False

    def to_json(self) -> dict:
        group = self.target.group
        return {
            "schema": "certificate.v1",
            "target": payload_to_json(group, self.target.payload),
            "k": self.k,
            "degenerate": self.degenerate,
            "u_lengths": [len(w) for w in self.u_words],
            "t_letters": list(self.t_letters),
            "v_factors": [payload_to_json(group, p) for p in self.v_payloads],
            "v_word_lengths": list(self.v_word_lengths),
        }

    def digest(self) -> str:
        return hashlib.sha256(dumps(self.to_json()).encode("utf-8")).hexdigest()[:16]


class _Lift(NamedTuple):
    """The lift of one target element: its length (the target norm), the
    source element its target geodesic spells through the section, and
    that element's inverse."""

    length: int
    payload: Any
    inverse: Any


class Construction:
    """Full pipeline state: quotient, parameters, A, witness, lifts."""

    def __init__(
        self,
        source_gens: GeneratingSet,
        pi: QuotientMap,
        params: ConstructionParams,
        budget: Budget = DEFAULT_BUDGET,
        cache_dir: Optional[Union[str, Path]] = None,
    ):
        report = DiameterReport.of_ball(pi.ball)
        if report.diameter != params.n:
            raise ConstructionError(
                f"params.n={params.n} does not match quotient diameter {report.diameter}"
            )
        self.source_gens = source_gens
        self.pi = pi
        self.params = params
        self.report = report
        self.budget = budget
        self.cache_dir = cache_dir
        self.homomorphism_exact = check_homomorphism(pi)  # else the A-ball cross-checks
        self.built = constructed_genset(source_gens, pi, params.N, budget, cache_dir)
        a_ball = None if self.homomorphism_exact else self.a_ball
        self.witness = find_witness(self.built, a_ball, params.d + 1)

    @classmethod
    def build(
        cls,
        source_gens: GeneratingSet,
        pi: QuotientMap,
        target_depth: int,
        bound_mode: str = "paper",
        budget: Budget = DEFAULT_BUDGET,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> "Construction":
        """Read the quotient diameter off the map's target ball, held to the
        budget, and derive parameters from it."""
        n = DiameterReport.of_ball(held_to(pi.ball, budget)).diameter
        params = ConstructionParams.derive(target_depth, n, bound_mode)
        return cls(source_gens, pi, params, budget, cache_dir)

    @cached_property
    def a_ball(self) -> Ball:
        """The A-ball of radius n, built (or loaded from the cache) on first use."""
        genset, n = self.built.genset, self.params.n
        return ball_cached(self.source_gens.group, genset, n, self.cache_dir, self.budget)

    # -- S-words -----------------------------------------------------------

    def a_letter_s_word(self, letter: int) -> Word:
        """S-geodesic of the A-generator named by a signed letter."""
        payload = self.built.genset.entries[abs(letter) - 1].payload
        word = self.built.s_ball.geodesic_payload(payload)
        return word if letter > 0 else invert_word(word)

    @cached_property
    def _walk(self) -> tuple[Codec, dict]:
        """One BFS about the witness, d layers deep, on codes of its own: an
        S-word of length at most n + d*N for every element within A-distance d
        (the witness lift, then the S-geodesic of each A-step), keyed by code,
        with the codec.  As norm_A(g_n) = n, the walk stays within n + d
        A-steps of the identity, which the codes cover."""
        p, letters = self.params, self.built.genset.letters
        codec = self.source_gens.group.integer_code(list(letters.values()), p.n + p.d)
        step, back = codec.step, dict(zip(letters, codec.codes))
        a_words = {letter: self.a_letter_s_word(letter) for letter in back}
        start = codec.encode(self.witness.element.payload)
        words: dict = {start: self.witness.s_word}
        parent = {start: 0}
        layers = bfs_layers(step, tuple(back.items()), start, parent, self.budget)
        for _, layer in islice(layers, p.d):
            for y in layer:
                letter = parent[y]
                words[y] = words[step(y, back[-letter])] + a_words[letter]
        return codec, words

    def witness_neighborhood(self) -> list[tuple[GroupElement, Word]]:
        """Every g within A-distance d of the witness, with the S-word the walk gives it."""
        (codec, words), group = self._walk, self.source_gens.group
        return [(GroupElement(group, codec.decode(y)), word) for y, word in words.items()]

    def s_word_for(self, g: GroupElement) -> Word:
        """Some S-word of length <= n + d*N for g; ValueError if none is derivable."""
        if g == self.witness.element:
            return self.witness.s_word
        if self.built.s_ball.norm(g) is not None:
            return self.built.s_ball.geodesic(g)
        codec, words = self._walk
        word = words.get(codec.encode(g.payload))
        if word is None:
            raise ValueError(f"no S-word available for {g}: outside the S-ball and the "
                             "witness neighborhood")
        return word

    # -- certificate folds -------------------------------------------------

    @cached_property
    def _folds(self) -> tuple[WordFold, WordFold]:
        """Source and target folds of S-words: integer codes in the source
        where they cover the longest word a certificate folds (an S-word of
        n + d*N letters), the target's letter tables."""
        p = self.params
        return (
            WordFold(self.source_gens.group, self.source_gens.letters, p.n + p.d * p.N),
            WordFold(self.pi.target, self.pi.letters, elements=self.pi.ball.payloads()),
        )

    @cached_property
    def _lifts(self) -> dict:
        """Target payload -> its ``_Lift``, folded down the target ball's BFS
        tree: each step appends the section letter of its parent letter, which
        pi maps onto that letter.  So, by induction down the tree, every lift
        maps onto its element, and its length is the target norm, at most n
        (a factor word has at most |u| + 2n letters)."""
        group, pi = self.source_gens.group, self.pi
        mul, inv = group.mul_payload, group.inv_payload
        t_letters = tuple(pi.image_gens.letters)
        s_steps = map(self.source_gens.letters.__getitem__, _lift(pi.section, t_letters))
        steps = dict(zip(t_letters, s_steps))

        def step(parent: _Lift, t_letter: int) -> _Lift:
            lift = mul(parent.payload, steps[t_letter])
            return _Lift(parent.length + 1, lift, inv(lift))

        identity = group.identity_payload()
        return self.pi.ball.along_parents(_Lift(0, identity, identity), step)

    def certify(self, g: GroupElement, s_word: Optional[Sequence[int]] = None) -> Certificate:
        if s_word is None:
            s_word = self.s_word_for(g)
        cert = factorize(self, g, s_word)
        if not cert.degenerate:
            validate_certificate(self, cert)
        return cert

    def verify(self) -> "ConstructionReport":
        return verify_construction(self)


def factorize(ctx: Construction, g: GroupElement, s_word: Sequence[int]) -> Certificate:
    """Split an S-word for g along a target geodesic into certified factors.

    The word splits into k = norm(pi(g)) near-equal pieces u_i; every
    piece is corrected by lifts of quotient discrepancies so the factors
    v_i multiply to g while each maps onto one geodesic letter.  With
    prefix products S_i (source) and P_i (target) of one fold of the word
    in each group, Q_i the geodesic prefixes and c_i = P_i^-1 Q_i, the
    factor v_i spells phi(c_{i-1})^-1 u_i phi(c_i), unbuilt: its value is
    lift(c_{i-1})^-1 S_a^-1 S_b lift(c_i) for the cuts a, b of u_i.
    """
    params = ctx.params
    s_word = tuple(s_word)
    fold_s, fold_t = ctx._folds
    L = len(s_word)
    source = fold_s.prefixes(s_word)
    group = ctx.source_gens.group
    if GroupElement(group, source(L)) != g:
        raise CertificateError("provided S-word does not evaluate to the element")
    limit = params.n + params.d * params.N
    if L > limit:
        raise CertificateError(f"S-word length {L} exceeds n + d*N = {limit}")
    image = fold_t.prefixes(s_word)
    pi_g = image(L)
    k = ctx.pi.ball.norm_payload(pi_g)
    if k is None:
        raise CertificateError("image norm unavailable; target ball incomplete")
    if k == 0:
        return Certificate(g, 0, (), (), (), (), degenerate=True)
    t_letters = ctx.pi.ball.geodesic_payload(pi_g)
    base, extra = divmod(L, k)
    # k near-equal pieces, the extra longer ones first
    cuts = [i * base + min(i, extra) for i in range(k + 1)]
    lifts = [ctx._lifts[c] for c in _discrepancies(ctx, map(image, cuts), t_letters)]
    mul, inv = group.mul_payload, group.inv_payload
    u_words, v_lengths, v_payloads = [], [], []
    for (a, b), before, after in zip(zip(cuts, cuts[1:]), lifts, lifts[1:]):
        u_words.append(s_word[a:b])
        v_lengths.append(before.length + b - a + after.length)
        v_payloads.append(mul(mul(before.inverse, mul(inv(source(a)), source(b))), after.payload))
    return Certificate(g, k, tuple(u_words), t_letters, tuple(v_payloads), tuple(v_lengths))


def _discrepancies(ctx: Construction, prefix_images, t_letters: Word) -> list:
    """c_i = P_i^-1 Q_i for i = 0..k: prefix images against geodesic prefixes Q_i."""
    target = ctx.pi.target
    mul_t, inv_t = target.mul_payload, target.inv_payload
    steps = map(ctx.pi.image_gens.letters.__getitem__, t_letters)
    geodesic = accumulate(steps, mul_t, initial=target.identity_payload())
    return [mul_t(inv_t(p), q) for p, q in zip(prefix_images, geodesic)]


def validate_certificate(
    ctx: Construction,
    cert: Certificate,
    near_witness: bool = False,
) -> None:
    """Re-check every claim a certificate makes; raise CertificateError if any fails.

    With near_witness=True the triangle-inequality lower bound
    k >= n - d is enforced as well.  Each piece is folded once in each
    group.  The factor v_i spells phi(c_{i-1})^-1 u_i phi(c_i), with c_i
    recomputed from the pieces and the geodesic: its value and image come
    from the lifts and those folds, and its claimed length must
    be |phi(c_{i-1})| + |u_i| + |phi(c_i)|, at most |u_i| + 2n.  Its image
    is the geodesic letter t_i with no check: c_i = P_i^-1 Q_i, where
    P_{i+1} = P_i pi(u_i) and Q_{i+1} = Q_i t_i, so c_i^-1 pi(u_i) c_{i+1}
    = t_i in any group.
    """
    params = ctx.params
    if cert.degenerate:
        raise CertificateError("degenerate certificate (image is the identity) cannot validate")
    group, target = ctx.source_gens.group, ctx.pi.target
    mul, mul_t = group.mul_payload, target.mul_payload
    fold_s, fold_t = ctx._folds
    lifts = ctx._lifts
    k = cert.k
    if k != len(cert.u_words) or k != len(cert.v_word_lengths) or k != len(cert.t_letters):
        raise CertificateError("piece counts disagree with k")
    # Piece split: contiguous, near-equal, longer pieces first.
    if not all(cert.u_words):
        raise CertificateError("empty piece")
    lengths = [len(w) for w in cert.u_words]
    if max(lengths) - min(lengths) > 1 or sorted(lengths, reverse=True) != lengths:
        raise CertificateError("piece lengths are not an as-equal-as-possible split")
    if not Fraction(lengths[0]) < Fraction(params.n + params.d * params.N, k) + 1:
        raise CertificateError(f"|u| = {lengths[0]} not < (n+dN)/k + 1", index=0)
    # Image norm consistency: pi(g), folded piece after piece.
    piece_images = [fold_t(w) for w in cert.u_words]
    prefix_images = list(accumulate(piece_images, mul_t, initial=target.identity_payload()))
    pi_g = prefix_images[-1]
    if ctx.pi.ball.norm_payload(pi_g) != k:
        raise CertificateError("k is not the target norm of the image")
    # Geodesic letters must spell the image.
    if evaluate_word(cert.t_letters, ctx.pi.image_gens).payload != pi_g:
        raise CertificateError("target geodesic does not spell the image")
    c = _discrepancies(ctx, prefix_images, cert.t_letters)
    # Factor-level checks.
    product = group.identity_payload()
    factors = zip(cert.u_words, cert.v_payloads, cert.v_word_lengths)
    for i, (u, v_payload, v_length) in enumerate(factors):
        before, after = lifts[c[i]], lifts[c[i + 1]]
        if mul(mul(before.inverse, fold_s(u)), after.payload) != v_payload:
            raise CertificateError("factor word does not evaluate to the factor", index=i)
        if v_length != before.length + len(u) + after.length:
            raise CertificateError("factor word length disagrees with its lifts and piece", index=i)
        if v_payload not in ctx.built.symmetrized:  # A lies in the S-ball of radius N
            raise CertificateError("factor is not in A or its inverses", index=i)
        product = mul(product, v_payload)
    if product != cert.target.payload:
        raise CertificateError("factors do not multiply to the element")
    if k > params.n:
        raise CertificateError(f"k = {k} exceeds the diameter n = {params.n}")
    if near_witness and k < params.n - params.d:
        raise CertificateError(f"k = {k} below the triangle bound n - d = {params.n - params.d}")


@dataclass
class ConstructionReport:
    """Outcome of the exhaustive witness-neighborhood verification."""

    params: ConstructionParams
    quotient_order: int
    a_size: int
    a_entries: tuple[str, ...]
    witness: DeadEndWitness
    neighborhood_size: int
    rows: tuple[dict, ...]
    depth_value: Optional[DepthValue]  # None: no depth search ran
    passed: bool

    def to_json(self) -> dict:
        return {
            "schema": "construction-report.v1",
            "params": self.params.to_json(),
            "quotient_order": self.quotient_order,
            "generating_set_size": self.a_size,
            "generating_set": list(self.a_entries),
            "witness": self.witness.to_json(),
            "neighborhood_size": self.neighborhood_size,
            "verification_table": list(self.rows),
            "witness_depth_search": self.depth_value.render() if self.depth_value else "not run",
            "depth_lower_bound": self.params.d + 1,
            "passed": self.passed,
        }


def verify_construction(ctx: Construction) -> ConstructionReport:
    """Exhaustively confirm that everything within A-distance d of the
    witness stays inside the closed radius-n ball, certifying depth >= d+1.

    Each neighbour's certificate must validate with k <= n; k is then its
    norm under A (``norm_A``), bounded above by the factors and below by
    |pi(g)|_T = k.  Where the homomorphism check was only a probe, the
    A-ball BFS must agree on each norm and a depth search of d+1 layers
    must find no escape within d; elsewhere that search is "not run".  Any
    failure aborts loudly; a false claim here would be a bug.
    """
    params = ctx.params
    cross_check = not ctx.homomorphism_exact
    failures: list[str] = []
    rows: list[dict] = []
    neighborhood = ctx.witness_neighborhood()
    for element, s_word in neighborhood:
        label = str(element)
        cert_k = cert_digest = None
        try:
            cert = factorize(ctx, element, s_word)
            validate_certificate(ctx, cert, near_witness=True)
            cert_k, cert_digest = cert.k, cert.digest()
        except CertificateError as exc:
            failures.append(f"{label}: certificate failed: {exc}")
        if cross_check and ctx.a_ball.norm(element) != cert_k:
            failures.append(f"{label}: BFS norm {ctx.a_ball.norm(element)} is not k = {cert_k}")
        rows.append(
            {
                "element": label,
                "norm_A": cert_k,
                "certificate_k": cert_k,
                "certificate_ok": cert_k is not None,
                "certificate_digest": cert_digest,
            }
        )
    dv = depth(ctx.a_ball, ctx.witness.element, cap=params.d + 1) if cross_check else None
    if dv is not None and dv.is_finite and dv.value <= params.d:
        failures.append(
            f"depth search found an escape at distance {dv.value} <= d = {params.d}"
        )
    if failures:
        raise VerificationError(
            f"construction verification failed for {len(failures)} case(s)", failures
        )
    return ConstructionReport(
        params=params,
        quotient_order=ctx.report.order,
        a_size=len(ctx.built.genset),
        a_entries=tuple(str(e) for e in ctx.built.genset.entries),
        witness=ctx.witness,
        neighborhood_size=len(neighborhood),
        rows=tuple(rows),
        depth_value=dv,
        passed=True,
    )
