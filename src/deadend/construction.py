"""Deep generating sets from finite quotients, with verifiable certificates.

Pipeline: a target depth D and a quotient pi onto a finite group of
diameter n give the depth slack d = D-1, with n > 2d, and the least ball
radius N meeting the bound; the generating set A collects every element
of the radius-N S-ball whose image is a generator image.  The
maximal-length quotient element lifts to a witness g_n with
norm_A(g_n) = n, and every element of g_n·B_A(d), the radius-d ball over
A moved to the witness, stays inside the closed radius-n ball, which
makes g_n a dead end of depth at least d+1.  Each membership claim is
proved by a factorization certificate into k = |pi(g)|_T <= n factors
from A or their inverses; no norm is read off a ball over A: the
homomorphism check is exact on every source, so the norms follow from
the certificates alone.  ``factorize`` derives each certificate once, a
batch at a time, and checks, as it derives it, every fact the bound needs.

A certificate reads its k + 1 cuts from prefix tables, each one
``prefix_products`` pass built once and checked at its end: a neighbour of
the witness is a path through them, and a plain S-word a path of one
segment.  The group arithmetic of a batch runs one whole list per step
(``products``, ``inverses``) over the cuts of all its certificates.  The
target side reads the quotient map's one ball of its target, held to the
budget when the map was built, and the diameter report read off it: the
diameter, the witness, the target geodesic of each image a certificate
needs, walked once with its prefix images, and the lift of each target
element, folded down its BFS tree.
"""

from __future__ import annotations

import hashlib
import warnings
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import add, sub
from pathlib import Path
from typing import Any, NamedTuple, Optional, Sequence, Union

from .cayley import Ball, Budget, DEFAULT_BUDGET, _check_budget, ball, ball_cached
from .groups import (
    GeneratingSet,
    Group,
    GroupElement,
    GroupError,
    Word,
    evaluate_word,
    fold_word,
    invert_word,
)
from .quotient import QuotientMap, check_homomorphism
from .serialize import dumps

__all__ = [
    "ConstructionError",
    "CertificateError",
    "VerificationError",
    "ConstructionParams",
    "DeadEndWitness",
    "PrefixTable",
    "TablePath",
    "Certificate",
    "ConstructionReport",
    "Construction",
    "required_n",
    "required_N",
    "bound_inequality_holds",
    "constructed_genset",
    "find_witness",
    "factorize",
    "verify_construction",
]

BOUND_MODES = ("paper", "tight")


class ConstructionError(GroupError):
    """A construction step failed or was given inconsistent inputs."""


class CertificateError(ConstructionError):
    """A factorization certificate failed a check of its derivation."""

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
    """Exact check of (n + d*N)/(n - d) + 2n + 1 <= N, with the denominator
    n - d > 0 cleared."""
    if d < 1 or n <= d:
        raise ValueError(f"need n > d >= 1, got n={n}, d={d}")
    return n + d * N <= (N - 2 * n - 1) * (n - d)


@dataclass(frozen=True)
class ConstructionParams:
    """Target depth D and quotient diameter n, checked in that order, with the
    two values derived from them: the slack d = D-1, which needs n > 2d, and
    the least ball radius N meeting the bound of ``bound_mode``."""

    target_depth: int
    n: int
    bound_mode: str = "paper"
    d: int = field(init=False)
    N: int = field(init=False)

    def __post_init__(self):
        D, n = self.target_depth, self.n
        if D < 2:
            raise ValueError(f"target depth must be >= 2, got {D}")
        if n <= 2 * (D - 1):
            raise ValueError(f"quotient diameter {n} is too small for target depth "
                             f"{D} (needs a diameter above {2 * (D - 1)})")
        object.__setattr__(self, "d", D - 1)
        object.__setattr__(self, "N", required_N(n, D - 1, self.bound_mode))

    def to_json(self) -> dict:
        return {
            "target_depth": self.target_depth,
            "d": self.d,
            "n": self.n,
            "N": self.N,
            "bound_mode": self.bound_mode,
        }


def constructed_genset(
    source_gens: GeneratingSet,
    pi: QuotientMap,
    N: int,
    budget: Budget = DEFAULT_BUDGET,
    cache_dir: Optional[Union[str, Path]] = None,
) -> tuple[GeneratingSet, Ball]:
    """Intersect the radius-N S-ball with the generator-image preimage: the
    generating set A, and the S-ball it was read off.

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
    mul_t, decode = pi.target.mul_payload, s_ball.codec.decode
    images = s_ball.along_parents(
        pi.target.identity_payload(), lambda acc, letter: mul_t(acc, pi.letters[letter])
    )
    entries: list[GroupElement] = []
    kept: set = set()
    for code, image in images.items():
        if image not in tset:
            continue
        payload = decode(code)
        if payload == identity:
            warnings.warn(
                "identity lies in the preimage of the generator images; dropped from A"
            )
            continue
        if group.inv_payload(payload) in kept:
            continue
        kept.add(payload)
        entries.append(GroupElement(group, payload))
    genset = GeneratingSet(entries)
    symmetrized = genset.symmetrized_payloads()
    for s in source_gens.entries:
        if s.payload not in symmetrized:
            raise ConstructionError(f"source generator {s} missing from constructed set")
    return genset, s_ball


def _prefixes(word: Sequence[int], letters: dict, group: Group) -> Sequence:
    """The product of the first i letters of ``word`` for i = 0..len(word), from
    one ``prefix_products`` pass: integer payloads in one array of 64-bit cells,
    any others as they are.  A letter missing from ``letters`` raises
    ``fold_word``'s ValueError."""
    try:
        steps = list(map(letters.__getitem__, word))
    except KeyError:
        # raises on the missing letter
        fold_word(word, letters, group.mul_payload, group.identity_payload())
        raise
    entries = group.prefix_products(steps)
    try:
        return array("q", entries)
    except (TypeError, OverflowError):
        return entries


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
            "element": self.element.group.payload_to_json(self.element.payload),
            "element_str": str(self.element),
            "n": self.n,
            "depth_lower_bound": self.depth_lower_bound,
            "s_word_length": len(self.s_word),
        }


def find_witness(
    source_gens: GeneratingSet, pi: QuotientMap, claimed_depth: Optional[int] = None
) -> DeadEndWitness:
    """Lift the diameter witness of the quotient's target ball through the
    canonical section.  Its norm under A is the diameter n: at most n, as S
    lies in A± and the lift has one S-letter per geodesic letter; at least
    n, as pi is a homomorphism sending A± into the image generators and the
    identity.  That the lift maps onto the witness is checked at the end of
    its prefix table (``Construction._tables``)."""
    s_word = _lift(pi.section, pi.ball.geodesic_payload(pi.report.witness.payload))
    g_n = evaluate_word(s_word, source_gens)
    return DeadEndWitness(g_n, pi.report.diameter, claimed_depth, s_word)


class PrefixTable(NamedTuple):
    """One S-word with its prefix products: ``source[i]`` is the product of
    its first i letters and ``image[i]`` that product's image under pi."""

    word: Word
    source: Sequence
    image: Sequence


# The most cuts a batch of certificates holds: ``verify_construction`` puts
# max(1, _BATCH_CUTS // (n + 1)) neighbours in each, as k <= n.
_BATCH_CUTS = 1024
# A path is read by slices from this many cuts a segment on: below it, reading
# each cut costs less than the slices (Z -> C_18 at D=5, 2 cuts a segment: 3.2
# against 7.8 us a path on a 2-vCPU host, Python 3.11); at paper_safe scale
# (2,000 cuts a segment or more) slices cost far less.
_SLICE_CUTS = 8


class TablePath(NamedTuple):
    """An S-word as the prefix tables of its segments, in order.  ``starts[j]``
    is where segment j starts in the word, ``sources[j]`` the product before
    it and ``images[j]`` that product's image; the three end with the whole
    word's length, product and image."""

    tables: tuple[PrefixTable, ...]
    starts: tuple[int, ...]
    sources: tuple[Any, ...]
    images: tuple[Any, ...]


class _JsonTexts(dict):
    """Payload -> the canonical JSON text of its value, encoded on first use."""

    def __init__(self, group: Group):
        super().__init__()
        self.group = group

    def __missing__(self, payload: Any) -> str:
        text = self[payload] = dumps(self.group.payload_to_json(payload))
        return text


@dataclass(frozen=True)
class Certificate:
    """Factorization g = v_1 ... v_k with every factor in A or its inverses.

    A certificate from ``factorize``, which checks every claim as it
    derives it, witnesses norm_A(g) <= k without BFS.  It keeps the k + 1
    cuts of an S-word for g into its pieces u_i, never the word.  Of
    each factor word phi(c_{i-1})^-1 u_i phi(c_i), where phi(c) is the S-word
    the target geodesic of c spells through the section of pi, it keeps the
    value and length, never the word.  The degenerate flag marks arguments
    mapping to the target identity, which have no such factorization.
    """

    target: GroupElement
    k: int
    cuts: tuple[int, ...]
    t_letters: Word
    v_payloads: tuple[Any, ...]
    v_word_lengths: tuple[int, ...]
    degenerate: bool = False

    @property
    def u_lengths(self) -> list[int]:
        return list(map(sub, self.cuts[1:], self.cuts))

    def to_json(self) -> dict:
        group = self.target.group
        return {
            "schema": "certificate.v1",
            "target": group.payload_to_json(self.target.payload),
            "k": self.k,
            "degenerate": self.degenerate,
            "u_lengths": self.u_lengths,
            "t_letters": list(self.t_letters),
            "v_factors": list(map(group.payload_to_json, self.v_payloads)),
            "v_word_lengths": list(self.v_word_lengths),
        }

    def digest(self, texts: Optional[_JsonTexts] = None) -> str:
        """The first 16 hex digits of the SHA-256 of ``dumps(self.to_json())``,
        whose text is joined here field by field: the integer lists as their
        decimal texts, and each factor value's JSON read through ``texts``, a
        map that ``verify`` shares between the certificates of a run, so each
        distinct value is encoded once."""
        group = self.target.group
        texts = _JsonTexts(group) if texts is None else texts
        text = "".join((
            '{"degenerate":', "true" if self.degenerate else "false", ',"k":', str(self.k),
            ',"schema":"certificate.v1","t_letters":[', ",".join(map(repr, self.t_letters)),
            '],"target":', dumps(group.payload_to_json(self.target.payload)),
            ',"u_lengths":[', ",".join(map(repr, map(sub, self.cuts[1:], self.cuts))),
            '],"v_factors":[', ",".join(map(texts.__getitem__, self.v_payloads)),
            '],"v_word_lengths":[', ",".join(map(repr, self.v_word_lengths)), "]}",
        ))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Construction:
    """Full pipeline state: the parameters derived from the target depth and
    the quotient's diameter, A with the S-ball it was read off, the
    witness, the lifts and the prefix tables.

    Certificates read their cuts from prefix tables of the witness lift and
    of each signed A-letter's S-geodesic.  Each table is one
    ``prefix_products`` pass in the source and in the target, built once and
    checked at its end: the last source entry is its element, which
    cross-checks the S-ball codes an A-letter's geodesic was walked on
    against payload arithmetic, and the last image is the diameter witness
    or a generator image.
    """

    def __init__(
        self,
        source_gens: GeneratingSet,
        pi: QuotientMap,
        target_depth: int,
        bound_mode: str = "paper",
        budget: Budget = DEFAULT_BUDGET,
        cache_dir: Optional[Union[str, Path]] = None,
    ):
        self.params = params = ConstructionParams(target_depth, pi.report.diameter, bound_mode)
        self.source_gens = source_gens
        self.pi = pi
        self.budget = budget
        self.cache_dir = cache_dir
        check_homomorphism(pi, budget)
        self.genset, self._s_ball = constructed_genset(source_gens, pi, params.N, budget,
                                                       cache_dir)
        self.symmetrized = self.genset.symmetrized_payloads()
        self.witness = find_witness(source_gens, pi, params.d + 1)
        self._geodesics: dict = {}  # target payload -> (its geodesic, their prefix images)

    # -- prefix tables and paths -------------------------------------------

    @property
    def s_ball(self) -> Ball:
        """The radius-N S-ball A was read off.  Once the prefix tables exist only
        ``path_for`` and ``a_letter_s_word`` read it, so ``_tables`` releases it,
        and it is rebuilt (through the ball cache) when they read it again."""
        if self._s_ball is None:
            gens = self.source_gens
            self._s_ball = ball_cached(gens.group, gens, self.params.N, self.cache_dir,
                                       self.budget)
        return self._s_ball

    def a_letter_s_word(self, letter: int) -> Word:
        """S-geodesic of the A-generator named by a signed letter."""
        payload = self.genset.entries[abs(letter) - 1].payload
        word = self.s_ball.geodesic_payload(payload)
        return word if letter > 0 else invert_word(word)

    def _table(self, word: Sequence[int]) -> PrefixTable:
        gens = self.source_gens
        return PrefixTable(tuple(word), _prefixes(word, gens.letters, gens.group),
                           _prefixes(word, self.pi.letters, self.pi.target))

    @cached_property
    def _tables(self) -> dict:
        """0 -> the checked table of the witness lift, whose image ends at the
        diameter witness; each signed A-letter -> that of its S-geodesic,
        whose image ends at a generator image (inverted for a negative
        letter), as A was built to map.  The S-ball is released after them."""
        inv_t, images = self.pi.target.inv_payload, self.pi.image_set()
        inverses = frozenset(map(inv_t, images))
        witness = self.witness
        tables = {0: self._checked(0, witness.s_word, witness.element.payload,
                                   {self.pi.report.witness.payload})}
        for letter, payload in self.genset.letters.items():
            word, last_images = self.a_letter_s_word(letter), images if letter > 0 else inverses
            tables[letter] = self._checked(letter, word, payload, last_images)
        self._s_ball = None
        return tables

    def _checked(self, key: int, word: Word, last: Any, last_images) -> PrefixTable:
        """The table of ``word``, checked at its end: the last source entry is
        ``last``, and the last image lies in ``last_images``."""
        table = self._table(word)
        if table.source[-1] != last or table.image[-1] not in last_images:
            what = "the witness lift" if key == 0 else f"A-letter {key}"
            raise ConstructionError(f"prefix table of {what} does not end at its element")
        return table

    def _then(self, path: Optional[TablePath], table: PrefixTable) -> TablePath:
        """``path`` (None: the empty path) followed by the segment of ``table``,
        which starts at the path's length, after the path's product and image."""
        group, target = self.source_gens.group, self.pi.target
        if path is None:
            path = TablePath((), (0,), (group.identity_payload(),), (target.identity_payload(),))
        tables, starts, sources, images = path
        return TablePath(tables + (table,), starts + (starts[-1] + len(table.word),),
                         sources + (group.mul_payload(sources[-1], table.source[-1]),),
                         images + (target.mul_payload(images[-1], table.image[-1]),))

    def word_path(self, s_word: Sequence[int]) -> TablePath:
        """A plain S-word as a one-segment path: its table is one fold of the
        word in each group."""
        return self._then(None, self._table(s_word))

    def _at_cuts(self, paths: Sequence[TablePath], cuts_of: Sequence[Sequence[int]]
                 ) -> tuple[list, list]:
        """The source prefix products of each path at its cuts (``_cuts``), and
        their images, as one list each for the whole batch: the base of the
        segment that holds a cut times one table entry, in one ``products``
        pass per group.  A path with few cuts a segment is read cut by cut;
        otherwise a segment's cuts, at most two arithmetic progressions (the
        longer pieces' and the shorter ones'), are read as one slice of its
        tables each."""
        bases_s: list = []
        entries_s: list = []
        bases_t: list = []
        entries_t: list = []
        for (tables, starts, sources, images), cuts in zip(paths, cuts_of):
            if len(cuts) < _SLICE_CUTS * len(tables):
                for c in cuts:  # the end cut is in the last segment
                    j = bisect_right(starts, c, 0, len(tables)) - 1
                    table, i = tables[j], c - starts[j]
                    entries_s.append(table.source[i])
                    entries_t.append(table.image[i])
                    bases_s.append(sources[j])
                    bases_t.append(images[j])
                continue
            step, split = divmod(starts[-1], len(cuts) - 1)  # cuts before split: longer pieces
            # segment j holds the cuts from lo up to his[j], the first at the next start
            his = [*map(bisect_left, repeat(cuts), starts[1:-1]), len(cuts)]
            lo = 0
            for table, start, s, t, hi in zip(tables, starts, sources, images, his):
                if lo < hi:
                    for m0, m1 in ((lo, split), (split, hi)) if lo < split < hi else ((lo, hi),):
                        run = slice(cuts[m0] - start, cuts[m1 - 1] - start + 1,
                                    step + 1 if m0 < split else step)
                        entries_s += table.source[run]
                        entries_t += table.image[run]
                        bases_s += repeat(s, m1 - m0)
                        bases_t += repeat(t, m1 - m0)
                lo = hi
        return (self.source_gens.group.products(bases_s, entries_s),
                self.pi.target.products(bases_t, entries_t))

    # -- the walk about the witness ----------------------------------------

    @cached_property
    def _walk(self) -> dict:
        """The path of every element of g_n·B_A(d) by payload, in discovery
        order.  Left multiplication by g_n maps the BFS tree of the radius-d
        ball over A onto the walk about the witness, letter for letter; a
        path is folded down that tree from the witness lift's, one parent
        A-letter's table per step, which carries the segment's start and the
        product before it down the edge, so no word is kept."""
        group, tables = self.source_gens.group, self._tables
        a_ball = ball(group, self.genset, self.params.d, self.budget)
        paths = a_ball.along_parents(
            self._then(None, tables[0]), lambda path, letter: self._then(path, tables[letter]))
        g_n, mul, decode = self.witness.element.payload, group.mul_payload, a_ball.codec.decode
        return {mul(g_n, decode(h)): path for h, path in paths.items()}

    def witness_neighborhood(self) -> list[tuple[GroupElement, TablePath]]:
        """Every g within A-distance d of the witness, with the path the walk gives it."""
        group = self.source_gens.group
        return [(GroupElement(group, y), path) for y, path in self._walk.items()]

    def path_for(self, g: GroupElement) -> TablePath:
        """The path of an S-word of length <= n + d*N for g: the witness lift,
        an S-ball geodesic or the walk's path; ValueError if none is derivable."""
        if g == self.witness.element:
            return self.word_path(self.witness.s_word)
        if self.s_ball.norm(g) is not None:
            return self.word_path(self.s_ball.geodesic(g))
        path = self._walk.get(g.payload)
        if path is None:
            raise ValueError(f"no S-word available for {g}: outside the S-ball and the "
                             "witness neighborhood")
        return path

    # -- certificates ------------------------------------------------------

    @cached_property
    def _lifts(self) -> dict:
        """Target payload (a finite group's code) -> the source payload of its lift,
        folded down the target ball's BFS tree: each step appends the section letter
        of its parent letter, which pi maps onto that letter.  So, by induction down
        the tree, every lift maps onto its element, and its length is the target
        norm, at most n (a factor word has at most |u| + 2n letters)."""
        group, pi = self.source_gens.group, self.pi
        t_letters = tuple(pi.image_gens.letters)
        s_steps = map(self.source_gens.letters.__getitem__, _lift(pi.section, t_letters))
        mul, steps = group.mul_payload, dict(zip(t_letters, s_steps))
        return pi.ball.along_parents(group.identity_payload(),
                                     lambda parent, t_letter: mul(parent, steps[t_letter]))

    def _geodesic(self, t: Any) -> tuple[Word, Sequence]:
        """The target geodesic of t and its prefix images, walked once per
        target element, however many certificates read them."""
        found = self._geodesics.get(t)
        if found is None:
            pi = self.pi
            word = pi.ball.geodesic_payload(t)
            found = self._geodesics[t] = (word, _prefixes(word, pi.image_gens.letters, pi.target))
        return found

    def certify(
        self, g: GroupElement, path: Union[TablePath, Sequence[int], None] = None
    ) -> Certificate:
        """The certificate of g, along ``path`` or the one ``path_for`` gives,
        checked as ``factorize`` derives it in a batch of one; degenerate if
        pi(g) is the identity."""
        (cert,) = factorize(self, [(g, self.path_for(g) if path is None else path)])
        if isinstance(cert, CertificateError):
            raise cert
        return cert

    def verify(self) -> "ConstructionReport":
        return verify_construction(self)


def factorize(
    ctx: Construction,
    items: Sequence[tuple[GroupElement, Union[TablePath, Sequence[int]]]],
    near_witness: bool = False,
) -> list[Union[Certificate, CertificateError]]:
    """Split an S-word for each g of a batch of (g, path) items (a path, or a
    plain word read as one) along a target geodesic into factors from A or
    their inverses; the one derivation of a certificate.  Gives, item by
    item, the certificate or the CertificateError of the first fact of the
    depth bound that failed for it.

    The word is cut into k = |pi(g)|_T near-equal pieces u_i, each
    corrected by lifts of quotient discrepancies so the factors v_i
    multiply to g while each maps onto one geodesic letter (see
    ``_corrected``).  Each step after the checks on k is one whole-list pass
    over the cuts of the whole batch: prefix products are read off the
    path's tables at the cuts alone (``Construction._at_cuts``), from the
    segment starts and products the path carries, so a certificate costs O(k)
    group operations, whatever the length of its word; each certificate's
    results are then read back from the batch lists by offset.
    Checked, in this order: the path ends at g, in the source group; its
    length is at most n + d*N; k exists and k <= n, and with
    near_witness=True also k >= n - d (the triangle bound), which a
    degenerate neighbour fails; the geodesic spells pi(g) (c_k = 1); R_0 = 1
    and R_k = g, so the factors multiply to g; and every factor lies in A
    or its inverses.  An element mapping to the target identity (k = 0) has
    no factors, and its certificate is marked degenerate.
    """
    results: list = []
    live = []  # (index in results, g, path, k) of each certificate with factors
    for g, path in items:
        if not isinstance(path, TablePath):
            path = ctx.word_path(path)
        try:
            k = _image_norm(ctx, g, path, near_witness)
        except CertificateError as exc:
            results.append(exc)
            continue
        if k:
            live.append((len(results), g, path, k))
        results.append(None if k else Certificate(g, 0, (), (), (), (), degenerate=True))
    if not live:
        return results
    cuts_of = [_cuts(path.starts[-1], k) for _, _, path, k in live]
    geodesics = [ctx._geodesic(path.images[-1]) for _, _, path, _ in live]
    source, image = ctx._at_cuts([path for _, _, path, _ in live], cuts_of)
    all_cuts = list(chain.from_iterable(cuts_of))
    prefixes = list(chain.from_iterable(geodesic for _, geodesic in geodesics))
    discrepancies, corrected, v_lengths = _corrected(ctx, source, image, all_cuts, prefixes)
    group = ctx.source_gens.group
    v_payloads = group.products(group.inverses(corrected[:-1]), corrected[1:])
    inside = list(map(ctx.symmetrized.__contains__, v_payloads))
    identity, identity_t = group.identity_payload(), ctx.pi.target.identity_payload()
    at = 0  # the offset of a certificate's first cut in the batch lists
    for (i, g, _, k), cuts, (t_letters, _) in zip(live, cuts_of, geodesics):
        if discrepancies[at + k] != identity_t:
            results[i] = CertificateError("target geodesic does not spell the image")
        elif corrected[at] != identity or corrected[at + k] != g.payload:
            results[i] = CertificateError("factors do not multiply to the element")
        elif not all(inside[at:at + k]):
            results[i] = CertificateError("factor is not in A or its inverses",
                                          index=inside.index(False, at) - at)
        else:
            results[i] = Certificate(g, k, cuts, t_letters, tuple(v_payloads[at:at + k]),
                                     tuple(v_lengths[at:at + k]))
        at += k + 1
    return results


def _image_norm(ctx: Construction, g: GroupElement, path: TablePath, near_witness: bool) -> int:
    """k = |pi(g)|_T, the target norm of the path's image; CertificateError
    unless the path ends at g within n + d*N letters and k <= n, and with
    near_witness also k >= n - d."""
    params, L = ctx.params, path.starts[-1]
    if path.sources[-1] != g.payload or g.group != ctx.source_gens.group:
        raise CertificateError("provided S-word does not evaluate to the element")
    limit = params.n + params.d * params.N
    if L > limit:
        raise CertificateError(f"S-word length {L} exceeds n + d*N = {limit}")
    k = ctx.pi.ball.norm_payload(path.images[-1])
    if k is None:
        raise CertificateError("image norm unavailable; target ball incomplete")
    if k > params.n:
        raise CertificateError(f"k = {k} exceeds the diameter n = {params.n}")
    if near_witness and k < params.n - params.d:
        raise CertificateError(f"k = {k} below the triangle bound n - d = {params.n - params.d}")
    return k


def _cuts(L: int, k: int) -> tuple[int, ...]:
    """The k + 1 cuts of k near-equal pieces of L >= k letters, the longer ones first."""
    base, extra = divmod(L, k)
    return (*range(0, extra * (base + 1), base + 1), *range(extra * (base + 1), L + 1, base))


def _corrected(ctx: Construction, source: list, image: list, cuts: Sequence[int],
               prefixes: Sequence):
    """R_i = S_i lift(c_i) at each cut i, where S_i is the source prefix
    product there, P_i its image and c_i = P_i^-1 Q_i with Q_i the i-th of the
    target geodesic's prefix images ``prefixes``, so pi maps R_i onto Q_i; R_0
    is the identity, and the factor v_i = R_{i-1}^-1 R_i is the value of
    phi(c_{i-1})^-1 u_i phi(c_i).  Gives the c_i, the R_i and each factor
    word's length |phi(c_{i-1})| + |u_i| + |phi(c_i)|, with |phi(c)| the
    target norm of c; c_k is the identity when the geodesic spells P_L.
    Over a batch each list holds every certificate's cuts in turn, and the
    lengths that straddle two certificates are never read."""
    target = ctx.pi.target
    discrepancies = target.products(target.inverses(image), prefixes)
    lifts = list(map(ctx._lifts.__getitem__, discrepancies))
    corrected = ctx.source_gens.group.products(source, lifts)
    # a finite target's ball keys its norms by payload: its codec is the identity
    lift_lengths = list(map(ctx.pi.ball.dist.__getitem__, discrepancies))
    lengths = map(add, map(add, lift_lengths, map(sub, cuts[1:], cuts)), lift_lengths[1:])
    return discrepancies, corrected, list(lengths)


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
            "depth_lower_bound": self.params.d + 1,
            "passed": self.passed,
        }


def verify_construction(ctx: Construction) -> ConstructionReport:
    """Exhaustively confirm that everything within A-distance d of the
    witness stays inside the closed radius-n ball, certifying depth >= d+1.

    Each neighbour's certificate is derived once, by ``factorize`` with the
    triangle bound n - d <= k <= n, in batches of at most ``_BATCH_CUTS``
    cuts; k is then its norm under A (``norm_A``), bounded above by the
    factors and below by |pi(g)|_T = k.  Before each batch the budget is
    checked: past its deadline, BudgetExceededError names how many
    neighbours were certified.  Any failure aborts loudly; a false claim
    here would be a bug.
    """
    failures: list[str] = []
    rows: list[dict] = []
    neighborhood = ctx.witness_neighborhood()
    size = max(1, _BATCH_CUTS // (ctx.params.n + 1))
    texts = _JsonTexts(ctx.source_gens.group)
    for done in range(0, len(neighborhood), size):
        # the neighbourhood fit the element budget, so only the deadline can stop here
        _check_budget(ctx.budget, done, ctx.params.d,
                      f" in certificates after {done} of {len(neighborhood)} neighbours")
        batch = neighborhood[done:done + size]
        for (element, _), cert in zip(batch, factorize(ctx, batch, near_witness=True)):
            if isinstance(cert, CertificateError):
                failures.append(f"{element}: certificate failed: {cert}")
                continue
            rows.append(
                {
                    "element": str(element),
                    "norm_A": cert.k,
                    "certificate_k": cert.k,
                    "certificate_ok": True,
                    "certificate_digest": cert.digest(texts),
                }
            )
    if failures:
        raise VerificationError(
            f"construction verification failed for {len(failures)} case(s)", failures
        )
    return ConstructionReport(
        params=ctx.params,
        quotient_order=ctx.pi.report.order,
        a_size=len(ctx.genset),
        a_entries=tuple(str(e) for e in ctx.genset.entries),
        witness=ctx.witness,
        neighborhood_size=len(neighborhood),
        rows=tuple(rows),
        passed=True,
    )
