"""Quotient maps onto finite groups, diameters, and diameter-targeted search.

A quotient map is given by the images of the source generators and keeps
them as a signed-letter table (``QuotientMap.letters``: +i is the image of
the i-th generator, -i its inverse); the image of an element is that table
folded along an S-word that spells it.  On construction a map builds the
one BFS ball of its target under the distinct non-identity images
(``QuotientMap.ball``), held to the caller's budget, and reads its
diameter report off it (``QuotientMap.report``); surjectivity is read off
its size, and diameters, target geodesics and lifts all read the same ball.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from functools import reduce
from itertools import combinations, count
from typing import Any, Optional, Sequence

from .cayley import (
    Ball, Budget, BudgetExceededError, DEFAULT_BUDGET, ball, bfs_layers
)
from .groups import (
    Cyclic,
    GeneratingSet,
    Group,
    GroupElement,
    GroupError,
    IntegerGrid,
    IntegerLine,
    Lamplighter,
    fold_word,
    letter_table,
)

__all__ = [
    "QuotientMap",
    "DiameterReport",
    "QuotientError",
    "SurjectivityError",
    "HomomorphismError",
    "FamilyExhaustedError",
    "cyclic_quotient",
    "check_homomorphism",
    "group_ball",
    "diameter",
    "counting_bound_check",
    "find_quotient",
]


class QuotientError(GroupError):
    """Base class for quotient map errors."""


class SurjectivityError(QuotientError):
    """Generator images fail to generate the target."""


class HomomorphismError(QuotientError):
    """The declared images do not define a homomorphism."""


class FamilyExhaustedError(QuotientError):
    """No member of the quotient family meets the requested target."""


class QuotientMap:
    """Surjection from a source group onto a finite target group.

    ``images[i]`` is the image of ``source_gens.entries[i]``; ``letters``
    maps each signed source letter to its image payload, and an element's
    image is the product of those along an S-word for it.  ``image_gens``
    holds the distinct non-identity images in generator order, and
    ``section[j]`` is the least source-generator index mapping onto entry j,
    which fixes a deterministic lift for target letters.  ``ball`` covers
    the target under ``image_gens``; ``group_ball`` builds it under
    ``budget``, so a target too large for the budget raises
    BudgetExceededError here.  ``report`` is its ``DiameterReport``.
    """

    def __init__(
        self,
        source_gens: GeneratingSet,
        target: Group,
        images: Sequence[GroupElement],
        budget: Budget = DEFAULT_BUDGET,
    ):
        if target.order() is None:
            raise ValueError("quotient target must be finite")
        images = tuple(images)
        if len(images) != len(source_gens.entries):
            raise ValueError("one image per source generator required")
        for im in images:
            if im.group is not target and im.group != target:
                raise ValueError("images must lie in the target group")
        self.source_gens = source_gens
        self.source = source_gens.group
        self.target = target
        self.images = images
        self.letters = letter_table(target, [im.payload for im in images])
        identity = target.identity_payload()
        entries: dict = {}  # distinct non-identity image -> least source index
        for i, im in enumerate(images):
            if im.payload != identity:
                entries.setdefault(im.payload, i)
        if not entries:
            raise SurjectivityError("all generator images are the target identity")
        self.section = tuple(entries.values())
        self.image_gens = GeneratingSet(
            [images[i] for i in self.section], [source_gens.labels[i] for i in self.section]
        )
        self.ball = group_ball(target, self.image_gens, budget)
        self.report = DiameterReport.of_ball(self.ball)

    def apply_word(self, word: Sequence[int]) -> GroupElement:
        """Image of the element spelled by an S-word (letters map to images)."""
        acc = fold_word(word, self.letters, self.target.mul_payload, self.target.identity_payload())
        return GroupElement(self.target, acc)

    def image_set(self) -> frozenset:
        """Payloads of all generator images (the un-symmetrized image set)."""
        return frozenset(im.payload for im in self.images)

    def __repr__(self) -> str:
        return f"QuotientMap({self.source!r} -> {self.target!r})"


def cyclic_quotient(
    source_gens: GeneratingSet, m: int, budget: Budget = DEFAULT_BUDGET
) -> QuotientMap:
    """Reduction of the integers onto the cyclic group of order m."""
    if not isinstance(source_gens.group, IntegerLine):
        raise ValueError("cyclic quotient requires an IntegerLine source")
    target = Cyclic(m)
    images = [target.element(e.payload) for e in source_gens.entries]
    return QuotientMap(source_gens, target, images, budget)


def check_homomorphism(pi: QuotientMap, budget: Budget = DEFAULT_BUDGET) -> None:
    """Verify, exactly, that the generator images define a homomorphism.

    Raises HomomorphismError when two S-words for one source element map
    to different images.  On the integers and on ``IntegerGrid`` sources
    the check is arithmetic (see ``_check_lattice_homomorphism``).

    Otherwise a BFS runs over (source, image) pairs under ``budget``, so a
    source element reached with two images shows up twice.  On a finite
    source it runs to closure: the pairs then form the subgroup generated
    by the (generator, image) pairs, and it is the graph of a map exactly
    when no source element carries two images.  On the lamplighter it runs
    until t and a have images, which ``_check_lamplighter_images`` checks
    against Baumslag's presentation; where S does not generate the
    lamplighter, the budget runs out first.
    """
    gens, group = pi.source_gens, pi.source
    if isinstance(group, (IntegerLine, IntegerGrid)):
        return _check_lattice_homomorphism(pi)
    t_a = [e.payload for e in group.standard_gens()] if isinstance(group, Lamplighter) else ()
    mul_s, mul_t = group.mul_payload, pi.target.mul_payload
    signed = list(range(1, len(gens.entries) + 1))
    letters = [(x, (gens.letters[x], pi.letters[x])) for x in signed + [-x for x in signed]]
    start = (group.identity_payload(), pi.target.identity_payload())
    image_of = {start[0]: start[1]}
    try:
        for _, layer in bfs_layers(lambda x, step: (mul_s(x[0], step[0]), mul_t(x[1], step[1])),
                                   letters, start, {start: 0}, budget):
            for src, img in layer:
                known = image_of.setdefault(src, img)
                if known != img:
                    raise HomomorphismError(f"two words for {src!r} map to different images")
            if t_a and all(p in image_of for p in t_a):
                return _check_lamplighter_images(pi, *map(image_of.__getitem__, t_a))
    except BudgetExceededError as exc:
        where = ", looking for S-words for t and a: S may not generate the lamplighter"
        raise BudgetExceededError(f"{exc} in the homomorphism check{where if t_a else ''}",
                                  exc.radius_reached, exc.elements_seen) from None


def _check_lamplighter_images(pi: QuotientMap, tau: Any, alpha: Any) -> None:
    """Exact check on a lamplighter source, given the images tau of t and alpha of a.

    The relators of <a, t | a^2, [a, t^k a t^-k] for k >= 1> (Baumslag) map
    to the identity when alpha^2 = 1 and alpha commutes with each conjugate
    tau^k alpha tau^-k.  The first holds already: the BFS layer that first
    reaches a = a^-1 holds a word for it and the inverse word, with images
    alpha and alpha^-1.  The conjugates repeat from the first k at which
    one is alpha again, so k never passes the order of tau.  Then t -> tau,
    a -> alpha is a homomorphism, and the images define it exactly when
    each generator (lamps, c) = prod_q t^q a t^-q . t^c maps to
    prod_q tau^q alpha tau^-q . tau^c.
    """
    target = pi.target
    mul, identity = target.mul_payload, target.identity_payload()

    def conjugate(k: int) -> Any:
        return mul(mul(_power(target, tau, k), alpha), _power(target, tau, -k))

    k = 1
    while (c := conjugate(k)) != alpha:
        if mul(alpha, c) != mul(c, alpha):
            raise HomomorphismError(f"[a, t^{k} a t^-{k}] and 1 map to different images")
        k += 1
    for i, (lamps, cursor) in enumerate(e.payload for e in pi.source_gens):
        normal_form = mul(reduce(mul, map(conjugate, lamps), identity), _power(target, tau, cursor))
        if normal_form != pi.letters[i + 1]:
            label = pi.source_gens.labels[i]
            raise HomomorphismError(f"{label} and its normal form map to different images")


def _check_lattice_homomorphism(pi: QuotientMap) -> None:
    """Exact check for generators g_1..g_s of Z or Z^k with images t_1..t_s.

    The images define a homomorphism exactly when they commute pairwise
    (g_i + g_j = g_j + g_i) and every relation c (sum c_i g_i = 0) maps
    to the identity (prod t_i^c_i = 1).  Integer row reduction of the rows
    [g_i | e_i] brings the g-block to echelon form; the e-blocks of the
    rows whose g-block is then zero form a basis of the relations, and
    only those are checked.
    """
    target, mul = pi.target, pi.target.mul_payload
    line = isinstance(pi.source, IntegerLine)
    vectors = [(e.payload,) if line else e.payload for e in pi.source_gens.entries]
    images = [pi.letters[i] for i in range(1, len(vectors) + 1)]
    s, rank = len(vectors), len(vectors[0])

    def differ(c: Sequence[int]) -> HomomorphismError:
        # the words for the positive and for the negative part of c spell one element
        src = [sum(a * v[x] for a, v in zip(c, vectors) if a > 0) for x in range(rank)]
        return HomomorphismError(
            f"two words for {src[0] if line else tuple(src)!r} map to different images"
        )

    for i, j in combinations(range(s), 2):
        if mul(images[i], images[j]) != mul(images[j], images[i]):
            raise differ([int(x in (i, j)) for x in range(s)])
    rows = [list(v) + [int(i == j) for j in range(s)] for i, v in enumerate(vectors)]
    top = 0
    for col in range(rank):
        while True:  # Euclid down column col on the rows from top
            live = [i for i in range(top, s) if rows[i][col]]
            if not live:
                break
            low = min(live, key=lambda i: abs(rows[i][col]))
            rows[top], rows[low] = rows[low], rows[top]
            if len(live) == 1:
                top += 1
                break
            pivot = rows[top]
            for i in range(top + 1, s):
                q = rows[i][col] // pivot[col]
                rows[i] = [a - q * b for a, b in zip(rows[i], pivot)]
    identity = target.identity_payload()
    for row in rows[top:]:
        powers = (_power(target, t, c) for t, c in zip(images, row[rank:]))
        if reduce(mul, powers, identity) != identity:
            raise differ(row[rank:])


def _power(group: Group, p: Any, k: int) -> Any:
    """p^k in a finite group, by square-and-multiply on k mod the order."""
    mul = group.mul_payload
    acc = group.identity_payload()
    k %= group.order()
    while k:
        if k & 1:
            acc = mul(acc, p)
        p = mul(p, p)
        k >>= 1
    return acc


@dataclass(frozen=True)
class DiameterReport:
    """Diameter of a finite group under a generating set, with witness."""

    order: int
    diameter: int
    witness: GroupElement
    sphere_sizes: tuple[int, ...]

    @classmethod
    def of_ball(cls, b: Ball) -> "DiameterReport":
        """Report on a ball that covers its whole finite group."""
        n = len(b.sphere_sizes) - 1
        return cls(len(b), n, GroupElement(b.group, b.first_payload_at(n)), b.sphere_sizes)

    def to_json(self) -> dict:
        return {
            "schema": "diameter-report.v1",
            "order": self.order,
            "diameter": self.diameter,
            "witness": self.witness.group.payload_to_json(self.witness.payload),
            "witness_str": str(self.witness),
            "sphere_sizes": list(self.sphere_sizes),
        }


def group_ball(target: Group, gens: GeneratingSet, budget: Budget = DEFAULT_BUDGET) -> Ball:
    """Ball covering a whole finite group; errors if gens do not generate.  The BFS
    runs to closure under the element and time limits of budget, and the radius
    it reaches is then held to the radius limit."""
    order = target.order()
    if order is None:
        raise ValueError("a full group ball requires a finite group")
    b = ball(target, gens, order, replace(budget, max_radius=order))
    if len(b) != order:
        raise SurjectivityError(f"generators reach only {len(b)} of {order} elements")
    reached = len(b.sphere_sizes) - 1
    if reached > budget.max_radius:
        message = f"the whole-group BFS reached radius {reached}, above {budget.max_radius}"
        raise BudgetExceededError(message, radius_reached=reached, elements_seen=len(b))
    return b


def diameter(
    target: Group, gens: GeneratingSet, budget: Budget = DEFAULT_BUDGET
) -> DiameterReport:
    """Exact diameter via full BFS; witness is the first maximal element."""
    return DiameterReport.of_ball(group_ball(target, gens, budget))


def counting_bound_check(report: DiameterReport, a: int) -> bool:
    """Self-test of the word-counting bound: (2a+1)^diameter >= order."""
    return (2 * a + 1) ** report.diameter >= report.order


def find_quotient(
    source_gens: GeneratingSet,
    n_prime: int,
    mode: str = "greedy",
    stop: Optional[int] = None,
    budget: Budget = DEFAULT_BUDGET,
) -> QuotientMap:
    """First cyclic quotient Z -> C_m, m = start, start+1, ..., stop, whose
    diameter reaches the length target n'.

    mode "greedy" starts at m = 2 and reads each member's diameter.  mode
    "paper_safe" starts at m = (2a+1)^n', a = |S|: by the counting bound every
    surjective member from there on has diameter >= n', so no member below it
    is built.  Members whose images do not generate C_m are skipped; each
    member's target ball is built under ``budget``, and its diameter is its
    map's ``report``.  Raises FamilyExhaustedError when no member up to
    ``stop`` qualifies, and BudgetExceededError, before any member is built,
    when n' exceeds the radius budget, which no member's diameter may.
    """
    if mode not in ("paper_safe", "greedy"):
        raise ValueError(f"mode must be 'paper_safe' or 'greedy', got {mode!r}")
    if n_prime < 1:
        raise ValueError(f"length target must be >= 1, got {n_prime}")
    base, start = 2 * len(source_gens) + 1, 2
    if mode == "paper_safe":  # base^k > 2^k > stop once k reaches stop's bit length
        start = base ** (n_prime if stop is None else min(n_prime, stop.bit_length()))
    if stop is not None and start > stop:
        first = f"counting-bound order {base}^{n_prime}" if mode == "paper_safe" else "first order 2"
        raise FamilyExhaustedError(
            f"no cyclic quotient searched: the {first} lies above the stop {stop}"
        )
    if n_prime > budget.max_radius:  # group_ball holds every member's diameter to max_radius
        raise BudgetExceededError(
            f"length target {n_prime} exceeds budget radius {budget.max_radius}: "
            "no quotient within the budget reaches it",
            radius_reached=0,
            elements_seen=0,
        )
    for m in range(start, stop + 1) if stop is not None else count(start):
        with suppress(SurjectivityError):
            pi = cyclic_quotient(source_gens, m, budget)
            if pi.report.diameter >= n_prime:
                return pi
    raise FamilyExhaustedError(
        f"no cyclic quotient of order {start} to {stop} reaches diameter {n_prime}"
    )
