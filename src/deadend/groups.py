"""Element algebra for a fixed menu of finitely generated groups.

Every group object owns a canonical payload for each of its elements:
equal elements have identical payloads, so payloads can key hash tables
directly.  All arithmetic is exact; integer payloads are capped at a
configurable bit width and overflow is a hard error, never a silent wrap.

Words are read through one signed-letter table per generating set
(``letter_table``) and evaluated by one fold (``fold_word``), which
rejects a letter missing from the table as it reaches it.  Walks (balls,
depth searches) step on the element codes of ``Group.integer_code``.

Each group class owns its formats: the text of a payload, its JSON shape
and CLI token, the ``group.v1`` parameter fields and the standard
generators.  A class registers under its ``variant`` name as it is
defined, so a new variant is one class.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from contextlib import suppress
from functools import partial
from itertools import accumulate, chain, compress, count, repeat
from operator import add, and_, getitem, itemgetter, lshift, mod, neg, xor
from typing import (Any, Callable, ClassVar, Collection, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

__all__ = [
    "Codec",
    "Group",
    "GroupElement",
    "GeneratingSet",
    "Word",
    "IntegerLine",
    "IntegerGrid",
    "Cyclic",
    "Dihedral",
    "Lamplighter",
    "TableGroup",
    "GroupError",
    "MixedGroupError",
    "RangeOverflowError",
    "InvalidElementError",
    "TableGroupError",
    "evaluate_word",
    "fold_word",
    "invert_word",
    "letter_table",
    "standard_gens",
]

# A word is a sequence of signed 1-based generator indices: letter +k means
# the k-th generator, -k its inverse.
Word = tuple[int, ...]


class GroupError(Exception):
    """Base class for group algebra errors."""


class MixedGroupError(GroupError):
    """Operands belong to different groups."""


class RangeOverflowError(GroupError):
    """Exact integer arithmetic exceeded the configured bit-width cap."""


class InvalidElementError(GroupError):
    """A raw payload does not describe an element of the group."""


class TableGroupError(GroupError):
    """A multiplication table violates the group axioms."""


class Codec(NamedTuple):
    """Element codes, injective on the products of at most ``radius`` of ``payloads``.

    ``step(code, codes[i])`` codes the product by ``payloads[i]``, and
    ``step_all(codes, s)`` gives ``step(code, s)`` for each code of a collection
    (a list, or a ball's ``dist``), at C speed where the group can; ``encode`` maps a payload to its code (None
    outside the coded range), ``decode`` back, and ``texts`` maps codes, in bulk,
    to the ``format_payload`` texts of their payloads, which writers of element
    text (CSV exports) call without building the payloads where the group can."""

    codes: list
    step: Callable[[Any, Any], Any]
    step_all: Callable[[Collection[Any], Any], Iterable[Any]]
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    texts: Callable[[Iterable[Any]], Iterator[str]]


def _same(x: Any) -> Any:
    return x


def _add_all(codes: Collection[int], s: int) -> Iterator[int]:
    """``code + s`` for each code: the whole-list step of additive int codes."""
    return map(add, codes, repeat(s))


def json_int(value: Any) -> int:
    """A JSON integer or decimal string as an int; ValueError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"integer expected, got {value!r}")
    return int(value)


def json_field(doc: dict, key: str, kind: Any = object) -> Any:
    """``doc[key]``; ValueError if the key is missing or its value is not a ``kind``."""
    value = doc.get(key)
    if key not in doc or not isinstance(value, kind):
        raise ValueError(f"{doc['schema']} document: {key!r} missing or of the wrong type")
    return value


def _set_bits(group: "Group", bits: int) -> None:
    """Give a capped integer group its ``bits`` and payload cap."""
    if not isinstance(bits, int) or bits < 8 or bits > 1024 or bits % 8:
        raise ValueError(f"bit-width cap must be a multiple of 8 in [8, 1024], got {bits}")
    group.bits, group._cap = bits, (1 << (bits - 1)) - 1


class Group(ABC):
    """Descriptor plus element algebra for one concrete group.

    Subclasses operate on canonical payloads (hashable Python values).
    ``mul_payload``/``inv_payload`` assume canonical inputs and return
    canonical outputs; arbitrary input enters through ``canonical_payload``.
    """

    variant: ClassVar[str]
    # every class that names a variant, by that name
    variants: ClassVar[dict[str, type["Group"]]] = {}
    # group.v1 parameter fields, each an integer attribute: name -> default (None: required)
    params: ClassVar[dict[str, Optional[int]]] = {}
    # separates the tokens of a --gens list, as ";" always does
    gens_separator: ClassVar[str] = ","

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "variant" in vars(cls):
            Group.variants[cls.variant] = cls

    @abstractmethod
    def order(self) -> Optional[int]:
        """Group order, or None for infinite groups."""

    @abstractmethod
    def identity_payload(self) -> Any: ...

    @abstractmethod
    def canonical_payload(self, raw: Any) -> Any: ...

    @abstractmethod
    def mul_payload(self, p: Any, q: Any) -> Any: ...

    @abstractmethod
    def inv_payload(self, p: Any) -> Any: ...

    # Whole-list arithmetic: the maps and the fold of mul_payload and inv_payload,
    # which a group whose payloads are ints overrides with a pass at C speed.
    # Inputs are collections (lists, arrays, a ball's dist), never iterators: an
    # override may read them twice.

    def products(self, ps: Sequence[Any], qs: Sequence[Any]) -> list:
        """``mul_payload(p, q)`` for each pair of ``zip(ps, qs)``."""
        return list(map(self.mul_payload, ps, qs))

    def inverses(self, ps: Sequence[Any]) -> list:
        """``inv_payload(p)`` for each p of ``ps``."""
        return list(map(self.inv_payload, ps))

    def prefix_products(self, steps: Sequence[Any]) -> list:
        """The product of the first i of ``steps`` for i = 0..len(steps)."""
        return list(accumulate(steps, self.mul_payload, initial=self.identity_payload()))

    def format_payload(self, p: Any) -> str:
        return str(p)

    def _key(self) -> tuple:
        return (self.variant, *(getattr(self, k) for k in self.params))

    def elements(self) -> Iterator["GroupElement"]:
        """All elements in canonical enumeration order (finite groups only)."""
        raise GroupError(f"cannot enumerate an infinite group ({self.variant})")

    def integer_code(self, payloads: Sequence[Any], radius: int) -> Codec:
        """A ``Codec`` for products of at most ``radius`` of ``payloads``: an int code
        where the group has one that neither overflows nor outgrows the payloads,
        else the identity codec (codes are payloads, ``step`` is ``mul_payload``)."""
        return Codec(list(payloads), self.mul_payload, self._step_all, _same, _same,
                     partial(map, self.format_payload))

    def _step_all(self, codes: Collection[Any], s: Any) -> list:
        return self.products(codes, [s] * len(codes))

    # Formats; the defaults suit integer payloads.

    def params_to_json(self) -> dict:
        """The ``group.v1`` parameter fields, integers as decimal strings."""
        return {k: str(getattr(self, k)) for k in self.params}

    @classmethod
    def params_from_json(cls, doc: dict) -> "Group":
        """The group of a ``group.v1`` document of this variant."""
        return cls(**{
            k: json_int(json_field(doc, k) if d is None else doc.get(k, d))
            for k, d in cls.params.items()
        })

    # The JSON value of a payload; ``str`` itself, so a map over payloads runs in C.
    payload_to_json: Callable[[Any], Any] = staticmethod(str)

    def payload_from_json(self, obj: Any) -> Any:
        """The payload of a JSON value; KeyError, TypeError or ValueError if malformed."""
        return self.canonical_payload(json_int(obj))

    def payload_from_token(self, token: str) -> Any:
        """The payload of a CLI element token; ValueError or GroupError if malformed."""
        return self.canonical_payload(int(token))

    def standard_gens(self) -> "GeneratingSet":
        raise ValueError(f"no standard generating set for {self!r}")

    def identity(self) -> "GroupElement":
        return GroupElement(self, self.identity_payload())

    def element(self, raw: Any) -> "GroupElement":
        return GroupElement(self, self.canonical_payload(raw))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Group) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class GroupElement:
    """Immutable element of a concrete group, hashable and comparable."""

    __slots__ = ("group", "payload", "_hash")

    def __init__(self, group: Group, payload: Any):
        self.group = group
        self.payload = payload
        self._hash = hash((group, payload))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.payload == other.payload and (
            self.group is other.group or self.group == other.group
        )

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """Canonical product; operands must share a group."""
        group = self.group
        if group is not other.group and group != other.group:
            raise MixedGroupError(f"operands from different groups: {group!r} vs {other.group!r}")
        return GroupElement(group, group.mul_payload(self.payload, other.payload))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group.inv_payload(self.payload))

    def is_identity(self) -> bool:
        return self.payload == self.group.identity_payload()

    def __str__(self) -> str:
        return self.group.format_payload(self.payload)

    def __repr__(self) -> str:
        return f"<{self.group.variant} {self}>"


class GeneratingSet:
    """Ordered list of distinct non-identity elements with display labels.

    Entries are stored exactly as given; metric computations always work
    with the symmetrized view, ``letters``: signed letter -> payload.
    """

    __slots__ = ("group", "entries", "labels", "letters")

    def __init__(self, entries: Sequence[GroupElement], labels: Optional[Sequence[str]] = None):
        entries = tuple(entries)
        if not entries:
            raise ValueError("generating set needs at least one entry (trivial groups excepted)")
        group = entries[0].group
        seen: set = set()
        for e in entries:
            if e.group is not group and e.group != group:
                raise MixedGroupError("generating set entries belong to different groups")
            if e.is_identity():
                raise ValueError("generating set must not contain the identity")
            if e.payload in seen:
                raise ValueError(f"duplicate generating set entry {e}")
            seen.add(e.payload)
        self.group = group
        self.entries = entries
        if labels is None:
            labels = tuple(group.format_payload(e.payload) for e in entries)
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != len(entries):
                raise ValueError("labels length does not match entries")
        self.labels = labels
        self.letters = letter_table(group, [e.payload for e in entries])

    @classmethod
    def empty(cls, group: Group) -> "GeneratingSet":
        """Empty generating set; valid only for the trivial group."""
        if group.order() != 1:
            raise ValueError("only the trivial group is generated by the empty set")
        obj = object.__new__(cls)
        obj.group = group
        obj.entries = ()
        obj.labels = ()
        obj.letters = {}
        return obj

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.entries)

    def symmetrized_letters(self) -> tuple[tuple[int, Any], ...]:
        """(signed letter, payload) pairs in deterministic neighbor order.

        Per entry the positive letter comes before the negative one; the
        BFS code relies on this order for reproducible parents.
        """
        return tuple(self.letters.items())

    def letter_label(self, letter: int) -> str:
        idx = abs(letter) - 1
        base = self.labels[idx]
        return base if letter > 0 else base + "^-1"

    def symmetrized_payloads(self) -> frozenset:
        """Set of payloads of entries and their inverses."""
        return frozenset(self.letters.values())


def letter_table(group: Group, payloads: Sequence[Any]) -> dict:
    """Signed letter -> payload: +i is ``payloads[i-1]``, -i its inverse, +i before -i."""
    table: dict = {}
    for i, p in enumerate(payloads, 1):
        table[i] = p
        table[-i] = group.inv_payload(p)
    return table


def fold_word(word: Sequence[int], table: dict, mul: Callable[[Any, Any], Any], acc: Any) -> Any:
    """Right-multiply ``acc`` by each letter's table payload; ValueError on a missing letter."""
    for letter in word:
        step = table.get(letter)
        if step is None:
            raise ValueError(f"word letter {letter} out of range for {len(table) // 2} generators")
        acc = mul(acc, step)
    return acc


def evaluate_word(word: Sequence[int], gens: GeneratingSet) -> GroupElement:
    """Product of the indicated generators/inverses, left to right."""
    group = gens.group
    acc = fold_word(word, gens.letters, group.mul_payload, group.identity_payload())
    return GroupElement(group, acc)


def invert_word(word: Sequence[int]) -> Word:
    return tuple(-letter for letter in reversed(word))


# ---------------------------------------------------------------------------
# Concrete groups
# ---------------------------------------------------------------------------


class IntegerLine(Group):
    """The integers under addition, with a symmetric range cap."""

    variant = "integer_line"
    params = {"bits": 64}

    def __init__(self, bits: int = 64):
        _set_bits(self, bits)

    def order(self) -> Optional[int]:
        return None

    def identity_payload(self) -> int:
        return 0

    def canonical_payload(self, raw: Any) -> int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise InvalidElementError(f"integer payload required, got {raw!r}")
        if abs(raw) > self._cap:
            raise RangeOverflowError(f"|{raw}| exceeds the {self.bits}-bit cap")
        return raw

    def mul_payload(self, p: int, q: int) -> int:
        r = p + q
        if abs(r) > self._cap:
            raise RangeOverflowError(f"sum {p} + {q} exceeds the {self.bits}-bit cap")
        return r

    def inv_payload(self, p: int) -> int:
        return -p

    def _within_cap(self, out: list) -> bool:
        return not out or (-self._cap <= min(out) and max(out) <= self._cap)

    # Past the cap, the per-element path raises mul_payload's error at the first overflow.

    def products(self, ps: Sequence[int], qs: Sequence[int]) -> list:
        out = list(map(add, ps, qs))
        return out if self._within_cap(out) else super().products(ps, qs)

    def inverses(self, ps: Sequence[int]) -> list:
        return list(map(neg, ps))

    def prefix_products(self, steps: Sequence[int]) -> list:
        out = list(accumulate(steps, add, initial=0))
        return out if self._within_cap(out) else super().prefix_products(steps)

    def integer_code(self, payloads: Sequence[int], radius: int) -> Codec:
        # A product of at most radius steps stays within radius * max|step|.
        reach = radius * max(map(abs, payloads), default=0)
        if reach > self._cap:
            return super().integer_code(payloads, radius)
        return Codec(list(payloads), add, _add_all, lambda p: p if -reach <= p <= reach else None,
                     _same, partial(map, self.format_payload))

    def standard_gens(self) -> GeneratingSet:
        return GeneratingSet([self.element(1)], ["1"])

    def __repr__(self) -> str:
        return f"IntegerLine(bits={self.bits})"


class IntegerGrid(Group):
    """Free abelian group of finite rank (integer vectors under addition)."""

    variant = "integer_grid"
    params = {"rank": None, "bits": 64}
    gens_separator = ";"  # a token is comma-separated coordinates

    def __init__(self, rank: int, bits: int = 64):
        if not isinstance(rank, int) or not 1 <= rank <= 1024:  # rank R: R*R standard coordinates
            raise ValueError(f"rank must be an integer in [1, 1024], got {rank}")
        self.rank = rank
        _set_bits(self, bits)

    def order(self) -> Optional[int]:
        return None

    def identity_payload(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def canonical_payload(self, raw: Any) -> tuple[int, ...]:
        try:
            vec = tuple(raw)
        except TypeError:
            raise InvalidElementError(f"integer vector required, got {raw!r}") from None
        if len(vec) != self.rank:
            raise InvalidElementError(f"vector of rank {self.rank} required, got {raw!r}")
        out = []
        for c in vec:
            if isinstance(c, bool) or not isinstance(c, int):
                raise InvalidElementError(f"integer coordinates required, got {raw!r}")
            if abs(c) > self._cap:
                raise RangeOverflowError(f"|{c}| exceeds the {self.bits}-bit cap")
            out.append(c)
        return tuple(out)

    def mul_payload(self, p: tuple, q: tuple) -> tuple:
        out = []
        for a, b in zip(p, q):
            c = a + b
            if abs(c) > self._cap:
                raise RangeOverflowError(
                    f"coordinate sum {a} + {b} exceeds the {self.bits}-bit cap"
                )
            out.append(c)
        return tuple(out)

    def inv_payload(self, p: tuple) -> tuple:
        return tuple(-c for c in p)

    def integer_code(self, payloads: Sequence[tuple], radius: int) -> Codec:
        # v packs as sum of v[i] << (w * i): additive, and injective on the
        # box |v[i]| <= reach, where every product of radius steps lies.
        reach = radius * max((abs(c) for p in payloads for c in p), default=0)
        if reach > self._cap:
            return super().integer_code(payloads, radius)
        w = reach.bit_length() + 1
        shifts = range(0, w * self.rank, w)
        codes = [sum(c << s for c, s in zip(p, shifts)) for p in payloads]
        bias = sum(reach << s for s in shifts)
        mask = (1 << w) - 1

        def encode(p: tuple) -> Optional[int]:
            return sum(c << s for c, s in zip(p, shifts)) if max(map(abs, p)) <= reach else None

        def decode(code: int) -> tuple:
            code += bias
            return tuple(((code >> s) & mask) - reach for s in shifts)

        fmt = self.format_payload
        return Codec(codes, add, _add_all, encode, decode,
                     lambda codes: map(fmt, map(decode, codes)))

    def format_payload(self, p: tuple) -> str:
        return "(" + ",".join(str(c) for c in p) + ")"

    def payload_to_json(self, p: tuple) -> list:
        return [str(c) for c in p]

    def payload_from_json(self, obj: Any) -> tuple:
        return self.canonical_payload([json_int(c) for c in obj])

    def payload_from_token(self, token: str) -> tuple:
        return self.canonical_payload([int(c) for c in token.split(",")])

    def standard_gens(self) -> GeneratingSet:
        units = [[int(i == j) for j in range(self.rank)] for i in range(self.rank)]
        return GeneratingSet(map(self.element, units), [f"e{i + 1}" for i in range(self.rank)])

    def __repr__(self) -> str:
        return f"IntegerGrid(rank={self.rank}, bits={self.bits})"


class Cyclic(Group):
    """Cyclic group of order m, additive notation on residues 0..m-1."""

    variant = "cyclic"
    params = {"modulus": None}

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 1:
            raise ValueError(f"modulus must be a positive integer, got {modulus}")
        if modulus.bit_length() > 63:
            raise ValueError(f"modulus {modulus} too large")
        self.modulus = modulus

    def order(self) -> Optional[int]:
        return self.modulus

    def elements(self) -> Iterator[GroupElement]:
        for r in range(self.modulus):
            yield GroupElement(self, r)

    def identity_payload(self) -> int:
        return 0

    def canonical_payload(self, raw: Any) -> int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise InvalidElementError(f"integer payload required, got {raw!r}")
        return raw % self.modulus

    def mul_payload(self, p: int, q: int) -> int:
        return (p + q) % self.modulus

    def inv_payload(self, p: int) -> int:
        return (-p) % self.modulus

    # Sums as exact ints, each reduced mod m in the same pass at C speed.

    def products(self, ps: Sequence[int], qs: Sequence[int]) -> list:
        return list(map(mod, map(add, ps, qs), repeat(self.modulus)))

    def inverses(self, ps: Sequence[int]) -> list:
        return list(map(mod, map(neg, ps), repeat(self.modulus)))

    def prefix_products(self, steps: Sequence[int]) -> list:
        return list(map(mod, accumulate(steps, add, initial=0), repeat(self.modulus)))

    def standard_gens(self) -> GeneratingSet:
        if self.modulus == 1:
            return GeneratingSet.empty(self)
        return GeneratingSet([self.element(1)], ["1"])

    def __repr__(self) -> str:
        return f"Cyclic({self.modulus})"


class Dihedral(Group):
    """Dihedral group of order 2m: payload (rotation residue, reflection bit).

    (r, s) stands for rho^r * sigma^s with sigma rho sigma = rho^-1.
    """

    variant = "dihedral"
    params = {"m": None}

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 3:
            raise ValueError(f"dihedral parameter must be an integer >= 3, got {m}")
        self.m = m

    def order(self) -> Optional[int]:
        return 2 * self.m

    def elements(self) -> Iterator[GroupElement]:
        for s in (0, 1):
            for r in range(self.m):
                yield GroupElement(self, (r, s))

    def identity_payload(self) -> tuple[int, int]:
        return (0, 0)

    def canonical_payload(self, raw: Any) -> tuple[int, int]:
        try:
            r, s = raw
        except (TypeError, ValueError):
            raise InvalidElementError(
                f"(rotation, reflection) pair required, got {raw!r}"
            ) from None
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (r, s)):
            raise InvalidElementError(f"integer pair required, got {raw!r}")
        if s not in (0, 1):
            raise InvalidElementError(f"reflection bit must be 0 or 1, got {s}")
        return (r % self.m, s)

    def mul_payload(self, p: tuple, q: tuple) -> tuple:
        r1, s1 = p
        r2, s2 = q
        r = (r1 + (r2 if s1 == 0 else -r2)) % self.m
        return (r, s1 ^ s2)

    def inv_payload(self, p: tuple) -> tuple:
        r, s = p
        if s:
            return p
        return ((-r) % self.m, 0)

    def format_payload(self, p: tuple) -> str:
        r, s = p
        rot = f"r{r}" if r else ""
        return (rot + ("s" if s else "")) or "e"

    def payload_to_json(self, p: tuple) -> dict:
        r, s = p
        return {"rot": str(r), "ref": str(s)}

    def payload_from_json(self, obj: Any) -> tuple:
        return self.canonical_payload((json_int(obj["rot"]), json_int(obj["ref"])))

    def payload_from_token(self, token: str) -> tuple:
        # "r" / "r3" / "s" / "r2s"
        match = re.fullmatch(r"(?:r([-\d]*))?(s?)", token)
        if match is None:
            raise ValueError(f"cannot parse dihedral token {token!r}")
        rot, ref = match.groups()
        return self.canonical_payload((0 if rot is None else int(rot or 1), len(ref)))

    def standard_gens(self) -> GeneratingSet:
        return GeneratingSet([self.element((1, 0)), self.element((0, 1))], ["r", "s"])

    def __repr__(self) -> str:
        return f"Dihedral({self.m})"


class _ByteLamps(dict):
    """base -> its 256-entry table, built on first use: byte -> ``form`` of the
    tuple of lamps base + i, i a set bit, in increasing order."""

    def __init__(self, form: Callable[[tuple], tuple]):
        super().__init__()
        self.form = form

    def __missing__(self, base: int) -> tuple:
        self[base] = tuple(self.form(tuple(base + i for i in range(8) if x >> i & 1))
                           for x in range(256))
        return self[base]


class Lamplighter(Group):
    """Wreath product of the order-2 group by the integers.

    Payload is (lamps, cursor): a strictly sorted tuple of lit lamp
    positions and the cursor position.  Right multiplication by the
    standard generators shifts the cursor (t) or toggles the lamp under
    the cursor (a).
    """

    variant = "lamplighter"
    params = {"bits": 64}
    _standard = {"t": ((), 1), "a": ((0,), 0)}  # the standard generators, also tokens

    def __init__(self, bits: int = 64):
        _set_bits(self, bits)

    def order(self) -> Optional[int]:
        return None

    def identity_payload(self) -> tuple:
        return ((), 0)

    def canonical_payload(self, raw: Any) -> tuple:
        try:
            lamps, cursor = raw
        except (TypeError, ValueError):
            raise InvalidElementError(f"(lamps, cursor) pair required, got {raw!r}") from None
        if isinstance(cursor, bool) or not isinstance(cursor, int):
            raise InvalidElementError(f"integer cursor required, got {raw!r}")
        if abs(cursor) > self._cap:
            raise RangeOverflowError(f"|cursor {cursor}| exceeds the {self.bits}-bit cap")
        positions = []
        for p in lamps:
            if isinstance(p, bool) or not isinstance(p, int):
                raise InvalidElementError(f"integer lamp positions required, got {raw!r}")
            if abs(p) > self._cap:
                raise RangeOverflowError(f"|lamp {p}| exceeds the {self.bits}-bit cap")
            positions.append(p)
        canon = tuple(sorted(set(positions)))
        if len(canon) != len(positions):
            raise InvalidElementError(f"duplicate lamp positions in {raw!r}")
        return (canon, cursor)

    def mul_payload(self, p: tuple, q: tuple) -> tuple:
        lamps1, c1 = p
        lamps2, c2 = q
        cursor = c1 + c2
        if abs(cursor) > self._cap:
            raise RangeOverflowError(f"cursor sum {c1} + {c2} exceeds the {self.bits}-bit cap")
        shifted = []
        for pos in lamps2:
            s = pos + c1
            if abs(s) > self._cap:
                raise RangeOverflowError(
                    f"lamp position {pos} + {c1} exceeds the {self.bits}-bit cap"
                )
            shifted.append(s)
        lamps = tuple(sorted(set(lamps1).symmetric_difference(shifted)))
        return (lamps, cursor)

    def inv_payload(self, p: tuple) -> tuple:
        lamps, c = p
        inverse = tuple(sorted(pos - c for pos in lamps))
        if inverse and max(-inverse[0], inverse[-1]) > self._cap:
            pos = next(pos for pos in lamps if abs(pos - c) > self._cap)
            raise RangeOverflowError(f"lamp position {pos} - {c} exceeds the {self.bits}-bit cap")
        return (inverse, -c)

    def integer_code(self, payloads: Sequence[tuple], radius: int) -> Codec:
        # Within radius steps the cursor stays in [-span, span], every lamp in
        # [-reach, reach]: (lamps, c) codes as lamp bits w + q + reach above a
        # w-bit field c + span.  A step xors its lamps in at the cursor, adds c.
        # Codes take w + 2 * reach + 1 bits, lit or not: too wide, take payloads.
        span = radius * max((abs(c) for _, c in payloads), default=0)
        reach = span + max((abs(q) for lamps, _ in payloads for q in lamps), default=0)
        w = (2 * span).bit_length()
        if reach > self._cap or w + 2 * reach + 1 > self.bits * (radius + 1):
            return super().integer_code(payloads, radius)
        field = (1 << w) - 1
        codes = [(sum(1 << (w + reach - span + q) for q in lamps), c) for lamps, c in payloads]

        def step(code: int, letter: tuple) -> int:
            mask, c = letter
            return (code ^ (mask << (code & field))) + c

        def step_all(codes: Collection[int], letter: tuple) -> Iterable[int]:
            mask, c = letter
            if mask:
                codes = map(xor, codes, map(lshift, repeat(mask), map(and_, codes, repeat(field))))
            return map(add, codes, repeat(c)) if c else codes

        def encode(p: tuple) -> Optional[int]:
            lamps, c = p
            inside = abs(c) <= span and (not lamps or -reach <= lamps[0] <= lamps[-1] <= reach)
            return sum(1 << (w + reach + q) for q in lamps) + c + span if inside else None

        # decode and text walk the mask alike; join makes the lamps a tuple or text
        def reader(lamps_of_byte: _ByteLamps, join: Callable) -> Callable:
            def read(code: int) -> tuple:
                # a byte at a time from the lowest lit one; bit 0 of the mask is lamp -reach
                lamps, mask = [], code >> w
                if mask:
                    low = ((mask & -mask).bit_length() - 1) & -8
                    mask >>= low
                    base = low - reach
                    while mask:
                        lamps += lamps_of_byte[base][mask & 255]
                        mask >>= 8
                        base += 8
                return join(lamps), (code & field) - span

            return read

        decode = reader(_ByteLamps(_same), tuple)

        def texts(codes: Iterable[int]) -> Iterator[str]:
            # Many codes share a lamp mask: its "{...}@" is rendered once per call.
            # The heads, and the tables they are read through (a lit byte's lamps as
            # one fragment: 256 strings, not 1,024), are forgotten after the call,
            # so no codec holds text.
            lamp_text = reader(_ByteLamps(lambda q: (" ".join(map(str, q)),) if q else ()),
                               " ".join)
            heads: dict = {}
            for code in codes:
                head = heads.get(code >> w)
                if head is None:
                    head = heads[code >> w] = "{" + lamp_text(code)[0] + "}@"
                yield head + str((code & field) - span)

        return Codec(codes, step, step_all, encode, decode, texts)

    def format_payload(self, p: tuple) -> str:
        lamps, c = p
        return "{" + " ".join(map(str, lamps)) + "}@" + str(c)

    def payload_to_json(self, p: tuple) -> dict:
        lamps, cursor = p
        return {"lamps": [str(q) for q in lamps], "cursor": str(cursor)}

    def payload_from_json(self, obj: Any) -> tuple:
        return self.canonical_payload((tuple(map(json_int, obj["lamps"])), json_int(obj["cursor"])))

    def payload_from_token(self, token: str) -> tuple:
        # "t", "a", or "lamps@cursor" with lamps dot-separated, e.g. "-1.0.1@0"
        if token in self._standard:
            return self._standard[token]
        lamps, _, cursor = token.partition("@")
        positions = tuple(int(q) for q in lamps.split(".") if q)
        return self.canonical_payload((positions, int(cursor or "0")))

    def standard_gens(self) -> GeneratingSet:
        return GeneratingSet(map(self.element, self._standard.values()), tuple(self._standard))

    def __repr__(self) -> str:
        return f"Lamplighter(bits={self.bits})"


class TableRows(list):
    """``group.v1`` table rows decoded as int tuples, which ``params_from_json`` keeps and
    ``TableGroup`` reads without a pass over the cell types."""


def table_row_ints(m: int) -> Callable[[Sequence], tuple]:
    """A table row as json_int reads its cells, at C speed where all are id strings of 0..m-1."""
    ids = {str(i): i for i in range(m)}.__getitem__  # not json_int(): 270k cells at order 520

    def row_ints(row: Sequence) -> tuple:
        try:
            return tuple(map(ids, row))
        except (KeyError, TypeError):
            return tuple(map(_table_cell, row))  # a JSON int, "05", a bad cell

    return row_ints


def _table_cell(cell: Any) -> int:
    """``json_int(cell)``; a cell that int() rejects too is named in int()'s words."""
    if isinstance(cell, bool) or not isinstance(cell, (int, str)):  # int() reads True and 0.9
        try:
            int(cell)
        except TypeError as exc:
            raise ValueError(f"group.v1 table cells must be integers: {exc}") from None
        except (ValueError, OverflowError):  # NaN, Infinity
            pass
        raise ValueError(f"group.v1 table cells must be integers, got {cell!r}")
    return int(cell)


class TableGroup(Group):
    """Finite group given by an explicit multiplication table on ids 0..m-1.

    The table is checked on load; the first failure, in this order, raises a
    ``TableGroupError`` that names it:
    - the table is non-empty and square;
    - every cell is an id in 0..m-1 (names the first bad cell in row order);
    - the identity id is in range and a two-sided identity;
    - rows and columns are permutations (names the first failing line in
      the order row 0, column 0, row 1, column 1, ...);
    - associativity, by Light's test on a generating set, conclusive at
      every order (names the first failing (x, g, y): generators in the
      order they were picked, after dropping each pick the others generate
      without, then x, then y).
    The checks run in another order: the cells, the identity, Light's test,
    then each row's identity cell, which is that element's right inverse.  An
    associative table with a two-sided identity and right inverses is a group,
    whose rows and columns are permutations, so the line checks run only after
    a failure, to name it.  They read a whole line at a time at C speed, and
    one pass yields the index of the first failing row and column.  Light's
    pick gives up, and the line checks run first, as soon as the picks cannot
    be a group's: more than log2 m of them, or a closure whose size does not
    divide m.  Unguarded, a table that is no Latin square could take about m
    picks, each a BFS over the closure so far.
    """

    variant = "table"

    def __init__(self, table: Sequence[Sequence[int]], identity_id: int, name: str = "table"):
        rows = tuple(map(tuple, table))  # a tuple row is kept as it is, not copied
        m = len(rows)
        if m == 0:
            raise TableGroupError("empty multiplication table")
        if any(len(row) != m for row in rows):
            raise TableGroupError("multiplication table must be square")
        # the cell types, then the distinct cells, at C speed; decoded rows hold exact ints
        exact = isinstance(table, TableRows) or set(map(type, chain.from_iterable(rows))) == {int}
        distinct = set(chain.from_iterable(rows)) if exact else ()
        if not exact or min(distinct) < 0 or max(distinct) >= m:
            x = next(x for row in rows for x in row if type(x) is not int or not 0 <= x < m)
            raise TableGroupError(f"table entry {x!r} is not an id in 0..{m - 1}")
        if type(identity_id) is not int or not 0 <= identity_id < m:
            raise TableGroupError(f"identity id {identity_id!r} out of range")
        self.table = rows
        self.identity_id = identity_id
        self.name = str(name)
        self._m = m
        self._inverse = self._validate_axioms()
        self._hash = hash((self.variant, rows, identity_id))

    def _validate_axioms(self) -> tuple:
        """Each id's inverse, once the table is proved a group with identity e."""
        m, e, t = self._m, self.identity_id, self.table
        for x in range(m):
            if t[e][x] != x or t[x][e] != x:
                raise TableGroupError(f"id {e} is not a two-sided identity")
        gens = self._generators(guarded=True)
        failure = None if gens is None else self._associativity_failure(gens)
        if gens is not None and failure is None:
            with suppress(ValueError):  # a row without e names a line below
                return tuple(row.index(e) for row in t)
        # every cell is an id, so a line of m distinct cells is a permutation;
        # the first failing row and column (m if none), the columns from a
        # lazy zip, one tuple at a time
        short = m.__ne__
        r = next(compress(count(), map(short, map(len, map(set, t)))), m)
        c = next(compress(count(), map(short, map(len, map(set, zip(*t))))), m)
        if r < m and r <= c:  # row x is checked before column x
            raise TableGroupError(f"row {r} is not a permutation")
        if c < m:
            raise TableGroupError(f"column {c} is not a permutation")
        # a Latin square with an identity that is not a group fails Light's test
        failure = failure or self._associativity_failure(self._generators(guarded=False))
        raise TableGroupError(f"associativity fails at {failure}")

    def _generators(self, guarded: bool) -> Optional[list[int]]:
        """Light's generating set: each id not yet generated by right-multiplication
        BFS from the identity is picked, in id order, until all m ids are reached;
        then each pick the others generate without is dropped.  None, if guarded,
        once the picks are not a group's: in a group each pick at least doubles the
        closure, a subgroup, so there are at most log2 m and each closure divides m."""
        from .cayley import bfs_layers

        m, e = self._m, self.identity_id

        def closure(gens: list[int]) -> dict:
            seen = {e: 0}
            for _ in bfs_layers(self.mul_payload, list(enumerate(gens, 1)), e, seen):
                pass
            return seen

        gens: list[int] = []
        reached = {e: 0}
        for cand in range(m):
            if cand in reached:
                continue
            gens.append(cand)
            reached = closure(gens)
            if guarded and (m % len(reached) or 2 ** len(gens) > m):
                return None
            if len(reached) == m:
                break
        for g in gens[:-1]:  # the last pick is never generated by the earlier ones
            others = [h for h in gens if h != g]
            if len(closure(others)) == m:
                gens = others
        return gens

    def _associativity_failure(self, gens: list[int]) -> Optional[tuple[int, int, int]]:
        """Light's test: the first (x, g, y) with x*(g*y) != (x*g)*y, g in ``gens``;
        None if there is none, which proves associativity once ``gens`` generate."""
        m, t = self._m, self.table
        # x*(g*y) == (x*g)*y for all y at once: itemgetter composes row x
        # with row g at C speed (m >= 2 where gens is non-empty, so it returns a tuple).
        for g in gens:
            after_g = itemgetter(*t[g])
            for x in range(m):
                row = after_g(t[x])
                expected = t[t[x][g]]
                if row != expected:
                    return x, g, next(y for y in range(m) if row[y] != expected[y])
        return None

    def order(self) -> Optional[int]:
        return self._m

    def elements(self) -> Iterator[GroupElement]:
        for x in range(self._m):
            yield GroupElement(self, x)

    def identity_payload(self) -> int:
        return self.identity_id

    def canonical_payload(self, raw: Any) -> int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise InvalidElementError(f"element id required, got {raw!r}")
        if not 0 <= raw < self._m:
            raise InvalidElementError(f"element id {raw} out of range 0..{self._m - 1}")
        return raw

    def mul_payload(self, p: int, q: int) -> int:
        return self.table[p][q]

    def inv_payload(self, p: int) -> int:
        return self._inverse[p]

    # Row lookups, then cell lookups, in the same pass at C speed.

    def products(self, ps: Sequence[int], qs: Sequence[int]) -> list:
        return list(map(getitem, map(self.table.__getitem__, ps), qs))

    def inverses(self, ps: Sequence[int]) -> list:
        return list(map(self._inverse.__getitem__, ps))

    def params_to_json(self) -> dict:
        texts = [str(x) for x in range(self._m)]  # each id's text once
        table = [list(map(texts.__getitem__, row)) for row in self.table]
        return {"name": self.name, "identity": str(self.identity_id), "table": table}

    @classmethod
    def params_from_json(cls, doc: dict) -> "TableGroup":
        """The group of a ``group.v1`` document, whose table rows become int tuples in place."""
        rows = json_field(doc, "table", list)
        if not isinstance(rows, TableRows):
            if not all(isinstance(row, (list, tuple)) for row in rows):
                raise ValueError("group.v1 table rows must be lists")
            row_ints = table_row_ints(len(rows))
            for i, row in enumerate(rows):  # in place: each row's strings go as its ints come
                rows[i] = row_ints(row)
            rows = TableRows(rows)
        return cls(rows, json_int(json_field(doc, "identity")), name=doc.get("name", "table"))

    def _key(self) -> tuple:
        return (self.variant, self.table, self.identity_id)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TableGroup({self.name!r}, order={self._m})"


def standard_gens(group: Group) -> GeneratingSet:
    """Conventional generating set for groups that have one; ValueError otherwise."""
    return group.standard_gens()
