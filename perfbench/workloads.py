"""The benchmark's workloads: seeded inputs, operations and pinned checks.

Four groups of operations are each built by a function ``(workdir, seed) ->
Workload``.  Building one writes its generated input files (the program
receives nothing else) and returns its operations in the order the closed
loop runs them.  Every operation carries a check of its semantic result;
report bytes are not pinned, so reports may gain fields without failing a
check.

The benchmark runs two workloads of two groups each, so that a run can be
long enough to be steady on a shared host within the benchmark's time
budget: ``certs_tables`` is certificate-bound (construct_cyclic) plus the
cache and table inputs (cache_tables); ``bfs_depth`` is BFS-bound
(construct_grid_word) plus the ball-wide depth search
(lamplighter_profile).  A certificate change moves the first and not the
second; a BFS or depth change moves the second and barely the first.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import random
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

# (target depth, bound mode, |A|, neighbourhood size) for Z -> C_{4D-2}.
CYCLIC_PINS = [
    (3, "paper", 15, 117),
    (3, "tight", 7, 53),
    (4, "paper", 21, 367),
    (4, "tight", 9, 151),
    (5, "paper", 27, 841),
    (5, "tight", 11, 329),
]
# SHA-256 over the newline-joined certificate digests of all verify runs, in order.
CYCLIC_CERT_DIGEST = "508c5712cbc76527e75228f84330093dbab0592d5b31291716299d0576db6a95"
# (modulus of the cyclic target, |A|, neighbourhood size) for Z^2 -> C_m, images 1,1, D=2, tight.
GRID_PINS = [(8, 64, 129), (10, 54, 109)]
# (target depth, quotient order, |A|, neighbourhood size) of construct --quotient-mode paper_safe.
PAPER_SAFE_PIN = (3, 243, 3, 21)
GRID_CERT_DIGEST = "4d620c5c12b9d807fb73295fea369ecc2226c6482f3beca3770350710e72fb40"

LAMP_RADIUS = 15
LAMP_ELEMENTS = 19_238
LAMP_MAX_DEPTH_BY_NORM = [
    "1", "1", "1", "1", "1", "1", "1", "3", "1", "3", "3",
    "3", "3", "5", "3", "5",
]
LAMP_CSV_SHA256 = "d9f3142a40fc0e560401181cca1d4f17bbb9631b0eabec873eaa9f05136d43c6"

CACHE_BALLS = [("lamplighter", "t,a", 14, 11_609), ("zz", "2,3", 5_000, 30_001)]
CACHE_REPEATS = 4  # one miss, then three hits
DIHEDRAL_M = 260  # order 520: above the order where associativity is only sampled
DIHEDRAL_DIAMETER = DIHEDRAL_M // 2 + 1
HEISENBERG_Q = 7  # unitriangular 3x3 matrices over Z/7: order 343


Check = Callable[[Any, dict], Optional[str]]


@dataclass
class Op:
    """One closed-loop operation: CLI arguments, or a library call."""

    name: str
    check: Check
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], Any]] = None


@dataclass
class Workload:
    ops: list[Op]
    inputs: list[Path] = field(default_factory=list)  # the generated input files


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _problems(*pairs: tuple[str, Any, Any]) -> Optional[str]:
    bad = [f"{what}: got {got!r}, expected {want!r}" for what, got, want in pairs if got != want]
    return "; ".join(bad) or None


# -- construct_cyclic / construct_grid_word ------------------------------------


def _verify_check(a_size: int, nbhd: int, digest_key: str, final: Optional[str]) -> Check:
    """Pinned |A|, neighbourhood, every certificate valid; collects digests.

    ``final`` is the pinned digest over every verify run of the workload,
    checked on its last verify run.
    """

    def check(doc: dict, state: dict) -> Optional[str]:
        res = doc["results"]
        rows = res["verification_table"]
        digests = state.setdefault(digest_key, [])
        digests.extend(str(row["certificate_digest"]) for row in rows)
        pairs = [
            ("passed", res["passed"], True),
            ("|A|", res["generating_set_size"], a_size),
            ("neighbourhood", res["neighborhood_size"], nbhd),
            ("table rows", len(rows), nbhd),
            ("failed certificates", sum(not row["certificate_ok"] for row in rows), 0),
        ]
        if final is not None:
            joined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
            pairs.append(("certificate digest", joined, final))
        return _problems(*pairs)

    return check


def construct_cyclic(workdir: Path, seed: int) -> Workload:
    ops = []
    for i, (d, mode, a_size, nbhd) in enumerate(CYCLIC_PINS):
        last = i == len(CYCLIC_PINS) - 1
        ops.append(Op(
            f"verify-C{4 * d - 2}-D{d}-{mode}",
            _verify_check(a_size, nbhd, "cyclic digests", CYCLIC_CERT_DIGEST if last else None),
            argv=["verify", "--group", "zz", "--gens", "1", "--quotient", f"cyclic:{4 * d - 2}",
                  "--target-depth", str(d), "--bound-mode", mode],
        ))

    d, order, a_size, nbhd = PAPER_SAFE_PIN

    def paper_safe(doc: dict, state: dict) -> Optional[str]:
        res = doc["results"]
        return _problems(
            ("passed", res["passed"], True),
            ("quotient order", res["quotient_order"], order),
            ("|A|", res["generating_set_size"], a_size),
            ("neighbourhood", res["neighborhood_size"], nbhd),
        )

    ops.append(Op(
        f"construct-paper_safe-D{d}",
        paper_safe,
        argv=["construct", "--group", "zz", "--gens", "1", "--quotient", "cyclic",
              "--quotient-mode", "paper_safe", "--target-depth", str(d)],
    ))
    return Workload(ops)


def construct_grid_word(workdir: Path, seed: int) -> Workload:
    ops, inputs = [], []
    for i, (modulus, a_size, nbhd) in enumerate(GRID_PINS):
        last = i == len(GRID_PINS) - 1
        q_path = workdir / f"q{modulus}.json"
        doc = {
            "schema": "quotient.v1",
            "target": {"schema": "group.v1", "variant": "cyclic", "modulus": str(modulus)},
            "images": ["1", "1"],
        }
        q_path.write_text(json.dumps(doc), encoding="utf-8")
        inputs.append(q_path)
        ops.append(Op(
            f"verify-grid2-C{modulus}-D2-tight",
            _verify_check(a_size, nbhd, "grid digests", GRID_CERT_DIGEST if last else None),
            argv=["verify", "--group", "grid:2", "--gens", "1,0;0,1", "--quotient", f"@{q_path}",
                  "--target-depth", "2", "--bound-mode", "tight"],
        ))
    return Workload(ops, inputs)


# -- lamplighter_profile --------------------------------------------------------


def lamplighter_profile(workdir: Path, seed: int) -> Workload:
    csv_path = workdir / "lamplighter.csv"

    def check(doc: dict, state: dict) -> Optional[str]:
        res = doc["results"]
        return _problems(
            ("elements", res["elements"], LAMP_ELEMENTS),
            ("max_depth_by_norm", res["max_depth_by_norm"], LAMP_MAX_DEPTH_BY_NORM),
            ("CSV SHA-256", sha256_file(csv_path), LAMP_CSV_SHA256),
        )

    op = Op(
        f"profile-lamplighter-R{LAMP_RADIUS}",
        check,
        argv=["profile", "--group", "lamplighter", "--gens", "t,a", "--radius", str(LAMP_RADIUS),
              "--cap", "64", "--csv", str(csv_path)],
    )
    return Workload([op])


# -- cache_tables -----------------------------------------------------------------


def write_table(path: Path, name: str, order: int, row_of: Callable[[int], Sequence[int]],
                rng: random.Random) -> list[int]:
    """Write a ``group.v1`` table for a group on 0..order-1 under a random relabelling.

    ``row_of(a)`` lists the products a*b for b = 0..order-1.  Returns the
    relabelling (natural id -> written id).
    """
    label = list(range(order))
    rng.shuffle(label)
    natural = [0] * order  # written id -> natural id
    for i, x in enumerate(label):
        natural[x] = i
    text = [str(x) for x in label]
    in_written_order = itemgetter(*natural)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"schema":"group.v1","variant":"table","name":"%s","identity":"%d","table":['
                 % (name, label[0]))
        for j, a in enumerate(natural):
            row = in_written_order(itemgetter(*row_of(a))(text))
            fh.write(("[" if j == 0 else ",[") + '"' + '","'.join(row) + '"]')
        fh.write("]}")
    return label


def dihedral_rows(m: int) -> Callable[[int], list[int]]:
    """Rows of D_m with r^k -> k and r^k s -> m + k."""
    twice = list(range(m)) * 2

    def row_of(a: int) -> list[int]:
        k, s = a % m, a // m
        rot = twice[k:k + m] if s == 0 else twice[k + 1:k + m + 1][::-1]
        shifted = [x + m for x in rot]
        return rot + shifted if s == 0 else shifted + rot

    return row_of


def heisenberg_rows(q: int) -> Callable[[int], list[int]]:
    """Rows of the Heisenberg group mod q, (x, y, z) -> x + q*y + q*q*z."""

    def row_of(a: int) -> list[int]:
        x, y, z = a % q, a // q % q, a // (q * q)
        return [(x + x2) % q + q * ((y + y2) % q) + q * q * ((z + z2 + x * y2) % q)
                for z2 in range(q) for y2 in range(q) for x2 in range(q)]

    return row_of


def _depth_oracle_rows(table_path: Path, gen_ids: Sequence[int]) -> dict:
    # Looked up in the modules at call time, so a traced run sees the wrappers.
    # (The package attribute ``deadend.depth`` is the function, not the module.)
    depth = importlib.import_module("deadend.depth")
    groups = importlib.import_module("deadend.groups")
    serialize = importlib.import_module("deadend.serialize")

    group = serialize.group_from_json(json.loads(table_path.read_text(encoding="utf-8")))
    gens = groups.GeneratingSet([group.element(g) for g in gen_ids])
    profile = depth.depth_oracle(group, gens)
    return {str(p): (norm, dv.render()) for p, norm, dv in profile.rows()}


def _cached_ball_check(key: str, elements: int) -> Check:
    """Pinned size; every call returns the sphere sizes of the first (the miss)."""

    def check(doc: dict, state: dict) -> Optional[str]:
        sizes = doc["results"]["sphere_sizes"]
        first = state.setdefault(key, sizes)
        return _problems(
            ("elements", doc["results"]["elements"], elements),
            ("sphere sizes equal the first call's", sizes == first, True),
        )

    return check


def cache_tables(workdir: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    dihedral_path = workdir / "dihedral.json"
    heisenberg_path = workdir / "heisenberg.json"
    label = write_table(dihedral_path, f"D{DIHEDRAL_M}", 2 * DIHEDRAL_M, dihedral_rows(DIHEDRAL_M), rng)
    r, s = label[1], label[DIHEDRAL_M]
    label = write_table(heisenberg_path, f"H{HEISENBERG_Q}", HEISENBERG_Q ** 3,
                        heisenberg_rows(HEISENBERG_Q), rng)
    x, y = label[1], label[HEISENBERG_Q]
    cache_dir = workdir / "cache"
    profile_csv = workdir / "heisenberg.csv"

    ops = []
    for group, gens, radius, elements in CACHE_BALLS:
        for i in range(CACHE_REPEATS):
            ops.append(Op(
                f"ball-{group}-R{radius}-{'miss' if i == 0 else 'hit'}{i}",
                _cached_ball_check(group, elements),
                argv=["ball", "--group", group, "--gens", gens, "--radius", str(radius),
                      "--cache-dir", str(cache_dir)],
            ))

    def diameter_check(doc: dict, state: dict) -> Optional[str]:
        res = doc["results"]
        return _problems(("order", res["order"], 2 * DIHEDRAL_M),
                         ("diameter", res["diameter"], DIHEDRAL_DIAMETER))

    ops.append(Op(
        f"diameter-table-D{DIHEDRAL_M}",
        diameter_check,
        argv=["diameter", "--group", f"table:{dihedral_path}", "--gens", f"{r},{s}"],
    ))

    def profile_check(doc: dict, state: dict) -> Optional[str]:
        return _problems(("elements", doc["results"]["elements"], HEISENBERG_Q ** 3))

    ops.append(Op(
        f"profile-table-H{HEISENBERG_Q}",
        profile_check,
        argv=["profile", "--group", f"table:{heisenberg_path}", "--gens", f"{x},{y}",
              "--radius", "64", "--cap", "64", "--csv", str(profile_csv)],
    ))

    def oracle_check(oracle: dict, state: dict) -> Optional[str]:
        with open(profile_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        profile = {e: (int(n), d) for e, n, d in rows}
        return _problems(("profile CSV equals depth_oracle", profile == oracle, True))

    ops.append(Op(
        f"depth_oracle-table-H{HEISENBERG_Q}",
        oracle_check,
        call=lambda: _depth_oracle_rows(heisenberg_path, (x, y)),
    ))
    return Workload(ops, [dihedral_path, heisenberg_path])


def _combined(*groups: Callable[[Path, int], Workload]) -> Callable[[Path, int], Workload]:
    def build(workdir: Path, seed: int) -> Workload:
        built = [group(workdir, seed) for group in groups]
        return Workload([op for w in built for op in w.ops], [p for w in built for p in w.inputs])

    return build


WORKLOADS = {
    "certs_tables": _combined(construct_cyclic, cache_tables),
    "bfs_depth": _combined(construct_grid_word, lamplighter_profile),
}
