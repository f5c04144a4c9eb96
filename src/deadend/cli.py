"""Command-line front end: constructions, depth queries, balls, reports.

Subcommands: construct, verify, certify, depth, profile, ball, diameter.
Every run writes a JSON report (stdout or --out) that echoes the exact
inputs and parameters, so any claim in a report can be re-checked from
the report alone.  Exit codes: 0 all checks passed, 2 parse/validation
error or unwritable output path, 3 budget exhausted, 4 verification failure.

Two tables define the command line: ``_FLAGS`` gives each flag's type (or
choices) and default, and its name is the flag's --config key;
``_COMMANDS`` gives each subcommand's help, handler and own flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Optional, Sequence

from . import __version__
from .cayley import Ball, Budget, BudgetExceededError, ball_cached, ball_to_csv
from .construction import (
    CertificateError,
    Construction,
    ConstructionError,
    VerificationError,
    required_n,
)
from .depth import depth, depth_profile
from .groups import (
    Cyclic,
    Dihedral,
    GeneratingSet,
    Group,
    GroupElement,
    GroupError,
    IntegerGrid,
    IntegerLine,
    Lamplighter,
    standard_gens,
)
from .quotient import (
    QuotientMap,
    cyclic_quotient,
    diameter,
    find_quotient,
)
from .serialize import (
    content_hash,
    genset_from_json,
    group_from_json,
    payload_from_json,
    table_doc_from_text,
)

REPORT_SCHEMA = "run-report.v1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFICATION = 4


class UsageError(Exception):
    """Bad flag values, unreadable files, malformed specs."""


# -- input parsing -----------------------------------------------------------


def parse_group(spec: str) -> Group:
    spec = spec.strip()
    if spec == "zz":
        return IntegerLine()
    if spec == "lamplighter":
        return Lamplighter()
    if ":" in spec:
        kind, _, arg = spec.partition(":")
        if kind == "grid":
            return IntegerGrid(int(arg))
        if kind == "cyclic":
            return Cyclic(int(arg))
        if kind == "dihedral":
            return Dihedral(int(arg))
        if kind == "table":
            return group_from_json(_read_json(arg))
    raise UsageError(f"unrecognized group spec {spec!r}")


def _no_float(token: str) -> Any:
    raise ValueError(f"non-integer number {token}")


def _read_json(path: str) -> Any:
    """A JSON document whose numbers are all integers; an object's top-level ``table``
    decoded a row at a time."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        hooks = {"parse_float": _no_float, "parse_constant": _no_float}
        return table_doc_from_text(text, json.JSONDecoder(**hooks)) or json.loads(text, **hooks)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, a float, or too deeply nested
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc


def parse_element(group: Group, token: str) -> GroupElement:
    token = token.strip()
    try:
        return GroupElement(group, group.payload_from_token(token))
    except (ValueError, GroupError) as exc:
        raise UsageError(f"bad element token {token!r}: {exc}") from exc


def parse_gens(group: Group, spec: Optional[str]) -> GeneratingSet:
    if spec is None:
        try:
            return standard_gens(group)
        except ValueError as exc:
            raise UsageError("this group needs an explicit --gens") from exc
    spec = spec.strip()
    if spec.startswith("@"):
        gens = genset_from_json(_read_json(spec[1:]))
        if gens.group != group:
            raise UsageError("--gens file group does not match --group")
        return gens
    sep = group.gens_separator
    tokens = spec.replace(";", sep).split(sep)
    try:
        return GeneratingSet([parse_element(group, t) for t in tokens if t.strip()])
    except (ValueError, GroupError) as exc:
        raise UsageError(f"bad generating set {spec!r}: {exc}") from exc


def parse_quotient(spec: str, source_gens: GeneratingSet, budget: Budget) -> Optional[QuotientMap]:
    """The fixed quotient map of ``spec``, its target ball built under
    ``budget``; None for the cyclic family search."""
    spec = spec.strip()
    if spec == "cyclic":
        return None
    if spec.startswith("cyclic:"):
        try:
            return cyclic_quotient(source_gens, int(spec.split(":", 1)[1]), budget)
        except (ValueError, GroupError) as exc:
            raise UsageError(f"bad quotient {spec!r}: {exc}") from exc
    if spec.startswith("@"):
        doc = _read_json(spec[1:])
        if not isinstance(doc, dict) or doc.get("schema") != "quotient.v1":
            raise UsageError("quotient file must carry schema quotient.v1")
        if "target" not in doc or not isinstance(doc.get("images"), list):
            raise UsageError("quotient file needs a target group and a list of images")
        target = group_from_json(doc["target"])
        images = [
            GroupElement(target, payload_from_json(target, obj)) for obj in doc["images"]
        ]
        try:  # Construction checks the homomorphism law
            return QuotientMap(source_gens, target, images, budget)
        except GroupError as exc:
            raise UsageError(f"bad quotient file: {exc}") from exc
    raise UsageError(f"unrecognized quotient spec {spec!r}")


def load_config(path: str) -> dict[str, str]:
    """Flat key = value file mirroring the flags; '#' starts a comment."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip().strip("\"'")
        out[key] = value
    return out


# -- report plumbing ------------------------------------------------------------


_SCALARS = (str, int, float, bool, type(None))


def _flat(obj: Any) -> bool:
    """Whether every item of a list, or every value of a dict, is a JSON scalar."""
    return all(map(isinstance, obj.values() if isinstance(obj, dict) else obj, repeat(_SCALARS)))


def _report_text(doc: Any, indent: str = "") -> str:
    """The text of ``json.dumps(doc, indent=2, sort_keys=True)`` for a document
    whose object keys are strings, at the column ``indent``.

    That call runs the pure-Python encoder, as ``indent`` turns the C one off.
    Here the C encoder writes each non-empty container of scalars in one call,
    and each list of non-empty flat objects (a report's table): its item
    separator is a newline and the indent of the container's items, so only
    the brackets are added by hand.  In a list of rows, the separator is the
    fields' indent; raw newlines occur only at separators, so "},<sep>{"
    marks each row boundary exactly.
    """
    if not isinstance(doc, (dict, list, tuple)) or not doc:
        return json.dumps(doc)
    inner = indent + "  "
    if _flat(doc):
        text = json.dumps(doc, sort_keys=True, separators=(",\n" + inner, ": "))
        return text[0] + "\n" + inner + text[1:-1] + "\n" + indent + text[-1]
    if not isinstance(doc, dict) and all(isinstance(row, dict) and row and _flat(row)
                                         for row in doc):
        field = inner + "  "
        text = json.dumps(doc, sort_keys=True, separators=(",\n" + field, ": "))
        boundary = "\n" + inner + "},\n" + inner + "{\n" + field
        rows = text[2:-2].replace("},\n" + field + "{", boundary)
        return "[\n" + inner + "{\n" + field + rows + "\n" + inner + "}\n" + indent + "]"
    if isinstance(doc, dict):  # a key that is no string raises TypeError here
        items = [encode_basestring_ascii(key) + ": " + _report_text(value, inner)
                 for key, value in sorted(doc.items())]
    else:
        items = [_report_text(value, inner) for value in doc]
    brackets = "{}" if isinstance(doc, dict) else "[]"
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def _write_report(report: dict, out: Optional[str]) -> None:
    text = _report_text(report)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _report(command: str, inputs: dict, results: dict, seconds: float) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "deadend", "version": __version__},
        "command": command,
        "inputs": inputs,
        "inputs_digest": content_hash(inputs),
        "results": results,
        "timing": {"seconds": round(seconds, 6)},
    }


def _echo(args, *flags: str) -> dict:
    """The report's inputs: --group, --gens and ``flags``, as given."""
    return {flag: getattr(args, flag) for flag in ("group", "gens", *flags)}


def _budget_from_args(args) -> Budget:
    return Budget(args.budget_elements, args.budget_radius, args.budget_seconds, args.started)


def _ball(args, group: Group, gens: GeneratingSet) -> Ball:
    """The closed ball of radius --radius, through the ball cache."""
    if args.radius is None:
        raise UsageError("--radius is required")
    return ball_cached(group, gens, args.radius, args.cache_dir, _budget_from_args(args))


# -- subcommand implementations ----------------------------------------------------


def _build_construction(args) -> tuple[Construction, dict]:
    group = parse_group(args.group)
    if args.target_depth is None:
        raise UsageError("--target-depth is required")
    if args.target_depth < 2:
        raise UsageError(f"--target-depth must be >= 2, got {args.target_depth}")
    gens = parse_gens(group, args.gens)
    budget = _budget_from_args(args)
    quotient_spec = args.quotient or "cyclic"
    pi = parse_quotient(quotient_spec, gens, budget) or find_quotient(
        gens, required_n(args.target_depth - 1), args.quotient_mode, args.quotient_max, budget
    )
    ctx = Construction(gens, pi, args.target_depth, args.bound_mode, budget=budget,
                       cache_dir=args.cache_dir)
    inputs = {
        **_echo(args, "target_depth", "bound_mode"),
        "quotient": quotient_spec,
        "quotient_order": pi.target.order(),
        "params": ctx.params.to_json(),
    }
    return ctx, inputs


def cmd_construct(args, full_table: bool = False) -> tuple[dict, dict]:
    ctx, inputs = _build_construction(args)
    doc = ctx.verify().to_json()
    if not full_table:
        doc.pop("verification_table")
    return inputs, doc


def cmd_certify(args) -> tuple[dict, dict]:
    ctx, inputs = _build_construction(args)
    if args.element is None:
        element = ctx.witness.element
    else:
        element = parse_element(ctx.source_gens.group, args.element)
    cert = ctx.certify(element)
    inputs["element"] = str(element)
    results = {
        "certificate": cert.to_json(),
        "digest": cert.digest(),
        "norm_upper_bound": None if cert.degenerate else cert.k,
    }
    return inputs, results


def cmd_depth(args) -> tuple[dict, dict]:
    group = parse_group(args.group)
    gens = parse_gens(group, args.gens)
    if args.element is None:
        raise UsageError("--element is required")
    element = parse_element(group, args.element)
    b = _ball(args, group, gens)
    norm = b.norm(element)
    if norm is None:
        raise UsageError(f"element {element} lies outside the radius-{args.radius} ball")
    inputs = {**_echo(args, "radius", "cap"), "element": str(element)}
    return inputs, {"norm": norm, "depth": depth(b, element, cap=args.cap).render()}


def cmd_profile(args) -> tuple[dict, dict]:
    group = parse_group(args.group)
    # no name holds the ball: its parent links are freed before the CSV is written
    prof = depth_profile(_ball(args, group, parse_gens(group, args.gens)), cap=args.cap)
    if args.csv:
        prof.to_csv(args.csv)
    return _echo(args, "radius", "cap"), prof.summary_json()


def cmd_ball(args) -> tuple[dict, dict]:
    group = parse_group(args.group)
    b = _ball(args, group, parse_gens(group, args.gens))
    if args.csv:
        ball_to_csv(b, args.csv)
    results = {"elements": len(b), "sphere_sizes": list(b.sphere_sizes), "radius": b.radius}
    return _echo(args, "radius"), results


def cmd_diameter(args) -> tuple[dict, dict]:
    group = parse_group(args.group)
    if group.order() is None:
        raise UsageError("diameter needs a finite group")
    gens = parse_gens(group, args.gens)
    return _echo(args), diameter(group, gens, _budget_from_args(args)).to_json()


# -- argument plumbing ----------------------------------------------------------------


# Every flag a config file may set, by config key: its type (or its choices)
# and its default.  argparse defaults stay None, so that a flag that was not
# given takes the file's value before the default.
_FLAGS: dict[str, tuple[Any, Any]] = {
    "gens": (str, None),
    "quotient": (str, None),
    "quotient_mode": (("greedy", "paper_safe"), "greedy"),
    "quotient_max": (int, 1_000_000),
    "target_depth": (int, None),
    "bound_mode": (("paper", "tight"), "paper"),
    "element": (str, None),
    "radius": (int, None),
    "cap": (int, 32),
    "csv": (str, None),
    "out": (str, None),
    "cache_dir": (str, None),
    "budget_elements": (int, Budget.max_elements),
    "budget_radius": (int, Budget.max_radius),
    "budget_seconds": (float, Budget.max_seconds),
}

# Flag -> help text: every subcommand's flags after --group, and the construction flags.
_COMMON = {
    "gens": "comma-separated entries, or @FILE (genset.v1 JSON)",
    "config": "flat key = value file; flags override",
    "out": "write the JSON report here instead of stdout",
    "cache_dir": "ball cache directory",
    "budget_elements": None, "budget_radius": None, "budget_seconds": None,
}
_CONSTRUCTION = {
    "quotient": "cyclic:M | cyclic (family search) | @FILE (quotient.v1)",
    "quotient_mode": None, "quotient_max": None, "target_depth": None, "bound_mode": None,
}

# Subcommand -> (help, handler, its own flags after the common ones).
_COMMANDS = {
    "construct": ("build a deep generating set and verify it",
                  lambda args: cmd_construct(args, full_table=False), _CONSTRUCTION),
    "verify": ("construct plus the full per-element verification table",
               lambda args: cmd_construct(args, full_table=True), _CONSTRUCTION),
    "certify": ("factorization certificate for one element", cmd_certify,
                {**_CONSTRUCTION, "element": "element token; defaults to the witness"}),
    "depth": ("dead-end depth of one element", cmd_depth,
              {"element": "element token", "radius": "ball radius (must cover the element)",
               "cap": f"depth search cap (default {_FLAGS['cap'][1]})"}),
    "profile": ("depth of every element within a radius", cmd_profile,
                {"radius": None, "cap": None,
                 "csv": "also write (element, norm, depth) rows here"}),
    "ball": ("closed ball: sizes and optional CSV export", cmd_ball,
             {"radius": None, "csv": "write (element, norm) rows here"}),
    "diameter": ("diameter of a finite group under gens", cmd_diameter, {}),
}


@functools.cache  # built once per process; main looks each handler up in _COMMANDS as it runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deadend",
        description="Word metrics, dead-end depth, and quotient-built deep generating sets.",
    )
    parser.add_argument("--version", action="version", version=f"deadend {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, _, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument(
            "--group", required=True,
            help="zz | grid:R | cyclic:M | dihedral:M | lamplighter | table:FILE",
        )
        for name, flag_help in {**_COMMON, **flags}.items():
            kind = _FLAGS[name][0] if name in _FLAGS else str  # --config sets no key
            convert = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument("--" + name.replace("_", "-"), dest=name, help=flag_help, **convert)
    return parser


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    for key, value in vars(args).items():
        if isinstance(value, list):  # "--flag=--" reads as [] on Python 3.12 and earlier
            raise UsageError(f"--{key.replace('_', '-')} needs a value")
    config = load_config(args.config) if getattr(args, "config", None) else {}
    for key, value in config.items():
        if key not in _FLAGS:
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            kind = _FLAGS[key][0]
            try:
                setattr(args, key, value if isinstance(kind, tuple) else kind(value))
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None
    for key, (_, default) in _FLAGS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, default)
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # each library warning as one stderr line, on every run
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    started = time.monotonic()  # the run's one clock: its budget and its timing count from here
    try:
        args = _merge_config(args)
        args.started = started
        inputs, results = _COMMANDS[args.command][1](args)
        _write_report(_report(args.command, inputs, results, time.monotonic() - started), args.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (VerificationError, CertificateError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (GroupError, ValueError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
