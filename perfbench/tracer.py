"""Outside-in tracer: timing spans around deadend's public functions.

``Tracer.install`` replaces every function and method named in ``TARGETS``
with a wrapper, in every ``deadend.*`` namespace that holds it, so calls
made between modules are seen too.  Each call becomes a span (name,
parent, start, end) kept in flat arrays; ``metrics`` turns the spans into
the per-layer figures after the timed work is over.  A layer's self time
is the time its spans cover minus the time their child spans cover.

Per-element hot paths (``mul_payload``, ``letter_payload``, ``Ball.norm``)
are not wrapped: they run millions of times and would swamp the numbers.
A target that no longer exists is listed in ``missing`` instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from typing import Any, Callable

MODULES = ("groups", "serialize", "cayley", "quotient", "depth", "construction", "cli")

# module -> public functions, and "Class.method" for methods.
TARGETS = {
    "groups": [
        "evaluate_word", "validate_word", "invert_word", "multiply", "invert",
        "standard_gens", "TableGroup.__init__",
    ],
    "serialize": [
        "dumps", "content_hash", "group_to_json", "group_from_json", "payload_to_json",
        "payload_from_json", "element_to_json", "element_from_json", "genset_to_json",
        "genset_from_json", "word_to_json", "word_from_json",
    ],
    "cayley": [
        "ball", "ball_cached", "norm", "geodesic", "save_ball", "load_ball",
        "ball_content_hash", "ball_to_csv", "Ball.geodesic", "Ball.geodesic_payload",
        "Ball.first_payload_at",
    ],
    "quotient": [
        "QuotientMap.__init__", "QuotientMap.apply", "QuotientMap.apply_word",
        "QuotientMap.image_genset", "cyclic_quotient", "word_quotient", "check_homomorphism",
        "group_ball", "diameter", "counting_bound_check", "find_quotient",
    ],
    "depth": [
        "depth", "depth_profile", "depth_oracle", "DepthProfile.to_csv",
        "DepthProfile.summary_json",
    ],
    "construction": [
        "required_N", "bound_inequality_holds", "constructed_genset", "build_generating_set",
        "phi_table", "find_witness", "factorize", "validate_certificate", "verify_construction",
        "Construction.__init__", "Construction.build", "Construction.witness_neighborhood",
        "Construction.a_letter_s_word", "Construction.certify", "Certificate.to_json",
        "Certificate.digest",
    ],
    "cli": ["main"],
}

# Spans inside which evaluated letters are charged to certificates.
CERTIFICATE_SPANS = {"construction.factorize", "construction.validate_certificate"}
GEODESIC_SPANS = {"cayley.geodesic", "cayley.Ball.geodesic", "cayley.Ball.geodesic_payload"}

# (metric, unit, better); a metric's value comes from Tracer.metrics().
PER_LAYER = [
    ("construction.self_s", "s", "lower"),
    ("construction.certificates", "count", "lower"),
    ("construction.factorize_s", "s", "lower"),
    ("construction.validate_certificate_s", "s", "lower"),
    ("construction.letters_per_certificate", "letters/cert", "lower"),
    ("construction.phi_table_s", "s", "lower"),
    ("construction.genset_s", "s", "lower"),
    ("construction.neighborhood_size", "count", "lower"),
    ("groups.self_s", "s", "lower"),
    ("groups.evaluate_word_calls", "count", "lower"),
    ("groups.evaluate_word_letters", "count", "lower"),
    ("groups.validate_word_calls", "count", "lower"),
    ("groups.validate_word_s", "s", "lower"),
    ("groups.table_load_s", "s", "lower"),
    ("quotient.self_s", "s", "lower"),
    ("quotient.apply_word_calls", "count", "lower"),
    ("quotient.apply_word_letters", "count", "lower"),
    ("quotient.group_ball_calls", "count", "lower"),
    ("quotient.diameter_s", "s", "lower"),
    ("quotient.find_quotient_s", "s", "lower"),
    ("quotient.check_homomorphism_s", "s", "lower"),
    ("cayley.self_s", "s", "lower"),
    ("cayley.ball_calls", "count", "lower"),
    ("cayley.ball_s", "s", "lower"),
    ("cayley.ball_elements", "count", "lower"),
    ("cayley.mul_steps", "count", "lower"),
    ("cayley.mul_steps_per_s", "1/s", "higher"),
    ("cayley.geodesic_calls", "count", "lower"),
    ("cayley.save_ball_s", "s", "lower"),
    ("cayley.load_ball_s", "s", "lower"),
    ("cayley.cache_bytes", "bytes", "lower"),
    ("cayley.cache_hits", "count", "higher"),
    ("cayley.cache_misses", "count", "lower"),
    ("cayley.ball_to_csv_s", "s", "lower"),
    ("depth.self_s", "s", "lower"),
    ("depth.depth_calls", "count", "lower"),
    ("depth.depth_s", "s", "lower"),
    ("depth.profile_s", "s", "lower"),
    ("depth.to_csv_s", "s", "lower"),
    ("depth.oracle_s", "s", "lower"),
    ("serialize.self_s", "s", "lower"),
    ("serialize.group_from_json_s", "s", "lower"),
    ("serialize.dumps_calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

# Inclusive time of one span name.
SPAN_SECONDS = {
    "construction.factorize_s": "construction.factorize",
    "construction.validate_certificate_s": "construction.validate_certificate",
    "construction.phi_table_s": "construction.phi_table",
    "construction.genset_s": "construction.constructed_genset",
    "groups.validate_word_s": "groups.validate_word",
    "groups.table_load_s": "groups.TableGroup.__init__",
    "quotient.diameter_s": "quotient.diameter",
    "quotient.find_quotient_s": "quotient.find_quotient",
    "quotient.check_homomorphism_s": "quotient.check_homomorphism",
    "cayley.ball_s": "cayley.ball",
    "cayley.save_ball_s": "cayley.save_ball",
    "cayley.load_ball_s": "cayley.load_ball",
    "cayley.ball_to_csv_s": "cayley.ball_to_csv",
    "depth.depth_s": "depth.depth",
    "depth.profile_s": "depth.depth_profile",
    "depth.to_csv_s": "depth.DepthProfile.to_csv",
    "depth.oracle_s": "depth.depth_oracle",
    "serialize.group_from_json_s": "serialize.group_from_json",
}
# Number of spans of one name.
SPAN_CALLS = {
    "construction.certificates": "construction.validate_certificate",
    "groups.evaluate_word_calls": "groups.evaluate_word",
    "groups.validate_word_calls": "groups.validate_word",
    "quotient.apply_word_calls": "quotient.QuotientMap.apply_word",
    "quotient.group_ball_calls": "quotient.group_ball",
    "cayley.ball_calls": "cayley.ball",
    "cayley.cache_hits": "cayley.load_ball",
    "cayley.cache_misses": "cayley.save_ball",
    "depth.depth_calls": "depth.depth",
    "serialize.dumps_calls": "serialize.dumps",
}
# Counts that must repeat exactly between runs of one workload.
EXACT = [name for name, unit, _ in PER_LAYER if unit in ("count", "bytes")]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_letters(key: str, index: int) -> Callable:
    def hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
        n = len(_arg(args, kwargs, index, "word"))
        tracer.counts[key] += n
        if tracer.certificate_depth:
            tracer.counts["certificate_letters"] += n

    return hook


def _ball_work(tracer: "Tracer", args: tuple, kwargs: dict, b: Any) -> None:
    # Computed, not counted: the BFS expands every layer below the radius
    # (all of them when it closes early) with every symmetrized letter.
    tracer.counts["ball_elements"] += len(b)
    expanded = sum(b.sphere_sizes[: b.radius])
    tracer.counts["mul_steps"] += expanded * len(b.gens.symmetrized_letters())


def _cache_bytes(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["cache_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _neighborhood(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["neighborhood_size"] += len(result)


HOOKS = {
    "groups.evaluate_word": _count_letters("evaluate_word_letters", 0),
    "quotient.QuotientMap.apply_word": _count_letters("apply_word_letters", 1),
    "cayley.ball": _ball_work,
    "cayley.save_ball": _cache_bytes,
    "construction.Construction.witness_neighborhood": _neighborhood,
}


class Tracer:
    """Span recorder for one process; spans stay in memory until ``metrics``."""

    def __init__(self) -> None:
        self.span_names: list[str] = []  # span name id -> name
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.certificate_depth = 0
        self.counts = dict.fromkeys(
            ["evaluate_word_letters", "apply_word_letters", "certificate_letters", "ball_elements",
             "mul_steps", "cache_bytes", "neighborhood_size"], 0)
        self.missing: list[str] = []

    def install(self) -> None:
        for module, names in TARGETS.items():
            mod = importlib.import_module(f"deadend.{module}")
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    self.missing.append(f"{module}.{dotted}")
                    continue
                span = f"{module}.{dotted}"
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, span)))
                elif owner_name:
                    setattr(owner, attr, self._wrap(raw, span))
                else:
                    self._replace_everywhere(raw, self._wrap(raw, span))

    @staticmethod
    def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "deadend" and not mod_name.startswith("deadend."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _wrap(self, fn: Callable, span: str) -> Callable:
        nid = len(self.span_names)
        self.span_names.append(span)
        hook = HOOKS.get(span)
        scoped = span in CERTIFICATE_SPANS
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if scoped:
                tracer.certificate_depth += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if scoped:
                    tracer.certificate_depth -= 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer figures named as in ``PER_LAYER``, except ``trace.overhead``."""
        n = len(self.name)
        names = self.span_names
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        calls = dict.fromkeys(names, 0)
        inclusive = dict.fromkeys(names, 0.0)
        module_self = dict.fromkeys(MODULES, 0.0)
        geodesic_calls = 0
        for i in range(n):
            span = names[self.name[i]]
            calls[span] += 1
            inclusive[span] += duration[i]
            module_self[span.split(".", 1)[0]] += duration[i] - covered[i]
            p = self.parent[i]
            if span in GEODESIC_SPANS and (p < 0 or names[self.name[p]] not in GEODESIC_SPANS):
                geodesic_calls += 1

        c = self.counts
        certificates = calls.get("construction.validate_certificate", 0)
        ball_s = inclusive.get("cayley.ball", 0.0)
        out: dict[str, float] = {f"{m}.self_s": module_self[m] for m in MODULES}
        out.update({metric: inclusive.get(span, 0.0) for metric, span in SPAN_SECONDS.items()})
        out.update({metric: calls.get(span, 0) for metric, span in SPAN_CALLS.items()})
        out.update({
            "construction.letters_per_certificate":
                c["certificate_letters"] / certificates if certificates else 0.0,
            "construction.neighborhood_size": c["neighborhood_size"],
            "groups.evaluate_word_letters": c["evaluate_word_letters"],
            "quotient.apply_word_letters": c["apply_word_letters"],
            "cayley.ball_elements": c["ball_elements"],
            "cayley.mul_steps": c["mul_steps"],
            "cayley.mul_steps_per_s": c["mul_steps"] / ball_s if ball_s else 0.0,
            "cayley.geodesic_calls": geodesic_calls,
            "cayley.cache_bytes": c["cache_bytes"],
        })
        return out
