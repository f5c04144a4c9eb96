"""Fuzzing the command line in process: every input ends in a mapped exit code.

Each test draws one kind of input (group, gens, element and quotient specs,
``genset.v1`` and ``quotient.v1`` documents, ``--config`` lines), runs
``cli.main`` on it under small budget flags, and asserts that the run
returns 0, 2, 3 or 4, with a message on stderr when it is not 0.
A crash raises out of ``main`` and fails the example.  Flag values are
passed as ``--flag=value`` so that argparse takes any text, a leading dash
included, as the value.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from deadend.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from deadend.groups import Cyclic, Dihedral, IntegerGrid, IntegerLine, Lamplighter
from deadend.serialize import group_to_json

FUZZ = settings(max_examples=100, deadline=None)
BUDGET = ["--budget-elements=3000", "--budget-radius=100", "--budget-seconds=1"]

NUMBERS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", "0", "-1", "1025", "99999999999999999999", "1e3", " 7", "0x10",
                     "1_0", "٣", "nan", "inf"]),
)
# group spec -> its standard generating set spelled as --gens
SOURCES = {"zz": "1", "grid:2": "1,0;0,1", "cyclic:12": "1", "dihedral:6": "r,s",
           "lamplighter": "t,a"}
PARSED = {"zz": IntegerLine(), "grid:2": IntegerGrid(2), "cyclic:12": Cyclic(12),
          "dihedral:6": Dihedral(6), "lamplighter": Lamplighter()}
TOKENS = st.one_of(
    NUMBERS,
    st.sampled_from(["r", "s", "r2s", "r-1", "rs", "e", "t", "a", "1.2@3", "@-1", "-1.0.1@0",
                     "1,0", "0,1", "2,-3", "1,0,0", "@", "..@", " ", "r^2"]),
    st.text(max_size=6),
)


def assert_mapped_exit(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)  # raises on a crash
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET, EXIT_VERIFICATION), code
    if code == EXIT_OK:  # library warnings at most, such as an identity image dropped from A
        assert all(line.startswith("warning: ") for line in err.getvalue().splitlines()), \
            err.getvalue()
    else:
        assert err.getvalue(), code
    event(f"exit {code}")  # shown by pytest --hypothesis-show-statistics


def payloads(group):
    """Valid payloads of one of the ``SOURCES`` groups or a quotient target."""
    if isinstance(group, IntegerLine):
        return st.integers(-6, 6)
    if isinstance(group, IntegerGrid):
        return st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    if isinstance(group, Cyclic):
        return st.integers(0, group.modulus - 1)
    if isinstance(group, Dihedral):
        return st.tuples(st.integers(0, group.m - 1), st.integers(0, 1))
    return st.tuples(st.lists(st.integers(-2, 2), max_size=3, unique=True).map(sorted).map(tuple),
                     st.integers(-2, 2))


def token(group, p) -> str:
    """The CLI token of payload p."""
    if isinstance(group, IntegerGrid):
        return ",".join(map(str, p))
    if isinstance(group, Dihedral):
        return f"r{p[0]}" + "s" * p[1]
    if isinstance(group, Lamplighter):
        return ".".join(map(str, p[0])) + "@" + str(p[1])
    return str(p)


JUNK = st.sampled_from([None, True, 1.5, "x", "", [], {}, ["1"], {"rot": "1"}, -1, "1e3",
                        {"lamps": ["1"], "cursor": "x"}, {"rot": "0", "ref": "2"}])


@st.composite
def payload_docs(draw, group):
    """A payload as a document holds it: mostly valid, sometimes junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    return group.payload_to_json(group.canonical_payload(draw(payloads(group))))


@st.composite
def document(draw, fields: dict):
    """``fields`` as given (three times in four), with a key dropped, with one value
    replaced by junk, or not an object at all."""
    doc = dict(fields)
    change = draw(st.sampled_from(["none"] * 9 + ["drop", "junk", "not an object"]))
    if change == "not an object":
        return draw(st.sampled_from([[], "genset.v1", None, 3, [doc]]))
    if change != "none":
        key = draw(st.sampled_from(sorted(doc)))
        if change == "drop":
            del doc[key]
        else:
            doc[key] = draw(JUNK)
    return doc


@st.composite
def genset_docs(draw, source: str):
    """A ``genset.v1`` document, mostly over the group that --group names."""
    group = draw(st.one_of(st.just(PARSED[source]), st.just(PARSED[source]),
                           st.sampled_from(list(PARSED.values()))))
    entries = draw(st.lists(payload_docs(group), min_size=1, max_size=4))
    labels = draw(st.one_of(st.none(), st.just([str(i) for i in range(len(entries))]),
                            st.lists(st.text(max_size=2), max_size=3), JUNK))
    return draw(document({"schema": "genset.v1", "group": group_to_json(group),
                          "entries": entries, "labels": labels}))


@st.composite
def quotient_docs(draw, entries: list):
    """A ``quotient.v1`` document for generators with these payloads (None where
    not an integer); on the integers often x -> u*x mod m, a homomorphism."""
    target = draw(st.one_of(
        st.integers(1, 24).map(Cyclic),
        st.integers(3, 6).map(Dihedral),
        st.sampled_from([IntegerLine(), Lamplighter()]),
    ))
    if isinstance(target, Cyclic) and None not in entries and draw(st.booleans()):
        u = draw(st.integers(1, target.modulus))
        images = [str(e * u % target.modulus) for e in entries]
    else:
        count = draw(st.sampled_from([len(entries)] * 3 + [0, len(entries) + 1]))
        images = draw(st.lists(payload_docs(target), min_size=count, max_size=count))
    return draw(document({"schema": "quotient.v1", "target": group_to_json(target),
                          "images": images}))


def written(tmp_path_factory, name: str, doc) -> str:
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return str(path)


@FUZZ
@given(
    spec=st.one_of(
        st.sampled_from([*SOURCES, " zz ", "ZZ", "z", "grid", "cyclic", "table:", "dihedral:"]),
        st.builds("{}:{}".format, st.sampled_from(["grid", "cyclic", "dihedral", "table", "x"]),
                  NUMBERS),
        st.text(max_size=12),
    ),
    gens=st.sampled_from([None, *SOURCES.values()]),
    command=st.sampled_from(["ball", "profile", "diameter", "depth"]),
    radius=st.integers(0, 4),
)
def test_fuzzed_group_specs(spec, gens, command, radius):
    argv = [command, f"--group={spec}", *BUDGET, *([] if gens is None else [f"--gens={gens}"])]
    if command != "diameter":
        argv.append(f"--radius={radius}")
    assert_mapped_exit(argv + (["--element=1"] if command == "depth" else []))


@FUZZ
@given(source=st.sampled_from(sorted(SOURCES)), data=st.data(), radius=st.integers(0, 3))
def test_fuzzed_gens_specs(source, data, radius):
    group = PARSED[source]
    spec = data.draw(st.one_of(
        st.lists(payloads(group).map(lambda p: token(group, p)), min_size=1, max_size=3).map(
            group.gens_separator.join),
        st.lists(TOKENS, max_size=4).flatmap(
            lambda ts: st.sampled_from([",", ";", " , "]).map(lambda sep: sep.join(ts))),
        st.text(max_size=10),
    ))
    assert_mapped_exit(["ball", f"--group={source}", f"--gens={spec}", f"--radius={radius}",
                        *BUDGET])


@FUZZ
@given(source=st.sampled_from(sorted(SOURCES)), data=st.data())
def test_fuzzed_genset_documents(tmp_path_factory, source, data):
    doc = data.draw(genset_docs(source))
    path = written(tmp_path_factory, "fuzzed-genset.json", doc)
    assert_mapped_exit(["ball", f"--group={source}", f"--gens=@{path}", "--radius=2", *BUDGET])


@FUZZ
@given(source=st.sampled_from(sorted(SOURCES)), data=st.data(),
       command=st.sampled_from(["depth", "certify"]))
def test_fuzzed_element_tokens(source, data, command):
    if command == "certify":
        source, argv = "zz", ["certify", "--quotient=cyclic:10", "--target-depth=3"]
    else:
        argv = ["depth", "--radius=4"]
    group = PARSED[source]
    element = data.draw(st.one_of(payloads(group).map(lambda p: token(group, p)), TOKENS))
    assert_mapped_exit([*argv, f"--group={source}", f"--gens={SOURCES[source]}",
                        f"--element={element}", *BUDGET])


@FUZZ
@given(
    source=st.sampled_from(["zz", "zz", "grid:2", "cyclic:12", "dihedral:6", "lamplighter"]),
    data=st.data(),
    spec_kind=st.sampled_from(["family", "cyclic:M", "file", "file", "text"]),
    command=st.sampled_from(["construct", "verify", "certify"]),
    target_depth=st.sampled_from([2, 3, 2, 3, 4, 2, 3, 1]),
    mode=st.sampled_from(["greedy", "paper_safe"]),
    quotient_max=st.one_of(st.none(), st.integers(-1, 300)),
    bound=st.sampled_from(["paper", "tight"]),
)
def test_fuzzed_quotient_specs(tmp_path_factory, source, data, spec_kind, command, target_depth,
                               mode, quotient_max, bound):
    gens = SOURCES[source] if source != "zz" else data.draw(st.sampled_from(["1", "2,3", "2"]))
    if spec_kind == "family":
        spec = data.draw(st.sampled_from(["cyclic", " cyclic "]))
    elif spec_kind == "cyclic:M":
        spec = "cyclic:" + data.draw(NUMBERS)
    elif spec_kind == "file":
        count = len(gens.split(";" if source == "grid:2" else ","))
        entries = [int(e) for e in gens.split(",")] if source == "zz" else [None] * count
        path = written(tmp_path_factory, "fuzzed-quotient.json", data.draw(quotient_docs(entries)))
        spec = "@" + path
    else:
        spec = data.draw(st.text(max_size=10))
    argv = [command, f"--group={source}", f"--gens={gens}", f"--quotient={spec}",
            f"--target-depth={target_depth}", f"--quotient-mode={mode}", f"--bound-mode={bound}",
            # radius 150 lets paper_safe at depth 3 (C_243, diameter 121) run to the end
            "--budget-elements=3000", "--budget-radius=150", "--budget-seconds=1"]
    assert_mapped_exit(argv + ([] if quotient_max is None else [f"--quotient-max={quotient_max}"]))


CONFIG_KEYS = ["gens", "quotient", "quotient_mode", "quotient_max", "target_depth", "bound_mode",
               "element", "radius", "cap", "budget_seconds", "family", "max_m", "target-depth",
               "group", "bogus", "", "out", "csv", "cache_dir"]
CONFIG_VALUES = st.one_of(
    NUMBERS,
    st.sampled_from(['"cyclic"', "'cyclic:10'", "cyclic", "paper_safe", "greedy", "tight",
                     "paper", "1,2", "t,a", "", '"', "0.5", "-0.5", "1e-9", "99999999999999999999",
                     "# a comment", "a = b"]),
    st.text(max_size=6),
)


@FUZZ
@given(
    lines=st.lists(st.one_of(
        st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES,
                  st.sampled_from([" = ", "=", " =", "= "])),
        st.sampled_from(["", "# comment", "no equals sign", "=", "  ", "\t# x = 1"]),
    ), max_size=6),
    base=st.sampled_from([
        ["construct", "--group=zz"],
        ["verify", "--group=zz", "--gens=1"],
        ["certify", "--group=zz"],
        ["ball", "--group=zz"],
        ["profile", "--group=lamplighter"],
        ["depth", "--group=dihedral:6"],
        ["diameter", "--group=cyclic:10"],
    ]),
)
def test_fuzzed_config_lines(tmp_path_factory, lines, base):
    tmp = tmp_path_factory.getbasetemp()
    rendered = []
    for line in lines:
        if isinstance(line, str):
            rendered.append(line)
            continue
        key, value, eq = line
        if key in ("out", "csv", "cache_dir"):  # keep every file the run writes under tmp
            value = str(tmp / ("missing/x" if value.startswith("-") else "written"))
        rendered.append(f"{key}{eq}{value}")
    path = written(tmp_path_factory, "fuzzed.conf", "\n".join(rendered) + "\n")
    # no --budget-seconds, so that the file's value is read
    assert_mapped_exit([*base, f"--config={path}", "--budget-elements=3000", "--budget-radius=100"])
