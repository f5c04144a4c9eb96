"""Command-line surface: subcommands, exit codes, reports, config files."""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import pkgutil
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_writer_bytes
import deadend
from deadend.cayley import Budget, BudgetExceededError, ball
from deadend.cli import (
    _COMMANDS,
    _COMMON,
    _FLAGS,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    UsageError,
    _merge_config,
    _report_text,
    build_parser,
    main,
    parse_element,
    parse_gens,
    parse_group,
)
from deadend.construction import ConstructionError
from deadend.depth import depth
from deadend.groups import Cyclic, Dihedral, IntegerGrid, IntegerLine, Lamplighter, TableGroup
from deadend.quotient import cyclic_quotient
from deadend.serialize import dumps, genset_to_json, group_to_json
from deadend.groups import GeneratingSet


def run(tmp_path, *argv, name="report.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def reading_document(kind, path):
    """A command line that reads ``path`` as a quotient, a group table or a generating set."""
    return {
        "quotient": ["construct", "--group", "zz", "--gens", "1",
                     "--quotient", f"@{path}", "--target-depth", "3"],
        "group": ["ball", "--group", f"table:{path}", "--gens", "1", "--radius", "1"],
        "gens": ["ball", "--group", "zz", "--gens", f"@{path}", "--radius", "1"],
    }[kind]


# -- parsing helpers --------------------------------------------------------------


def test_parse_group_specs():
    assert isinstance(parse_group("zz"), IntegerLine)
    assert parse_group("cyclic:12") == Cyclic(12)
    assert parse_group("dihedral:5") == Dihedral(5)
    assert parse_group("grid:3") == IntegerGrid(3)
    assert isinstance(parse_group("lamplighter"), Lamplighter)


def test_parse_table_group_from_file(tmp_path):
    m = 4
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    from deadend.groups import TableGroup

    doc = group_to_json(TableGroup(table, 0, name="c4"))
    path = tmp_path / "c4.json"
    path.write_text(dumps(doc))
    group = parse_group(f"table:{path}")
    assert group.order() == 4


def test_table_file_with_boolean_cells_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bools.json"
    path.write_text('{"schema":"group.v1","variant":"table","identity":"0",'
                    '"table":[[false,true],[true,false]]}')
    code = main(["diameter", "--group", f"table:{path}", "--gens", "1"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: group.v1 table cells must be integers, got False\n"


def test_parse_gens_tokens():
    zz = IntegerLine()
    gens = parse_gens(zz, "2,3")
    assert [e.payload for e in gens.entries] == [2, 3]
    d = Dihedral(6)
    gens = parse_gens(d, "r,s")
    assert [e.payload for e in gens.entries] == [(1, 0), (0, 1)]
    assert parse_element(d, "r2s").payload == (2, 1)
    lamp = Lamplighter()
    gens = parse_gens(lamp, "t,a")
    assert [e.payload for e in gens.entries] == [((), 1), ((0,), 0)]
    assert parse_element(lamp, "-1.0.1@0").payload == ((-1, 0, 1), 0)
    grid = IntegerGrid(2)
    gens = parse_gens(grid, "1,0;0,1")
    assert [e.payload for e in gens.entries] == [(1, 0), (0, 1)]


# Per variant: an element token and the payload it parses to.
TOKEN_PINS = [
    (IntegerLine(), "-7", -7),
    (IntegerGrid(3), "4,-5,6", (4, -5, 6)),
    (Cyclic(17), "20", 3),
    (Dihedral(5), "r2s", (2, 1)),
    (Dihedral(5), "r-1", (4, 0)),
    (Dihedral(5), "s", (0, 1)),
    (Lamplighter(), "-1.0.1@4", ((-1, 0, 1), 4)),
    (Lamplighter(), "t", ((), 1)),
    (Lamplighter(), "3.1", ((1, 3), 0)),
    (TableGroup([[(i + j) % 4 for j in range(4)] for i in range(4)], 0), "2", 2),
]


@pytest.mark.parametrize("group, token, payload", TOKEN_PINS,
                         ids=[f"{pin[0].variant}:{pin[1]}" for pin in TOKEN_PINS])
def test_element_tokens_are_pinned(group, token, payload):
    assert parse_element(group, token).payload == payload


@pytest.mark.parametrize("group, token", [
    (IntegerLine(), "1.5"), (IntegerGrid(2), "1"), (Dihedral(5), "sr"), (Dihedral(5), "r-"),
    (Lamplighter(), "1.1@0"), (TableGroup([[0, 1], [1, 0]], 0), "2"),
])
def test_bad_element_token_is_a_usage_error(group, token):
    with pytest.raises(UsageError, match="bad element token"):
        parse_element(group, token)


def test_gens_lists_split_on_semicolons_and_commas():
    assert [e.payload for e in parse_gens(IntegerLine(), "2;3,4")] == [2, 3, 4]
    assert [e.payload for e in parse_gens(IntegerGrid(2), "1,0;0,1")] == [(1, 0), (0, 1)]
    assert parse_gens(Dihedral(4), "r;s").labels == ("r1", "s")


def test_parse_gens_from_file(tmp_path):
    zz = IntegerLine()
    doc = genset_to_json(GeneratingSet([zz.element(2), zz.element(3)]))
    path = tmp_path / "gens.json"
    path.write_text(dumps(doc))
    gens = parse_gens(zz, f"@{path}")
    assert [e.payload for e in gens.entries] == [2, 3]


def test_default_gens_are_standard():
    gens = parse_gens(Lamplighter(), None)
    assert [e.payload for e in gens.entries] == [((), 1), ((0,), 0)]


# -- subcommands -----------------------------------------------------------------


def test_construct_command(tmp_path):
    code, report = run(
        tmp_path,
        "construct", "--group", "zz", "--gens", "1",
        "--quotient", "cyclic:10", "--target-depth", "3",
    )
    assert code == EXIT_OK
    results = report["results"]
    assert report["inputs"]["params"]["n"] == 5
    assert report["inputs"]["params"]["N"] == 78
    assert results["generating_set_size"] == 15
    assert results["depth_lower_bound"] == 3
    assert results["passed"] is True
    assert "verification_table" not in results


def test_verify_command_includes_table(tmp_path):
    code, report = run(
        tmp_path,
        "verify", "--group", "zz", "--gens", "1",
        "--quotient", "cyclic:10", "--target-depth", "3", "--bound-mode", "tight",
    )
    assert code == EXIT_OK
    assert report["inputs"]["params"]["N"] == 38
    table = report["results"]["verification_table"]
    assert len(table) == 53
    assert all(row["certificate_ok"] for row in table)


# SHA-256 over the certificate digests of two verify tables, one per line in
# table order: Z -> C_10 at D=3 under the paper bound, then Z^2 -> C_10 with
# images 1,1 at D=2 under the tight bound.  It pins certificate.v1 bytes.
CERTIFICATE_DIGESTS_SHA256 = "fdaa32a8523826c7660eacf390efe8c78e3e4935a38a003f1fbc73687272a3c1"


def test_verify_certificate_digests_are_pinned(tmp_path):
    qpath = tmp_path / "quotient.json"
    qpath.write_text(dumps({
        "schema": "quotient.v1", "target": group_to_json(Cyclic(10)), "images": ["1", "1"],
    }))
    digests = []
    for argv in (
        ["--group", "zz", "--gens", "1", "--quotient", "cyclic:10",
         "--target-depth", "3", "--bound-mode", "paper"],
        ["--group", "grid:2", "--gens", "1,0;0,1", "--quotient", f"@{qpath}",
         "--target-depth", "2", "--bound-mode", "tight"],
    ):
        code, report = run(tmp_path, "verify", *argv)
        assert code == EXIT_OK
        digests += [row["certificate_digest"] for row in report["results"]["verification_table"]]
    assert len(digests) == 117 + 109
    joined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    assert joined == CERTIFICATE_DIGESTS_SHA256


def test_construct_with_family_search(tmp_path):
    code, report = run(
        tmp_path,
        "construct", "--group", "zz", "--gens", "1",
        "--quotient", "cyclic", "--target-depth", "3",
    )
    assert code == EXIT_OK
    assert report["inputs"]["quotient_order"] == 10  # greedy finds C_10 for n'=5


def test_certify_command(tmp_path):
    code, report = run(
        tmp_path,
        "certify", "--group", "zz", "--gens", "1",
        "--quotient", "cyclic:10", "--target-depth", "3", "--element", "76",
    )
    assert code == EXIT_OK
    cert = report["results"]["certificate"]
    assert cert["k"] == 4
    assert report["results"]["norm_upper_bound"] == 4


def test_construct_with_word_quotient_file(tmp_path):
    quotient_doc = {
        "schema": "quotient.v1",
        "target": group_to_json(Cyclic(10)),
        "images": ["1"],
    }
    qpath = tmp_path / "quotient.json"
    qpath.write_text(dumps(quotient_doc))
    code, report = run(
        tmp_path,
        "construct", "--group", "zz", "--gens", "1",
        "--quotient", f"@{qpath}", "--target-depth", "3",
    )
    assert code == EXIT_OK
    assert report["results"]["generating_set_size"] == 15
    assert report["results"]["passed"] is True


@pytest.mark.parametrize(
    "gens, images, depth_args",
    [
        # 1 and 2 both map to 1 in C_10, so the two words (2) and (1, 1) for 2 disagree
        ("1,2", ["1", "1"], ["--target-depth", "3"]),
        # 21 -> 2, but 21 = 21 * 1 -> 1: only words of 21 letters or more disagree
        ("1,21", ["1", "2"], ["--target-depth", "2", "--bound-mode", "tight"]),
    ],
    ids=["short-relation", "long-relation"],
)
def test_word_quotient_file_not_a_homomorphism(tmp_path, capsys, gens, images, depth_args):
    quotient_doc = {
        "schema": "quotient.v1",
        "target": group_to_json(Cyclic(10)),
        "images": images,
    }
    qpath = tmp_path / "quotient.json"
    qpath.write_text(dumps(quotient_doc))
    code = main([
        "construct", "--group", "zz", "--gens", gens,
        "--quotient", f"@{qpath}", *depth_args,
    ])
    assert code == EXIT_USAGE
    assert "map to different images" in capsys.readouterr().err


def test_finite_source_quotient_file_not_a_homomorphism(tmp_path, capsys):
    # C_25 -> C_10 with 1 -> 1 is not a homomorphism (25 -> 5 != 0); only a
    # word of length 13 or more shows it, so the check must run to closure
    quotient_doc = {
        "schema": "quotient.v1",
        "target": group_to_json(Cyclic(10)),
        "images": ["1"],
    }
    qpath = tmp_path / "quotient.json"
    qpath.write_text(dumps(quotient_doc))
    code = main([
        "construct", "--group", "cyclic:25", "--gens", "1",
        "--quotient", f"@{qpath}", "--target-depth", "2", "--bound-mode", "tight",
    ])
    assert code == EXIT_USAGE
    assert "map to different images" in capsys.readouterr().err


def test_depth_command(tmp_path):
    code, report = run(
        tmp_path,
        "depth", "--group", "zz", "--gens", "1", "--element", "5", "--radius", "10",
    )
    assert code == EXIT_OK
    assert report["results"] == {"depth": "1", "norm": 5}


def test_diameter_command(tmp_path):
    code, report = run(tmp_path, "diameter", "--group", "cyclic:10", "--gens", "1")
    assert code == EXIT_OK
    assert report["results"]["diameter"] == 5
    assert report["results"]["witness"] == "5"


def test_family_search_stops_at_once_when_the_target_exceeds_the_radius_budget(tmp_path, capsys):
    # every member the search could accept has a diameter above the radius budget
    for budget in ([], ["--budget-radius", "2000"]):
        started = time.monotonic()
        code, _ = run(tmp_path, "construct", "--group", "zz", "--gens", "1",
                      "--target-depth", "6000", *budget)
        assert code == EXIT_BUDGET and time.monotonic() - started < 1
        radius = budget[-1] if budget else "10000"
        assert capsys.readouterr().err == (
            f"budget exhausted: length target 11999 exceeds budget radius {radius}: "
            "no quotient within the budget reaches it\n")


def test_library_warning_is_one_stderr_line_on_every_run(tmp_path, capsys):
    # Z^2 -> C_6 with images 0, 1: the identity lies in the preimage and is dropped from A
    q = tmp_path / "q6.json"
    q.write_text('{"schema":"quotient.v1","target":{"schema":"group.v1","variant":"cyclic",'
                 '"modulus":"6"},"images":["0","1"]}')
    for _ in range(2):
        code, report = run(tmp_path, "verify", "--group", "grid:2", "--gens", "1,0;0,1",
                           "--quotient", f"@{q}", "--target-depth", "2", "--bound-mode", "tight")
        assert code == EXIT_OK and report["results"]["passed"]
        assert capsys.readouterr().err == (
            "warning: identity lies in the preimage of the generator images; dropped from A\n")


def test_paper_safe_family_starts_at_the_counting_bound(tmp_path, monkeypatch):
    import deadend.quotient

    built = []
    real = deadend.quotient.cyclic_quotient
    monkeypatch.setattr(deadend.quotient, "cyclic_quotient",
                        lambda gens, m, budget: built.append(m) or real(gens, m, budget))
    code, report = run(tmp_path, "construct", "--group", "zz", "--gens", "1", "--quotient",
                       "cyclic", "--quotient-mode", "paper_safe", "--target-depth", "3")
    assert code == EXIT_OK and report["results"]["passed"]
    assert report["inputs"]["quotient_order"] == 243  # 3^5, for n' = 5
    assert built == [243]


@pytest.mark.parametrize("mode, stop, target_depth, message", [
    ("paper_safe", "100", "3",
     "no cyclic quotient searched: the counting-bound order 3^5 lies above the stop 100"),
    ("greedy", "9", "3", "no cyclic quotient of order 2 to 9 reaches diameter 5"),
    # 3^199999999997 is never computed: it lies above any stop of fewer bits than its exponent
    ("paper_safe", "1000000", "99999999999", "no cyclic quotient searched: the counting-bound "
     "order 3^199999999997 lies above the stop 1000000"),
])
def test_family_exhaustion_names_the_orders_searched(tmp_path, capsys, mode, stop, target_depth,
                                                     message):
    code, _ = run(tmp_path, "construct", "--group", "zz", "--gens", "1", "--quotient", "cyclic",
                  "--quotient-mode", mode, "--quotient-max", stop, "--target-depth", target_depth)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cyclic_family_on_a_source_other_than_the_integers(tmp_path, capsys):
    code, _ = run(tmp_path, "construct", "--group", "grid:2", "--gens", "1,0;0,1",
                  "--quotient", "cyclic", "--target-depth", "2")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: cyclic quotient requires an IntegerLine source\n"


def test_diameter_command_budgets_the_radius_reached(tmp_path):
    code, report = run(tmp_path, "diameter", "--group", "cyclic:10001", "--gens", "1")
    assert code == EXIT_OK
    assert report["results"]["diameter"] == 5000
    code, _ = run(tmp_path, "diameter", "--group", "cyclic:100", "--gens", "1",
                  "--budget-radius", "10", name="small.json")
    assert code == EXIT_BUDGET


def test_grid_csvs_are_csv_writers_bytes(tmp_path):
    # grid texts such as (1,-2) hold a comma, so csv.writer quotes every one of them
    grid = IntegerGrid(2)
    gens = parse_gens(grid, "1,0;0,1;1,1")
    b = ball(grid, gens, 9)
    texts = list(map(grid.format_payload, b.payloads()))
    norms = list(b.dist.values())
    depths = [depth(b, x, 4).render() for x in b.elements()]
    common = ["--group", "grid:2", "--gens", "1,0;0,1;1,1", "--radius", "9"]
    for argv, header, rows in (
        (["ball", *common], ["element", "norm"], zip(texts, norms)),
        (["profile", *common, "--cap", "4"], ["element", "norm", "depth"], zip(texts, norms, depths)),
    ):
        path = tmp_path / f"{argv[0]}.csv"
        assert run(tmp_path, *argv, "--csv", str(path))[0] == EXIT_OK
        expected = csv_writer_bytes(tmp_path / "writer.csv", header, rows)
        assert path.read_bytes() == expected
        assert expected.count(b'"(') == len(b) > 256


def test_profile_command_with_csv(tmp_path):
    csv_path = tmp_path / "profile.csv"
    code, report = run(
        tmp_path,
        "profile", "--group", "cyclic:11", "--gens", "1", "--radius", "11",
        "--csv", str(csv_path),
    )
    assert code == EXIT_OK
    assert report["results"]["overall_max"] == "inf"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "element,norm,depth"
    assert len(lines) == 12


def test_profile_at_a_radius_far_beyond_the_ball(tmp_path):
    # C_5 closes at norm 2: the per-norm maxima are sized by the ball, not by --radius
    huge = str(2**40)
    code, report = run(tmp_path, "profile", "--group", "cyclic:5", "--gens", "1",
                       "--radius", huge, "--budget-radius", huge)
    assert code == EXIT_OK
    _, small = run(tmp_path, "profile", "--group", "cyclic:5", "--gens", "1", "--radius", "10",
                   name="small.json")
    assert report["results"]["max_depth_by_norm"] == small["results"]["max_depth_by_norm"]
    assert report["results"]["max_depth_by_norm"] == ["1", "1", "inf"]


def test_ball_command_with_cache(tmp_path):
    cache = tmp_path / "cache"
    code, report = run(
        tmp_path,
        "ball", "--group", "zz", "--gens", "2,3", "--radius", "2",
        "--cache-dir", str(cache),
    )
    assert code == EXIT_OK
    assert report["results"]["sphere_sizes"] == [1, 4, 8]
    assert len(list(cache.glob("ball-*.bin"))) == 1
    # second run hits the cache and reproduces the report
    code2, report2 = run(
        tmp_path,
        "ball", "--group", "zz", "--gens", "2,3", "--radius", "2",
        "--cache-dir", str(cache),
        name="report2.json",
    )
    assert code2 == EXIT_OK
    assert report2["results"] == report["results"]


def test_ball_command_recomputes_truncated_cache(tmp_path):
    cache = tmp_path / "cache"
    argv = ["ball", "--group", "zz", "--gens", "2,3", "--radius", "5", "--cache-dir", str(cache)]
    code, report = run(tmp_path, *argv)
    assert code == EXIT_OK
    (path,) = cache.glob("ball-*.bin")
    data = path.read_bytes()
    path.write_bytes(data[:200])
    code2, report2 = run(tmp_path, *argv, name="report2.json")
    assert code2 == EXIT_OK
    assert report2["results"]["sphere_sizes"] == report["results"]["sphere_sizes"]
    assert path.read_bytes() == data
    assert list(cache.iterdir()) == [path]


@pytest.mark.parametrize("command", [["ball"], ["depth", "--element", "2"]])
def test_cache_dir_skips_a_radius_beyond_the_cache_header(tmp_path, command):
    """The cache header's radius field is u32: a larger radius runs uncached."""
    for radius, files in ((2**32, 0), (2**32 - 1, 1)):
        cache = tmp_path / f"cache-{radius}"
        argv = [*command, "--group", "cyclic:5", "--gens", "1", f"--radius={radius}",
                f"--budget-radius={radius}"]
        reports = [run(tmp_path, *argv, name="plain.json"),
                   run(tmp_path, *argv, "--cache-dir", str(cache), name="miss.json"),
                   run(tmp_path, *argv, "--cache-dir", str(cache), name="hit.json")]
        results = [(code, report["results"]) for code, report in reports]
        assert results == [(EXIT_OK, reports[0][1]["results"])] * 3
        written = list(cache.glob("*"))
        assert len(written) == files and all(p.match("ball-*.bin") for p in written)


# -- exit codes --------------------------------------------------------------------


def test_usage_error_exit_code(tmp_path):
    assert main(["depth", "--group", "nope", "--element", "1", "--radius", "2"]) == EXIT_USAGE
    assert main(["depth", "--group", "zz", "--radius", "2"]) == EXIT_USAGE
    assert main(["construct", "--group", "zz", "--gens", "1"]) == EXIT_USAGE


@pytest.mark.parametrize("target_depth", ["1", "0", "-5"])
def test_target_depth_below_two_is_a_usage_error(capsys, target_depth):
    for command in ("verify", "construct", "certify"):
        argv = [command, "--group", "zz", "--gens", "1", "--quotient", "cyclic:10"]
        assert main([*argv, "--target-depth", target_depth]) == EXIT_USAGE
        message = f"--target-depth must be >= 2, got {target_depth}"
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("modulus,target_depth,diameter", [(2, 2, 1), (4, 3, 2)])
def test_quotient_diameter_too_small_names_the_diameter(capsys, modulus, target_depth, diameter):
    code = main(["construct", "--group", "zz", "--gens", "1", "--quotient", f"cyclic:{modulus}",
                 "--target-depth", str(target_depth)])
    assert code == EXIT_USAGE
    needs = 2 * (target_depth - 1)
    message = (f"error: quotient diameter {diameter} is too small for target depth "
               f"{target_depth} (needs a diameter above {needs})")
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["ball", "--group", "zz", "--gens", "1", "--radius", "2", "--csv", "{missing}/b.csv"],
        ["profile", "--group", "zz", "--gens", "1", "--radius", "2", "--csv", "{missing}/p.csv"],
        ["ball", "--group", "zz", "--gens", "1", "--radius", "2", "--out", "{missing}/r.json"],
        ["ball", "--group", "zz", "--gens", "1", "--radius", "2", "--cache-dir", "{file}/cache"],
    ],
    ids=["ball-csv", "profile-csv", "out", "cache-dir"],
)
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "file": tmp_path / "file"}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_argparse_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == EXIT_USAGE


def _package_exceptions() -> list[type]:
    """Every exception class defined in a module of the deadend package."""
    found = []
    for info in pkgutil.walk_packages(deadend.__path__, "deadend."):
        module = importlib.import_module(info.name)
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__]
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


PACKAGE_EXCEPTIONS = _package_exceptions()


def test_package_exceptions_are_all_found():
    names = {cls.__name__ for cls in PACKAGE_EXCEPTIONS}
    assert {"UsageError", "GroupError", "BudgetExceededError", "VerificationError"} <= names


@pytest.mark.parametrize("cls", PACKAGE_EXCEPTIONS, ids=lambda cls: cls.__name__)
def test_every_package_exception_has_its_exit_code(monkeypatch, capsys, cls):
    exc = cls.__new__(cls)  # past any __init__ that wants more than a message
    Exception.__init__(exc, "probe")

    def handler(args):
        raise exc

    command_help, _, flags = _COMMANDS["ball"]
    monkeypatch.setitem(_COMMANDS, "ball", (command_help, handler, flags))
    if cls is BudgetExceededError:
        want = EXIT_BUDGET
    elif issubclass(cls, ConstructionError):
        want = EXIT_VERIFICATION
    else:
        want = EXIT_USAGE
    assert main(["ball", "--group", "zz"]) == want
    err = capsys.readouterr().err
    assert err.endswith(": probe\n") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["gens", "group", "quotient"])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, kind):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(reading_document(kind, path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed JSON in {path}: ") and err.count("\n") == 1


def test_budget_exit_code(tmp_path):
    code = main(
        [
            "ball", "--group", "zz", "--gens", "1", "--radius", "100",
            "--budget-elements", "5",
        ]
    )
    assert code == EXIT_BUDGET


def test_certificates_past_the_time_budget_exit_3(tmp_path, clock, capsys):
    argv = ["construct", "--group", "zz", "--gens", "1", "--quotient", "cyclic:10",
            "--target-depth", "3", "--budget-seconds", "5"]
    assert run(tmp_path, *argv)[0] == EXIT_OK  # under a standing clock, counting its readings
    # the last two readings are the one batch of certificates' and the report's:
    # every search before them is on time, and the certificates are due at 10
    clock.set(*[0.0] * (clock.reads - 2), 10.0)
    code, report = run(tmp_path, *argv, name="late.json")
    assert (code, report) == (EXIT_BUDGET, None)
    assert capsys.readouterr().err == (
        "budget exhausted: time budget 5.0s exceeded in certificates after 0 of 117 neighbours\n")


def test_the_report_and_the_budget_read_one_clock(tmp_path, clock, capsys):
    # the run's first reading starts both the report's timing and the budget's
    # clock; every later reading is 3 s on
    argv = ["ball", "--group", "zz", "--gens", "1", "--radius", "3"]
    clock.set(100.0, 103.0)
    code, report = run(tmp_path, *argv, "--budget-seconds", "3.5")
    assert code == EXIT_OK and report["timing"] == {"seconds": 3.0}
    clock.set(100.0, 103.0)
    assert run(tmp_path, *argv, "--budget-seconds", "2.5", name="late.json") == (EXIT_BUDGET, None)
    assert capsys.readouterr().err == "budget exhausted: time budget 2.5s exceeded\n"


def test_a_family_search_shares_the_runs_deadline(tmp_path, clock, capsys):
    # a clock that moves 0.01 s a reading; a BFS reads it once a layer, so
    # Z -> C_m reads it about m / 2 times.  At target depth 10 the greedy
    # search builds C_2 to C_38: each member alone fits in 1 s, and together
    # they do not
    clock.set(*(i / 100 for i in range(10_000)))
    unit = GeneratingSet([IntegerLine().element(1)])
    for m in range(2, 39):
        cyclic_quotient(unit, m, Budget(max_seconds=1, started=clock()))
    before = clock.reads  # about 400: what the whole search would read
    code, report = run(tmp_path, "construct", "--group", "zz", "--gens", "1", "--quotient",
                       "cyclic", "--target-depth", "10", "--budget-seconds", "1")
    assert (code, report) == (EXIT_BUDGET, None)
    assert capsys.readouterr().err == "budget exhausted: time budget 1.0s exceeded\n"
    assert clock.reads - before <= 102  # the run's reading, then 1 s of checks


def test_lamplighter_budget_stop_names_the_homomorphism_check(tmp_path, capsys):
    # {a, 0@2} does not generate the lamplighter: no S-word for t exists, so
    # the homomorphism check's BFS runs into the element budget
    quotient_doc = {
        "schema": "quotient.v1",
        "target": group_to_json(Dihedral(4)),
        "images": [{"rot": "0", "ref": "1"}, {"rot": "1", "ref": "1"}],
    }
    qpath = tmp_path / "q_d4.json"
    qpath.write_text(dumps(quotient_doc))
    start = time.monotonic()
    code = main([
        "construct", "--group", "lamplighter", "--gens", "a,0@2", "--quotient", f"@{qpath}",
        "--target-depth", "2", "--budget-elements", "20000",
    ])
    seconds = time.monotonic() - start
    err = capsys.readouterr().err
    assert code == EXIT_BUDGET
    assert seconds < 1
    assert "in the homomorphism check, looking for S-words for t and a" in err
    assert "S may not generate the lamplighter" in err
    assert "Traceback" not in err


def test_lamplighter_generator_whose_inverse_passes_the_cap_is_a_usage_error(tmp_path, capsys):
    # a lamp at the 64-bit cap with the cursor at -1: the inverse lights 2^63
    cap = 2**63 - 1
    code, report = run(tmp_path, "ball", "--group", "lamplighter", "--gens", f"t,{cap}@-1",
                       "--radius", "1")
    assert (code, report) == (EXIT_USAGE, None)
    assert capsys.readouterr().err == (f"error: bad generating set 't,{cap}@-1': lamp position "
                                       f"{cap} - -1 exceeds the 64-bit cap\n")


def test_invalid_quotient_for_gens(tmp_path):
    # images of {2} do not generate C_10
    code = main(
        [
            "construct", "--group", "zz", "--gens", "2",
            "--quotient", "cyclic:10", "--target-depth", "3",
        ]
    )
    assert code == EXIT_USAGE


# -- config files and reproducibility --------------------------------------------------


def test_config_file_supplies_flags(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "# construction sweep defaults\n"
        'quotient = "cyclic:10"\n'
        "target_depth = 3\n"
        "bound_mode = tight\n"
    )
    code, report = run(
        tmp_path,
        "construct", "--group", "zz", "--gens", "1", "--config", str(config),
    )
    assert code == EXIT_OK
    assert report["inputs"]["params"]["N"] == 38


def test_flags_override_config(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("bound_mode = tight\ntarget_depth = 3\nquotient = cyclic:10\n")
    code, report = run(
        tmp_path,
        "construct", "--group", "zz", "--gens", "1",
        "--config", str(config), "--bound-mode", "paper",
    )
    assert code == EXIT_OK
    assert report["inputs"]["params"]["N"] == 78


def test_config_family_aliases(tmp_path, capsys):
    """A quotient family is configured by the flags' own keys; family and max_m are unknown."""
    config = tmp_path / "run.conf"
    config.write_text('quotient = "cyclic"\nquotient_max = 100000\ntarget_depth = 3\n')
    argv = ["construct", "--group", "zz", "--gens", "1", "--config", str(config)]
    code, report = run(tmp_path, *argv)
    assert code == EXIT_OK
    assert report["inputs"]["quotient"] == "cyclic"
    assert report["inputs"]["quotient_order"] == 10
    capsys.readouterr()
    for alias, value in (("family", '"cyclic"'), ("max_m", "100000")):
        config.write_text(f"{alias} = {value}\ntarget_depth = 3\n")
        code, report = run(tmp_path, *argv, name=f"{alias}.json")
        assert (code, report) == (EXIT_USAGE, None)
        assert capsys.readouterr().err == f"error: unknown config key '{alias}'\n"


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("frobnicate = 1\n")
    code = main(
        [
            "depth", "--group", "zz", "--gens", "1", "--element", "1",
            "--radius", "3", "--config", str(config),
        ]
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, flag", [
    (["ball", "--group=--", "--gens=1", "--radius=1"], "group"),
    (["ball", "--group=zz", "--gens=--", "--radius=1"], "gens"),
    (["construct", "--group=zz", "--quotient-mode=--", "--target-depth=3"], "quotient-mode"),
    (["ball", "--group=zz", "--config=--", "--radius=1"], "config"),
])
def test_double_dash_as_a_flag_value_is_a_usage_error(capsys, argv, flag):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse on Python 3.13 rejects "--" for an int or a choice
        code = exc.code
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: --{flag} needs a value" in err or f"'--'" in err


def test_group_config_key_rejected(tmp_path, capsys):
    # --group is a required flag, so a group key in the file could never apply
    config = tmp_path / "run.conf"
    config.write_text("group = zz\n")
    code = main(["ball", "--group", "zz", "--gens", "1", "--radius", "2", "--config", str(config)])
    assert code == EXIT_USAGE
    assert "unknown config key 'group'" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("budget_seconds = abc", "config key 'budget_seconds': could not convert string to float: 'abc'"),
    ("radius = 2.5", "config key 'radius': invalid literal for int() with base 10: '2.5'"),
])
def test_unparsable_config_value_names_its_key(tmp_path, capsys, line, message):
    config = tmp_path / "run.conf"
    config.write_text(line + "\n")
    code = main(["ball", "--group", "zz", "--gens", "1", "--config", str(config)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


# Per config key: a value that is not its default, and a second such value.
FLAG_SAMPLES = {
    "gens": ("1", "2,3"),
    "quotient": ("cyclic:10", "cyclic"),
    "quotient_mode": ("paper_safe", "greedy"),
    "quotient_max": ("500", "7"),
    "target_depth": ("3", "4"),
    "bound_mode": ("tight", "paper"),
    "element": ("4", "-2"),
    "radius": ("5", "9"),
    "cap": ("7", "64"),
    "csv": ("rows.csv", "other.csv"),
    "out": ("report.json", "other.json"),
    "cache_dir": ("cache", "other-cache"),
    "budget_elements": ("1000", "20"),
    "budget_radius": ("50", "3"),
    "budget_seconds": ("2.5", "60"),
}


def test_every_flag_reads_the_same_from_a_config_file(tmp_path):
    """Per subcommand and flag: ``key = value`` in --config gives the namespace
    that the flag gives, and the flag wins over the file."""
    assert FLAG_SAMPLES.keys() == _FLAGS.keys()
    parser, config = build_parser(), tmp_path / "run.conf"

    def merged(*argv):
        args = vars(_merge_config(parser.parse_args(argv)))
        args.pop("config")
        return args

    covered = set()
    for command, (_, _, flags) in _COMMANDS.items():
        for key in {**_COMMON, **flags}.keys() & _FLAGS.keys():
            flag, (value, other) = "--" + key.replace("_", "-"), FLAG_SAMPLES[key]
            base = (command, "--group", "zz")
            by_flag = merged(*base, flag, value)
            assert by_flag[key] != _FLAGS[key][1]
            config.write_text(f"{key} = {value}\n")
            assert merged(*base, "--config", str(config)) == by_flag, (command, key)
            config.write_text(f"{key} = {other}\n")
            assert merged(*base, "--config", str(config), flag, value) == by_flag, (command, key)
            covered.add(key)
    assert covered == _FLAGS.keys()


def test_parser_is_built_once_and_depth_help_states_the_cap_default(capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit):
        main(["depth", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    args = _merge_config(build_parser().parse_args(["depth", "--group", "zz"]))
    assert f"depth search cap (default {args.cap})" in help_text


def test_reports_reproducible_modulo_timing(tmp_path):
    argv = [
        "construct", "--group", "zz", "--gens", "1",
        "--quotient", "cyclic:10", "--target-depth", "3",
    ]
    code1, r1 = run(tmp_path, *argv, name="a.json")
    code2, r2 = run(tmp_path, *argv, name="b.json")
    assert code1 == code2 == EXIT_OK
    r1.pop("timing")
    r2.pop("timing")
    assert dumps(r1) == dumps(r2)


def test_report_echoes_digest_and_params(tmp_path):
    code, report = run(
        tmp_path,
        "construct", "--group", "zz", "--gens", "1",
        "--quotient", "cyclic:10", "--target-depth", "3",
    )
    assert code == EXIT_OK
    assert len(report["inputs_digest"]) == 64
    for key in ("n", "d", "N", "bound_mode"):
        assert key in report["inputs"]["params"]


_ZZ_GROUP = {"schema": "group.v1", "variant": "integer_line"}
_C10_GROUP = {"schema": "group.v1", "variant": "cyclic", "modulus": "10"}
MALFORMED_DOCUMENTS = {
    "quotient-no-target": ("quotient", {"schema": "quotient.v1", "images": ["1"]}),
    "quotient-no-images": ("quotient", {"schema": "quotient.v1", "target": _C10_GROUP}),
    "quotient-images-not-a-list": (
        "quotient", {"schema": "quotient.v1", "target": _C10_GROUP, "images": 5},
    ),
    "table-no-identity": (
        "group", {"schema": "group.v1", "variant": "table", "table": [["0"]]},
    ),
    "table-rows-strings": (
        "group", {"schema": "group.v1", "variant": "table", "table": ["01", "10"], "identity": "0"},
    ),
    "table-cell-a-list": (
        "group", {"schema": "group.v1", "variant": "table", "table": [[0, [1]], [1, 0]],
                  "identity": "0"},
    ),
    "table-cell-a-float": (
        "group", {"schema": "group.v1", "variant": "table", "table": [[0, 1.9], [1.2, 0]],
                  "identity": "0"},
    ),
    "table-cell-infinity": (
        "group", {"schema": "group.v1", "variant": "table", "table": [[0, float("inf")], [1, 0]],
                  "identity": "0"},
    ),
    "quotient-image-a-float": (
        "quotient", {"schema": "quotient.v1", "target": _C10_GROUP, "images": [1.0]},
    ),
    "grid-no-rank": ("group", {"schema": "group.v1", "variant": "integer_grid"}),
    "group-unknown-variant": ("group", {"schema": "group.v1", "variant": "klein"}),
    "group-variant-a-list": ("group", {"schema": "group.v1", "variant": ["table"]}),
    "genset-no-entries": ("gens", {"schema": "genset.v1", "group": _ZZ_GROUP}),
    "genset-entries-a-string": (
        "gens", {"schema": "genset.v1", "group": _ZZ_GROUP, "entries": "12"},
    ),
    "genset-labels-not-a-list": (
        "gens", {"schema": "genset.v1", "group": _ZZ_GROUP, "entries": ["1"], "labels": 7},
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_json_document_is_a_usage_error(tmp_path, capsys, case):
    kind, doc = MALFORMED_DOCUMENTS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(reading_document(kind, path)) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


# Values a fuzzed group.v1 table may hold where an id or a name belongs.
ODD_VALUES = ["x", "", " 1", "05", "+1", "-0", "1e3", "99999999999999999999",
              None, [1], {}, True, False, 1.5, -1]


@st.composite
def mutated_table_docs(draw):
    """A relabelled cyclic group.v1 table of order 1..6, then up to three
    mutations of its cells, rows, shape, identity or name."""
    m = draw(st.integers(1, 6))
    label = draw(st.permutations(range(m)))
    rows = [[""] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            rows[label[a]][label[b]] = str(label[(a + b) % m])
    doc = {"schema": "group.v1", "variant": "table", "name": "fuzz",
           "identity": str(label[0]), "table": rows}
    value = st.one_of(st.integers(-2, m + 2), st.integers(-2, m + 2).map(str),
                      st.sampled_from(ODD_VALUES))
    for kind in draw(st.lists(st.sampled_from(["cell", "row", "shape", "identity", "name"]),
                              max_size=3)):
        t = doc.get("table")
        if kind == "identity":
            if draw(st.booleans()):
                doc["identity"] = draw(value)
            else:
                doc.pop("identity", None)
        elif kind == "name":
            doc["name"] = draw(value)
        elif kind == "shape":
            doc["table"] = draw(st.sampled_from([[], [[]], [[["0"]]], "01", {}, None, 3]))
        elif not isinstance(t, list) or not t:
            continue
        elif kind == "row":
            i = draw(st.integers(0, len(t) - 1))
            op = draw(st.sampled_from(["drop", "copy", "swap", "scalar", "shorten", "lengthen"]))
            if op == "drop":
                del t[i]
            elif op == "copy":
                t.insert(i, list(t[i]) if isinstance(t[i], list) else t[i])
            elif op == "swap":
                j = draw(st.integers(0, len(t) - 1))
                t[i], t[j] = t[j], t[i]
            elif op == "scalar":
                t[i] = draw(st.sampled_from(["01", 5, None, {}]))
            elif isinstance(t[i], list):
                t[i] = t[i][:-1] if op == "shorten" else [*t[i], draw(value)]
        else:  # a cell: set it, or swap it with another of its row
            i = draw(st.integers(0, len(t) - 1))
            if isinstance(t[i], list) and t[i]:
                j, k = (draw(st.integers(0, len(t[i]) - 1)) for _ in "jk")
                if draw(st.booleans()):
                    t[i][j] = draw(value)
                else:
                    t[i][j], t[i][k] = t[i][k], t[i][j]
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=mutated_table_docs(), gens=st.sampled_from(["1", "1,2", "0,1"]))
def test_fuzzed_table_documents_exit_0_or_2(tmp_path_factory, doc, gens):
    path = tmp_path_factory.getbasetemp() / "fuzzed-table.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["diameter", "--group", f"table:{path}", "--gens", gens])  # raises on a crash
    assert code in (EXIT_OK, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    assert (code == EXIT_OK) == (err.getvalue() == "")


def test_certify_element_without_s_word_is_a_usage_error(capsys):
    # 100000 lies outside the radius-78 S-ball and far from the witness 5
    code = main([
        "certify", "--group", "zz", "--gens", "1",
        "--quotient", "cyclic:10", "--target-depth", "3", "--element", "100000",
    ])
    assert code == EXIT_USAGE
    assert "error: no S-word available" in capsys.readouterr().err


# -- the report writer ------------------------------------------------------------------

_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
                 | st.text() | st.sampled_from(['"', "\n", "},", "},\n  {", "é ü 漢 \u2028"]))
_KEYS = st.text(max_size=4) | st.sampled_from(['"', "\n", "},", "é"])
_FLAT_ROWS = st.lists(st.dictionaries(_KEYS, _JSON_SCALARS, min_size=1, max_size=4), max_size=4)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | _FLAT_ROWS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_KEYS, children, max_size=4)
    | st.lists(st.dictionaries(_KEYS, children, max_size=3), max_size=3),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(_JSON_DOCS)
def test_report_text_equals_json_dumps_indent_2(doc):
    assert _report_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_report_text_of_a_verification_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--group", "zz", "--gens", "1", "--quotient", "cyclic:14",
                 "--target-depth", "4", "--out", str(out)]) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
