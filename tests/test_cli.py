import argparse
import datetime
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from echcap import (DisjointUnion, Ellipsoid, SpecParseError, ToricNorm,
                    WeightedL1, asymptotics, capacities, cli, obstructions,
                    polydisk_capacities)
from echcap.asymptotics import QwVerdict
from echcap.cli import format_value, main, parse_domain_spec
from echcap.lattice import resolve_node_limit
from echcap.values import CapacityValue


# -- spec parsing --------------------------------------------------------------

def test_parse_basic_domains():
    dom = parse_domain_spec("ellipsoid(3/2,2)")
    assert isinstance(dom, Ellipsoid)
    assert dom.a == Fraction(3, 2) and dom.b == 2
    toric = parse_domain_spec("toric(l1:1,2)")
    assert isinstance(toric, ToricNorm)
    assert isinstance(toric.norm, WeightedL1)
    union = parse_domain_spec("union(ball(1);polydisk(1,1))")
    assert isinstance(union, DisjointUnion) and len(union.parts) == 2


def test_parse_nested_union_and_poly():
    dom = parse_domain_spec(
        "union(toric(poly:[[1,0],[0,1],[-1,0],[0,-1]]);ball(2))")
    assert isinstance(dom, DisjointUnion)


def test_polygon_literal_takes_rational_vertices():
    # the unit ball |x| + |y| <= 1/2 is the gauge 2|x| + 2|y| of l1:4,4
    dom = parse_domain_spec("toric(poly:[[1/2,0],[0,1/2],[-1/2,0],[0,-1/2]])")
    assert capacities(dom, 12) == capacities(ToricNorm(WeightedL1(4, 4)), 12) \
        == polydisk_capacities(4, 4, 12)


def test_parse_errors_carry_positions():
    cases = ["ball(0.5)", "ball(1", "blob(1)", "ellipsoid(1;2)",
             "ball(1) extra", "toric(l2:1,1)", "ball(1/0)"]
    for text in cases:
        with pytest.raises(SpecParseError) as err:
            parse_domain_spec(text)
        assert err.value.position >= 0


@pytest.mark.parametrize("text, message, position", [
    ("ball(1,2)", "expected ')'", 6),
    ("ball()", "expected a rational number (p/q or integer)", 5),
    ("ellipsoid(1;2)", "expected ','", 11),
    ("ellipsoid(1,2", "expected ')'", 13),
    ("polydisk(1,)", "expected a rational number (p/q or integer)", 11),
    ("polydisk(1/0,2)", "bad rational '1/0'", 9),
    ("toric(l1:1)", "expected ','", 10),
    ("toric(l1:1,2/0)", "bad rational '2/0'", 11),
    (" ", "expected a name", 1),
    ("toric(poly:[[1,0],[-1,0]])", "polygonal unit ball needs at least 4 vertices", 25),
])
def test_size_list_errors_keep_message_and_position(text, message, position):
    # captured when each domain read its sizes with its own rational/expect calls
    with pytest.raises(SpecParseError) as err:
        parse_domain_spec(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_deeply_nested_spec_is_a_parse_error(capsys):
    deep = "union(" * 200 + "ball(1)" + ")" * 200
    dom = parse_domain_spec(deep)
    for _ in range(200):
        assert isinstance(dom, DisjointUnion) and len(dom.parts) == 1
        dom = dom.parts[0]
    too_deep = "union(" * 2000 + "ball(1)" + ")" * 2000
    with pytest.raises(SpecParseError, match="spec nested too deeply") as err:
        parse_domain_spec(too_deep)
    assert 0 < err.value.position < len(too_deep)
    assert main(["capacities", too_deep]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: spec nested too deeply (at position ")
    assert "Traceback" not in err


def test_union_nested_too_deep_to_evaluate_is_a_usage_error(capsys):
    # 600 levels parse, but hashing and evaluating the parts recurse once
    # per level (or more) and run out of stack
    for depth, code in [(300, 0), (600, 2)]:
        spec = "union(" * depth + "ball(1)" + ")" * depth
        assert main(["capacities", spec, "--kmax", "3"]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert captured.out == "0,1,1,2\n"
        else:
            assert captured.out == ""
            assert captured.err == "error: spec nested too deeply\n"


def test_format_value():
    assert format_value(CapacityValue.exact(Fraction(5))) == "5"
    assert format_value(CapacityValue.exact(Fraction(3, 2))) == "3/2"
    assert format_value(CapacityValue.infinite()) == "inf"
    assert format_value(CapacityValue.sqrt_rational(2)) == "~1.414213562373"


# -- commands ------------------------------------------------------------------

def test_capacities_csv(capsys):
    code = main(["capacities", "polydisk(1,1)", "--kmax", "11"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0,1,2,2,3,3,4,4,4,5,5,5"


def test_capacities_kmax_zero(capsys):
    assert main(["capacities", "ball(1)", "--kmax", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_capacities_toric_euclidean(capsys):
    code = main(["capacities", "toric(euclidean)", "--kmax", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0,2,~3.414213562373,4"


def test_capacities_json_roundtrip(capsys):
    code = main(["capacities", "ellipsoid(1,2)", "--kmax", "5",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == ["0", "1", "2", "2", "3", "3"]
    assert payload["index_origin"] == 0


def test_capacities_full_flag(capsys):
    assert main(["capacities", "ellipsoid(1,1)", "--kmax", "3", "--full"]) == 0
    assert capsys.readouterr().out.strip() == "0,1,1"
    # a spec that parsed but has no full sequence is no parse error
    for spec in ("polydisk(1,1)", "toric(euclidean)", "union(ball(1);ball(2))"):
        assert main(["capacities", spec, "--kmax", "3", "--full"]) == 2
        assert capsys.readouterr().err == \
            "error: --full is defined for balls and ellipsoids only\n"


def test_embed_no_obstruction(capsys):
    code = main(["embed", "ellipsoid(1,2)", "polydisk(1,1)", "--kmax", "50"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "no_obstruction"


def test_embed_union_into_its_reordering(capsys):
    code = main(["embed", "union(ellipsoid(1,2);toric(euclidean);toric(l1:1,1))",
                 "union(toric(l1:1,1);ellipsoid(1,2);toric(euclidean))",
                 "--kmax", "16"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "no_obstruction"


def test_embed_strict_self(capsys):
    code = main(["embed", "ball(1)", "ball(1)", "--mode", "strict"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "obstructed"
    assert payload["witness_k"] == 1


def test_embed_ellipsoid_into_small_ball(capsys):
    code = main(["embed", "ellipsoid(2,1)", "ball(3/2)", "--kmax", "20"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness_k"] == 2
    assert payload["lower"] == "2"
    assert payload["upper"] == "3/2"


def test_fbound(capsys):
    assert main(["fbound", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["fbound", "5", "--dmax", "10"]) == 0
    assert capsys.readouterr().out.strip() == "5/2"
    assert main(["fbound", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    # a thin ellipsoid lists about kmax values, not sqrt(2a*kmax) of them
    assert main(["fbound", str(10 ** 400), "--dmax", "2"]) == 0
    assert capsys.readouterr().out == "5/2\n"
    assert main(["capacities", "ellipsoid(1000000000000,1)", "--kmax", "5"]) == 0
    assert capsys.readouterr().out == "0,1,2,3,4,5\n"


def test_gbound(capsys):
    assert main(["gbound", "7/2", "--dmax", "6"]) == 0
    assert capsys.readouterr().out.strip() == "8/3"


def test_size_list_error_points_at_the_stripped_token(capsys):
    # position 5 is the 'x' itself, not the space before it, as in a spec
    assert main(["pack", "1/2, x", "--dmax", "2"]) == 2
    assert capsys.readouterr().err == "error: bad rational 'x' (at position 5)\n"
    assert main(["biran", "1/2,1/3,  1/0"]) == 2
    assert capsys.readouterr().err == "error: bad rational '1/0' (at position 10)\n"


@pytest.mark.parametrize("argv, token, position", [
    (["pack", "0.5,1e-1", "--dmax", "1"], "0.5", 0),
    (["pack", "1/2,+5"], "+5", 4),
    (["biran", "1/4, 1e-1"], "1e-1", 5),
    (["biran", "1/2,1/3,"], "", 8),
    (["fbound", "1e400", "--dmax", "2"], "1e400", 0),
    (["fbound", " 2.5"], "2.5", 1),
    (["gbound", "7/2/1"], "7/2/1", 0),
    (["gbound", "-3"], "-3", 0),
    (["capacities", "ball(1/0)"], "1/0", 5),
    (["capacities", "ball(\u0663)"], "\u0663", 5),
])
def test_sizes_are_integers_or_p_over_q_everywhere(capsys, argv, token, position):
    # specs, size lists and the a of fbound/gbound read one rational token:
    # no sign, decimal, exponent or non-ASCII digit, surrounding spaces allowed
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: bad rational {token!r} (at position {position})\n"


def test_sizes_may_be_surrounded_by_whitespace(capsys):
    assert main(["fbound", " 5 ", "--dmax", "10"]) == 0
    assert capsys.readouterr().out == "5/2\n"
    assert main(["pack", " 1/2 ,1/2 ", "--dmax", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["a_list"] == ["1/2", "1/2"]


def test_pack(capsys):
    code = main(["pack", "1/2,1/2", "--dmax", "3"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "obstructed"
    code = main(["pack", "1/4", "--dmax", "3"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["all_hold"] is True


def test_biran(capsys):
    assert main(["biran", "1,1"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fails_volume"
    assert main(["biran", "1/2,1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "sufficient"
    # within the volume, but a + b <= 1 (d = 1, multipliers 1, 1) fails
    assert main(["biran", "3/4,1/2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["multipliers"], payload["bound"]) == \
        ("fails_inequality", [1, 1], 1)


def test_asym_csv(capsys):
    code = main(["asym", "ball(1)", "--kmax", "100", "--stride", "20"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,c_k,ratio"
    assert all(len(line.split(",")) == 3 for line in lines)


def test_asym_json_truncation_label(capsys):
    code = main(["asym", "toric(euclidean)", "--kmax", "20", "--stride", "5",
                 "--format", "json"])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["truncated"] is True
    assert "truncated" in captured.err


def test_asym_and_qw_truncate_unions_with_a_toric_part(capsys):
    code = main(["asym", "union(toric(l1:1,1);ball(1))", "--kmax", "1000",
                 "--format", "json"])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["truncated"] is True
    assert payload["trace"][-1]["k"] == 25
    assert "truncated at k=25" in captured.err
    assert main(["qw", "union(toric(euclidean);ball(1))", "--kmax", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["kmax"] == 25


def test_qw(capsys):
    assert main(["qw", "ball(1)", "--kmax", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "holds_up_to"
    assert main(["qw", "polydisk(1,1)", "--kmax", "50"]) == 0
    assert json.loads(capsys.readouterr().out)["exploratory"] is True


def test_qw_violation_payload(capsys, monkeypatch):
    monkeypatch.setattr(asymptotics, "qw_check",
                        lambda domain, kmax, node_limit=None: QwVerdict(False, 5, 3))
    assert main(["qw", "ball(1)", "--kmax", "5"]) == 1
    out = capsys.readouterr().out
    assert '"status": "violated_at"' in out and '"k": 3' in out
    assert json.loads(out) == {"spec": "ball(1)", "kmax": 5, "status": "violated_at",
                               "exploratory": False, "k": 3}


def test_parse_error_exit_code(capsys):
    assert main(["capacities", "ball(oops)"]) == 2
    assert "position" in capsys.readouterr().err


def test_polygon_literal_rejects_non_integer_coordinates(capsys):
    # coordinates are integers or p/q: a decimal stops after its integer
    # part, and a JSON boolean or string is no rational
    for x, message in (("1.5", "expected ',' (at position 14)"),
                       ("1.0", "expected ',' (at position 14)"),
                       ("true", "expected a rational number (p/q or integer) (at position 13)"),
                       ('"1"', "expected a rational number (p/q or integer) (at position 13)")):
        spec = f"toric(poly:[[{x},0],[0,1],[-1,0],[0,-1]])"
        assert main(["capacities", spec, "--kmax", "4"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["capacities", "toric(poly:[[1,0],[0,1],[-1,0],[0,-1]])",
                 "--kmax", "4"]) == 0
    assert capsys.readouterr().out == "0,2,4,4,6\n"


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def test_node_limit_exit_code(capsys):
    code = main(["capacities", "toric(euclidean)", "--kmax", "20",
                 "--node-limit", "10"])
    assert code == 3
    err = capsys.readouterr().err
    assert "node limit of 10" in err
    assert "lattice-point cap 21" in err
    assert "perimeter budget" in err


def test_node_limit_exit_notes_search_progress(capsys):
    assert main(["capacities", "toric(euclidean)", "--kmax", "20",
                 "--node-limit", "50"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: polygon search exceeded its node limit of 50 "
        "(lattice-point cap 21, perimeter budget 13.6568542495)",
        "note: search stopped at direction 7 of 44"]


def test_node_limit_leaves_l1_capacities_alone(capsys):
    # toric(l1:a,b) reads the polydisk kernel: no search, so no node limit
    assert main(["capacities", "toric(l1:1,1)", "--kmax", "300",
                 "--node-limit", "100"]) == 0
    out = capsys.readouterr().out
    assert main(["capacities", "polydisk(1,1)", "--kmax", "300"]) == 0
    assert out == capsys.readouterr().out
    assert main(["capacities", "toric(poly:[[2,1],[-1,1],[-2,-1],[1,-1]])",
                 "--kmax", "14", "--node-limit", "100"]) == 3


def test_env_node_limit(capsys, monkeypatch):
    monkeypatch.setenv("ECHCAP_NODE_LIMIT", "10")
    assert main(["capacities", "toric(euclidean)", "--kmax", "20"]) == 3
    monkeypatch.delenv("ECHCAP_NODE_LIMIT")


def test_negative_or_malformed_node_limit_is_a_usage_error(capsys, monkeypatch):
    with pytest.raises(ValueError, match="node limit must be >= 0"):
        resolve_node_limit(-5)
    for bad in (2.5, math.inf):
        with pytest.raises(ValueError, match="must be integers"):
            resolve_node_limit(bad)
    # commands and domains that never search reject a bad limit too
    for argv in (["capacities", "toric(euclidean)", "--kmax", "4"],
                 ["capacities", "ball(1)", "--kmax", "3"], ["fbound", "5"],
                 ["pack", "1/2"]):
        assert main(argv + ["--node-limit", "-5"]) == 2
        assert "node limit must be >= 0, got -5" in capsys.readouterr().err
        monkeypatch.setenv("ECHCAP_NODE_LIMIT", "-5")
        assert main(argv) == 2
        assert "node limit must be >= 0, got -5" in capsys.readouterr().err
        monkeypatch.setenv("ECHCAP_NODE_LIMIT", "ten")
        assert main(argv) == 2
        assert "ECHCAP_NODE_LIMIT must be an integer, got 'ten'" in capsys.readouterr().err
        monkeypatch.delenv("ECHCAP_NODE_LIMIT")
    # 0 stays a valid limit
    assert main(["capacities", "toric(euclidean)", "--kmax", "4", "--node-limit", "0"]) == 3
    assert main(["capacities", "ball(1)", "--kmax", "3", "--node-limit", "0"]) == 0
    assert capsys.readouterr().out == "0,1,1,2\n"
    assert resolve_node_limit(0) == 0


def test_meta_sidecar(tmp_path, capsys):
    meta = tmp_path / "meta.json"
    code = main(["capacities", "ball(1)", "--kmax", "2", "--meta", str(meta)])
    assert code == 0
    payload = json.loads(meta.read_text())
    assert payload["command"] == "capacities"
    created = datetime.datetime.fromisoformat(payload["created_utc"])
    assert created.utcoffset() == datetime.timedelta(0)
    # the actual output stays timestamp-free
    assert "created" not in capsys.readouterr().out
    # an obstructed verdict (exit 1) is a result: it gets a sidecar
    meta.unlink()
    assert main(["embed", "ball(2)", "ball(1)", "--kmax", "5",
                 "--meta", str(meta)]) == 1
    assert json.loads(meta.read_text())["command"] == "embed"
    # an error (exit 2) writes none
    meta.unlink()
    assert main(["capacities", "ball(", "--meta", str(meta)]) == 2
    assert not meta.exists()


def test_unwritable_meta_path_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # '-' (stdout carries the payload) and '' are refused alike and leave no file
    monkeypatch.chdir(tmp_path)
    for meta in (str(tmp_path / "missing" / "meta.json"), "-", ""):
        assert main(["capacities", "ball(1)", "--kmax", "2", "--meta", meta]) == 2, meta
        out, err = capsys.readouterr()
        assert out == "0,1,1\n"   # the payload was already written
        assert err.startswith("error: cannot write the --meta file: ")
        assert repr(meta) in err and "Traceback" not in err
        assert not list(tmp_path.iterdir()), meta


# -- one process, many calls ---------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# (argv, exit code): all eight commands, csv and json output, an argparse
# usage error, a spec parse error, a search over its node limit, --help and
# an --opt=value argv that argparse parses
MIXED_CALLS = [
    (["capacities", "ellipsoid(3/2,1)", "--kmax", "12"], 0),
    (["capacities", "toric(euclidean)", "--kmax", "4", "--format", "json"], 0),
    (["capacities", "ellipsoid(2,1)", "--kmax", "5", "--full"], 0),
    (["embed", "ellipsoid(2,1)", "ball(3/2)", "--kmax", "20"], 1),
    (["fbound", "5", "--dmax", "10"], 0),
    (["gbound", "7/2", "--format", "json"], 0),
    (["pack", "1/2,1/2", "--dmax", "3"], 1),
    (["biran", "1/2,1/2"], 0),
    (["asym", "ball(1)", "--kmax", "40", "--stride", "10"], 0),
    (["asym", "toric(euclidean)", "--kmax", "30", "--stride", "10",
      "--format", "json"], 0),
    (["qw", "ellipsoid(1,2)", "--kmax", "50"], 0),
    (["capacities", "ball(1)", "--kmax", "not-a-number"], 2),
    (["embed", "ball(1)", "ball(1/0)"], 2),
    (["capacities", "toric(euclidean)", "--kmax", "20", "--node-limit", "10"], 3),
    (["gbound", "--help"], 0),
    (["qw", "ball(1)", "--kmax=5"], 0),
]


def run_calls(capsys, calls):
    out = []
    for argv, _ in calls:
        code = main(list(argv))
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_main_is_repeatable_in_one_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ECHCAP_NODE_LIMIT", raising=False)
    first = run_calls(capsys, MIXED_CALLS)
    assert [code for code, _, _ in first] == [code for _, code in MIXED_CALLS]
    assert run_calls(capsys, MIXED_CALLS) == first


def test_in_process_calls_match_a_fresh_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ECHCAP_NODE_LIMIT", raising=False)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    picked = [MIXED_CALLS[i] for i in (1, 5, 11, 12, 13, 14, 15)]
    for (argv, _), expected in zip(picked, run_calls(capsys, picked)):
        proc = subprocess.run([sys.executable, "-m", "echcap.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_bounds_are_looked_up_at_call_time(capsys, monkeypatch):
    assert main(["fbound", "5"]) == 0 and main(["gbound", "5"]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(obstructions, "f_lower_bound",
                        lambda a, dmax: seen.append(("f", a, dmax)) or Fraction(7))
    monkeypatch.setattr(obstructions, "g_lower_bound",
                        lambda a, dmax: seen.append(("g", a, dmax)) or Fraction(9, 2))
    assert main(["fbound", "5", "--dmax", "3"]) == 0
    assert main(["gbound", "3/2", "--dmax", "4"]) == 0
    # --dmax=N is parsed by argparse, whose tree was built before the patch
    assert main(["fbound", "5", "--dmax=3"]) == 0
    assert main(["gbound", "3/2", "--dmax=4"]) == 0
    assert capsys.readouterr().out == "7\n9/2\n7\n9/2\n"
    assert seen == [("f", 5, 3), ("g", Fraction(3, 2), 4)] * 2


# (patched function, plain argv): each command run from its plain read and,
# with its last option written --opt=value, from argparse
DISPATCH_ARGV = [
    ("_cmd_capacities", ["capacities", "ball(1)", "--kmax", "2"]),
    ("_cmd_embed", ["embed", "ball(1)", "ball(2)", "--kmax", "3"]),
    ("_cmd_bound", ["fbound", "5", "--dmax", "3"]),
    ("_cmd_bound", ["gbound", "3/2", "--dmax", "4"]),
    ("_cmd_pack", ["pack", "1/2", "--dmax", "3"]),
    ("_cmd_biran", ["biran", "1/2", "--dmax", "3"]),
    ("_cmd_asym", ["asym", "ball(1)", "--kmax", "5"]),
    ("_cmd_qw", ["qw", "ball(1)", "--kmax", "5"]),
]


def test_both_parse_paths_run_the_same_function(monkeypatch):
    cli._build_parser()   # built, and cached, before any patch
    for function, argv in DISPATCH_ARGV:
        ran = []
        monkeypatch.setattr(cli, function, lambda args: ran.append(args.command) or 0)
        assert cli._plain_read(argv) is not None, argv
        assert main(argv) == 0
        assert main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == 0
        assert ran == [argv[0]] * 2, argv


def test_parser_is_built_on_the_first_call_only():
    script = """
import argparse, io, contextlib
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import echcap.cli
counts = [len(built)]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["capacities", "ball(1)", "--kmax", "2"], ["embed", "ball(1)", "ball(2)"],
                 ["fbound", "2"], ["gbound", "2"], ["pack", "1/2"], ["biran", "1/2"],
                 ["asym", "ball(1)", "--kmax", "5"], ["qw", "ball(1)", "--kmax", "5"]):
        echcap.cli.main(argv)
    counts.append(len(built))
    echcap.cli.main(["gbound", "--help"])
    counts.append(len(built))
    echcap.cli.main(["capacities", "ball(1)", "--kmax", "x"])
    counts.append(len(built))
print(*counts)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    at_import, after_plain, after_help, after_error = map(int, proc.stdout.split())
    assert at_import == 0          # importing the CLI builds no parser
    assert after_plain == 0        # nor does plain argv of any of the eight commands
    assert after_help == 9         # help builds the top-level parser and its 8 subparsers
    assert after_error == after_help


# -- the plain read of argv ------------------------------------------------------

BENCH = SRC.parent / "bench"

# (argv, read): True where the plain read must give parse_args' Namespace,
# False where it must leave argv to argparse
EDGE_ARGV = [
    (["capacities", "ball(1)", "--kmax=5"], False),
    (["capacities", "ball(1)", "--km", "5"], False),
    (["capacities", "-h"], False),
    (["capacities", "--help"], False),
    (["-h"], False),
    (["capacities", "ball(1)", "--kmax"], False),
    (["capacities", "ball(1)", "--kmax", "x"], False),
    (["capacities", "ball(1)", "--format", "xml"], False),
    (["capacities", "ball(1)", "--kmax", "-1"], False),
    (["capacities", "ball(1)", "--kmax", "--full"], False),
    (["capacities", "ball(1)", "--kmax", "3", "--kmax", "5"], True),
    (["capacities", "--kmax", "5", "ball(1)"], True),
    (["embed", "ball(1)", "--mode", "strict", "ball(2)"], True),
    (["capacities", "ball(1)", "--full", "--full", "--meta", ""], True),
    (["no-such-command", "ball(1)"], False),
    ([], False),
    (["capacities", "--", "ball(1)"], False),
    (["capacities", "ball(1)", "ball(2)"], False),
    (["embed", "ball(1)"], False),
    (["capacities"], False),
    (["capacities", "ball(1)", "--kmax", " 5"], True),
    (["capacities", "ball(1)", "--kmax", "5_0"], True),
    (["capacities", "ball(1)", "--kmax", "\u0663"], True),
    (["capacities", "ball(1)", "--kmax", "+5"], True),
    (["capacities", "ball(1)", "--node-limit", "5"], True),
    (["embed", "ball(1)", "--kmax", "3", "ball(2)", "--mode", "weak", "--mode", "strict"],
     True),
    (["gbound", "7/2", "--format", "json", "--format", "text"], True),
    (["capacities", "ball(1)", "--full", "x"], False),
    (["capacities", "ball(1)", "--meta", "-"], False),   # refused: writes no file "-"
    (["fbound", "-5"], False),
    (["capacities", "ball(1)", "--format", "JSON"], False),
    (["capacities", "ball(1)", "--Full"], False),
    (["capacities", "-"], False),
    (["pack", "1/2", "--kmax", "3"], False),
]


def bench_argv(monkeypatch, seeds):
    """Every argv of the pinned rounds of these seeds of the benchmark's
    three workloads, generated by bench/workloads.py; nothing is written."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    run, workloads = importlib.import_module("run"), importlib.import_module("workloads")
    return [op.argv for workload in ("sequences", "toric", "queries") for seed in seeds
            for ops in workloads.generate(workload, seed, run.pinned_rounds(workload))[0]
            for op in ops]


def test_plain_read_is_parse_args(monkeypatch):
    parser = cli._build_parser()
    for argv, read in EDGE_ARGV:
        args = cli._plain_read(argv)
        assert (args is not None) == read, argv
        if read:
            assert vars(args) == vars(parser.parse_args(argv)), argv
    for argv in bench_argv(monkeypatch, (0, 1)):
        args = cli._plain_read(argv)
        assert args is None or vars(args) == vars(parser.parse_args(argv)), argv


def test_main_without_the_plain_read_is_unchanged(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ECHCAP_NODE_LIMIT", raising=False)
    corpus = [argv for argv, _ in EDGE_ARGV] + bench_argv(monkeypatch, (0, 1))
    calls = [(argv, None) for argv in corpus]
    with_plain_read = run_calls(capsys, calls)
    monkeypatch.setattr(cli, "_plain_read", lambda argv: None)
    for argv, expected, got in zip(corpus, with_plain_read, run_calls(capsys, calls)):
        assert got == expected, argv


def test_plain_read_handles_every_declared_action(monkeypatch):
    # a new kind of option, or one argparse would read differently, fails
    # here instead of turning the plain read off or being misread by it
    parser = cli._build_parser()
    commands, = parser._get_positional_actions()
    assert type(commands) is argparse._SubParsersAction and not parser._defaults
    # a namespace holds only declared arguments: no default set beside them
    assert not any(sub._defaults for sub in commands.choices.values())
    assert all(type(a) is argparse._HelpAction for a in parser._get_optional_actions())
    for name, sub in commands.choices.items():
        for action in sub._actions:
            kind = type(action)
            assert kind in (argparse._StoreAction, argparse._StoreTrueAction,
                            argparse._HelpAction), (name, action)
            if kind is argparse._StoreAction:
                assert action.nargs is None and action.const is None, (name, action)
                assert not (action.option_strings and action.required), (name, action)
                # argparse would pass a str default through type
                assert action.type is None or not isinstance(action.default, str), \
                    (name, action)
    dests = {name: {"command"} | {dest for dest, _ in positionals} |
             {flag[2:].replace("-", "_") for flag, *_ in options + cli._COMMON}
             for name, _, positionals, options in cli._COMMANDS}
    for argv in bench_argv(monkeypatch, (0, 1)):
        args = cli._plain_read(argv)
        assert args is not None and vars(args).keys() == dests[argv[0]], argv


def pack_from_the_library(argv):
    """(exit code, stdout) of `pack` on argv, from a payload built out of
    packing_obstructions."""
    sizes = cli._parse_size_list(argv[1])
    dmax = int(argv[argv.index("--dmax") + 1])
    report = obstructions.packing_obstructions(sizes, dmax)
    payload = {
        "a_list": [str(a) for a in sizes],
        "dmax": dmax,
        "all_hold": report.all_hold,
        "status": "no_obstruction" if report.all_hold else "obstructed",
        "inequalities": [{"multipliers": list(q.multipliers), "bound": q.bound,
                          "lhs": str(q.lhs), "satisfied": q.satisfied}
                         for q in report.inequalities],
    }
    return (0 if report.all_hold else 1), json.dumps(payload, sort_keys=True) + "\n"


def test_pack_prints_the_library_report(capsys, monkeypatch):
    # on the packing oracle's corpus and every pack argv of the bench rounds
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent))
    corpus = importlib.import_module("test_obstructions").packing_corpus(1994, 60)
    argvs = [["pack", ",".join(map(str, sizes)), "--dmax", str(dmax)]
             for sizes, dmax in corpus]
    bench = [argv for argv in bench_argv(monkeypatch, (0, 1)) if argv[0] == "pack"]
    assert len(argvs) == 60 and bench
    for argv in argvs + bench:
        code = main(argv)
        assert (code, capsys.readouterr().out) == pack_from_the_library(argv), argv
