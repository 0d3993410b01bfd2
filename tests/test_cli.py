import json

import pytest

from echcap import DisjointUnion, Ellipsoid, SpecParseError, ToricNorm, WeightedL1
from echcap.cli import format_value, main, parse_domain_spec
from echcap.lattice import resolve_node_limit
from echcap.values import CapacityValue


# -- spec parsing --------------------------------------------------------------

def test_parse_basic_domains():
    from fractions import Fraction
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


def test_parse_errors_carry_positions():
    cases = ["ball(0.5)", "ball(1", "blob(1)", "ellipsoid(1;2)",
             "ball(1) extra", "toric(l2:1,1)", "ball(1/0)"]
    for text in cases:
        with pytest.raises(SpecParseError) as err:
            parse_domain_spec(text)
        assert err.value.position >= 0


def test_format_value():
    from fractions import Fraction
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
    assert main(["capacities", "polydisk(1,1)", "--kmax", "3", "--full"]) == 2


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


def test_gbound(capsys):
    assert main(["gbound", "7/2", "--dmax", "6"]) == 0
    assert capsys.readouterr().out.strip() == "8/3"


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


def test_parse_error_exit_code(capsys):
    assert main(["capacities", "ball(oops)"]) == 2
    assert "position" in capsys.readouterr().err


def test_polygon_literal_rejects_non_integer_coordinates(capsys):
    for x in ("1.5", "1.0", "true", '"1"'):
        spec = f"toric(poly:[[{x},0],[0,1],[-1,0],[0,-1]])"
        assert main(["capacities", spec, "--kmax", "4"]) == 2
        assert "integer pairs" in capsys.readouterr().err
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


def test_env_node_limit(capsys, monkeypatch):
    monkeypatch.setenv("ECHCAP_NODE_LIMIT", "10")
    assert main(["capacities", "toric(euclidean)", "--kmax", "20"]) == 3
    monkeypatch.delenv("ECHCAP_NODE_LIMIT")


def test_negative_or_malformed_node_limit_is_a_usage_error(capsys, monkeypatch):
    argv = ["capacities", "toric(euclidean)", "--kmax", "4"]
    with pytest.raises(ValueError, match="node limit must be >= 0"):
        resolve_node_limit(-5)
    assert main(argv + ["--node-limit", "-5"]) == 2
    assert "node limit must be >= 0, got -5" in capsys.readouterr().err
    monkeypatch.setenv("ECHCAP_NODE_LIMIT", "-5")
    assert main(argv) == 2
    assert "node limit must be >= 0, got -5" in capsys.readouterr().err
    monkeypatch.setenv("ECHCAP_NODE_LIMIT", "ten")
    assert main(argv) == 2
    assert "ECHCAP_NODE_LIMIT must be an integer, got 'ten'" in capsys.readouterr().err
    assert main(argv + ["--node-limit", "0"]) == 3   # 0 stays a valid limit
    assert resolve_node_limit(0) == 0


def test_meta_sidecar(tmp_path, capsys):
    meta = tmp_path / "meta.json"
    code = main(["capacities", "ball(1)", "--kmax", "2", "--meta", str(meta)])
    assert code == 0
    payload = json.loads(meta.read_text())
    assert payload["command"] == "capacities"
    assert "created_utc" in payload
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
