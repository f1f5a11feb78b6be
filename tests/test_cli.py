import json

import pytest

from trophodge import curves
from trophodge.cli import run
from trophodge.curve import serialize


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(serialize(curves.triangle()))
    return str(path)


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(serialize(curves.theta_graph()))
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    # a finite edge ending at degree-one vertices is not a tropical curve
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["A", "B"],
                "edges": [{"id": "e", "tail": "A", "head": "B", "length": 2}],
            }
        )
    )
    return str(path)


def test_genus_subcommand(theta_file, capsys):
    assert run(["genus", theta_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"genus": 2}


def test_validate_subcommand_pass(triangle_file, capsys):
    assert run(["validate", triangle_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True


def test_validate_subcommand_failure_exits_2(bad_file, capsys):
    assert run(["validate", bad_file]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is False


def test_genus_on_invalid_curve_exits_2(bad_file, capsys):
    assert run(["genus", bad_file]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "CurveError"


def test_json_syntax_error_reported_with_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": [}')
    assert run(["genus", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "JSONDecodeError"
    assert err["error"]["position"] == 14


def test_missing_file_exits_2(capsys):
    assert run(["genus", "/nonexistent/nope.json"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "FileNotFoundError"


def test_harmonic_subcommand(theta_file, capsys):
    assert run(["harmonic", theta_file, "--bidegree", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dimension"] == 2
    assert out["provenance"] == "incidence-nullspace"
    assert len(out["elements"]) == 2


def test_harmonic_top_bidegree(triangle_file, capsys):
    assert run(["harmonic", triangle_file, "--bidegree", "11"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dimension"] == 1


def test_spectrum_subcommand_with_csv(triangle_file, tmp_path, capsys):
    csv_path = tmp_path / "spec.csv"
    assert run(
        ["spectrum", triangle_file, "--bidegree", "00", "--h", "0.05", "--k", "3", "--csv", str(csv_path)]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["eigenvalues"]) == 3
    assert out["eigenvalues"][1] == pytest.approx((2 * 3.14159265358979 / 3) ** 2, rel=0.01)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue,h"
    assert len(lines) == 4


def test_verify_subcommand_passes_and_writes_report(triangle_file, tmp_path):
    out_path = tmp_path / "report.json"
    code = run(
        ["verify", triangle_file, "--h-list", "0.125", "0.0625", "--seed", "1", "--forms", "4",
         "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert doc["seed"] == 1


def test_verify_reports_are_byte_identical(triangle_file, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = run(
            ["verify", triangle_file, "--h-list", "0.125", "--seed", "0", "--forms", "3",
             "--out", str(path)]
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_h_list_needs_a_value(triangle_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", triangle_file, "--h-list"])
    assert exc.value.code == 2
    assert "--h-list" in capsys.readouterr().err


def test_theta_subcommand(triangle_file, capsys):
    assert run(["theta", triangle_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {c["id"] for c in out["checks"]} == {"theta-constant", "theta-cubic", "theta-fubini-study"}


def test_bad_bidegree_flag(triangle_file, capsys):
    assert run(["harmonic", triangle_file, "--bidegree", "7"]) == 2
    assert "bidegree" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_verify_exits_1_when_a_check_fails(triangle_file, monkeypatch, capsys):
    from trophodge import checks as checks_module
    from trophodge import cli as cli_module

    def failing_verification(*args, **kwargs):
        report = checks_module.CheckReport(seed=0)
        report.add("demo", "forced failure", residual=1.0, tol=1e-8, seconds=0.0)
        return report

    monkeypatch.setattr(cli_module.checks_module, "run_verification", failing_verification)
    assert run(["verify", triangle_file]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["checks"][0]["status"] == "fail"


def test_spectrum_one_forms_on_infinite_curve(tmp_path, capsys):
    path = tmp_path / "tp1.json"
    path.write_text(serialize(curves.projective_line()))
    assert run(["spectrum", str(path), "--bidegree", "10", "--h", "0.125", "--k", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["eigenvalues"]) == 2
    assert out["eigenvalues"][0] > 1e-3  # no kernel: both legs are pinned


def test_harmonic_empty_basis(tmp_path, capsys):
    path = tmp_path / "tp1.json"
    path.write_text(serialize(curves.projective_line()))
    assert run(["harmonic", str(path), "--bidegree", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dimension"] == 0 and out["elements"] == []


def test_thread_cap_env(monkeypatch, tmp_path, triangle_file):
    from trophodge.cli import verify_many

    monkeypatch.setenv("TROP_HODGE_THREADS", "2")
    results = verify_many([triangle_file], seed=0)
    assert set(results) == {triangle_file}
    monkeypatch.setenv("TROP_HODGE_THREADS", "not-a-number")
    with pytest.raises(Exception, match="TROP_HODGE_THREADS"):
        verify_many([triangle_file], seed=0)
