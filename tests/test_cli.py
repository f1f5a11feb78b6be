import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trophodge import checks, curves
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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_needs_at_least_one_test_form(triangle_file, capsys, count):
    # with no forms the stokes and integration-by-parts checks would pass on no samples
    assert run(["verify", triangle_file, "--forms", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "ValueError" and "at least one test form" in error["message"]


def test_verify_refuses_forms_over_the_budget(triangle_file, capsys, monkeypatch):
    # refused before any form is built: each one costs time and memory
    def never(*args):
        raise AssertionError("a test form was built")

    monkeypatch.setattr(checks, "regular_test_forms", never)
    monkeypatch.setattr(checks, "energy_test_pair", never)
    # the budget itself passes the check and reaches the first form
    assert run(["verify", triangle_file, "--forms", str(checks.MAX_FORM_COUNT)]) == 3
    assert "a test form was built" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert run(["verify", triangle_file, "--forms", "100000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "BudgetError" and str(checks.MAX_FORM_COUNT) in error["message"]


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


NEGATIVE_WEIGHT = "-2*exp(2*x)/(1+exp(2*x))^2"


@pytest.mark.parametrize("argv", [["harmonic", "--bidegree", "11"], ["spectrum"], ["verify"]])
def test_invalid_kahler_weight_exits_2(tmp_path, capsys, argv):
    doc = json.loads(serialize(curves.projective_line()))
    doc["kahler"] = {"left": {"kind": "expr", "formula": NEGATIVE_WEIGHT}}
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    assert run([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "KahlerError"


def _triangle_doc(kahler=None, **first_edge):
    doc = json.loads(serialize(curves.triangle()))
    if kahler is not None:
        doc["kahler"] = kahler
    doc["edges"][0].update(first_edge)
    return doc


# a bi-infinite edge is split into axis:left and axis:right, so the key
# "axis" names no edge of the parsed curve
SPLIT_AXIS_NEGATIVE = {
    "vertices": ["L", "R"],
    "edges": [{"id": "axis", "tail": "L", "head": "R", "length": "inf"}],
    "kahler": {"axis": {"kind": "expr", "formula": NEGATIVE_WEIGHT}},
}


@pytest.mark.parametrize(
    "doc, kind",
    [
        (_triangle_doc(kahler=[1, 2]), "KahlerError"),
        (_triangle_doc(kahler={"ab": 3}), "KahlerError"),
        (_triangle_doc(kahler={"ab": {"kind": "expr"}}), "KahlerError"),
        (_triangle_doc(kahler={"ab": {"kind": "constant"}}), "KahlerError"),
        (_triangle_doc(kahler={"ab": {"kind": "constant", "value": 10**330}}), "KahlerError"),
        (_triangle_doc(kahler={"ab": {"kind": "expr", "formula": "x^0^-1"}}), "ExpressionError"),
        (_triangle_doc(kahler={"ab": {"kind": "expr", "formula": "(" * 3000 + "1" + ")" * 3000}}), "ExpressionError"),
        (_triangle_doc(kahler={"ab": {"kind": "expr", "formula": "+".join(["1"] * 200_000)}}), "ExpressionError"),
        (_triangle_doc(kahler={"ab": {"kind": "expr", "formula": "1/0"}}), "KahlerError"),
        (_triangle_doc(kahler={"ab": {"kind": "expr", "formula": "1+0^-1*x"}}), "KahlerError"),
        # the mass quadrature of this edge would ask for terabytes at its first level
        (_triangle_doc(length=1e12), "KahlerError"),
        (_triangle_doc(kahler={"abx": {"kind": "constant", "value": -5}}), "KahlerError"),
        (SPLIT_AXIS_NEGATIVE, "KahlerError"),
        (_triangle_doc(id=7), "CurveError"),
        (_triangle_doc(tail=["A"]), "CurveError"),
        (_triangle_doc(length=10**330), "CurveError"),  # an int too large for a float
    ],
    ids=["kahler-list", "kahler-entry-number", "expr-no-formula", "constant-no-value", "constant-of-331-digits",
         "zero-to-negative-power", "nested-3000-deep", "sum-of-200000", "divide-by-zero", "zero-to-the-minus-one",
         "edge-of-1e12",
         "key-names-no-edge", "key-names-split-edge",
         "numeric-id", "list-tail", "length-of-331-digits"],
)
def test_malformed_documents_give_typed_errors(tmp_path, capsys, doc, kind):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    commands = ["genus"] if kind == "CurveError" else ["harmonic", "verify"]
    for command in commands:
        assert run([command, str(path)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == kind and "traceback" not in error


@pytest.mark.parametrize(
    "curve,kahler",
    [
        # legs decaying slower than Fubini-Study: 1/g reaches 2e10 at the cutoff
        (curves.star(3), {f"leg{i}": "1.5*exp(1.5*x)/(1+exp(1.5*x))^2" for i in (1, 2, 3)}),
        (curves.triangle_with_legs(), {"legB": "3*exp(3*x)"}),
    ],
    ids=["slow-legs", "steep-leg"],
)
def test_verify_passes_on_legs_of_other_decay_rates(tmp_path, capsys, curve, kahler):
    doc = json.loads(serialize(curve))
    doc["kahler"] = {eid: {"kind": "expr", "formula": formula} for eid, formula in kahler.items()}
    path = tmp_path / "legs.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 0
    assert all(c["status"] == "pass" for c in json.loads(capsys.readouterr().out)["checks"])


def _narrow_leg_file(tmp_path) -> str:
    # the weight decays like e^{4x} on leg1, faster than the (1,1) test
    # coefficients' squares grow against 1/g unless they carry g there
    doc = json.loads(serialize(curves.star(4)))
    doc["kahler"] = {"leg1": {"kind": "expr", "formula": "4*exp(4*x)/(1+exp(4*x))^2"}}
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _strict_report(captured) -> dict:
    assert captured.err == ""

    def refuse(name):
        raise AssertionError(f"report is not strict JSON: {name}")

    return json.loads(captured.out, parse_constant=refuse)


def test_narrow_leg_passes_star_isometry(tmp_path, capsys):
    assert run(["verify", _narrow_leg_file(tmp_path)]) == 0
    report = _strict_report(capsys.readouterr())
    assert len(report["checks"]) == 13
    assert {c["status"] for c in report["checks"]} == {"pass"}
    assert not any("diverge" in note for note in report["notes"])


def test_laplacian_formula_note_is_finite_on_a_narrow_leg(tmp_path, capsys):
    # the note's leg coefficient carries g; DECAY alone gave 4.6e+26 here
    assert run(["verify", _narrow_leg_file(tmp_path)]) == 0
    notes = _strict_report(capsys.readouterr())["notes"]
    [figure] = [float(re.search(r"differ by up to (\S+)", n).group(1)) for n in notes if "differ by up to" in n]
    assert figure < 100.0


def test_divergent_star_isometry_is_a_failed_check(tmp_path, capsys, monkeypatch):
    from trophodge import checks
    from trophodge.superform import EdgeFunction, Superform

    wedge, star_identities = checks.wedge, checks.check_star_identities
    diverged = []

    def diverging_once(a, b):
        # the suite's first integrand that wedges a (1,1) form, the stars' side of the (0,0) pair 0-0,
        # gets the constant 1 on a leg, whose tail integral diverges; it is integrated with the others
        form = wedge(a, b)
        if a.bidegree.as_tuple() == (1, 1) and not diverged:
            diverged.append((a, b))
            coeffs = dict(form.coefficients)
            coeffs["leg1"] = EdgeFunction.constant(1.0, coeffs["leg1"].domain)
            return Superform(form.bidegree, coeffs)
        return form

    def with_one_divergent_integrand(curve, g):
        monkeypatch.setattr(checks, "wedge", diverging_once)
        return star_identities(curve, g)

    monkeypatch.setattr(checks, "check_star_identities", with_one_divergent_integrand)
    assert run(["verify", _narrow_leg_file(tmp_path)]) == 1
    report = _strict_report(capsys.readouterr())
    status = {c["id"]: c["status"] for c in report["checks"]}
    assert status.pop("star-isometry") == "fail"
    assert set(status.values()) == {"pass"}
    assert any(note.startswith("star-isometry fails") and "diverge" in note for note in report["notes"])
    assert any("the test form pairs (0,0) 0-0 diverge;" in note for note in report["notes"])


def test_module_entry_points(theta_file, bad_file):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    genus = subprocess.run([sys.executable, "-m", "trophodge", "genus", theta_file],
                           env=env, capture_output=True, text=True, timeout=60)
    assert genus.returncode == 0
    assert json.loads(genus.stdout) == {"genus": 2}
    bad = subprocess.run([sys.executable, "-m", "trophodge.cli", "genus", bad_file],
                         env=env, capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2
    assert json.loads(bad.stderr)["error"]["kind"] == "CurveError"


def test_unexpected_exception_is_an_internal_error(theta_file, monkeypatch, capsys):
    from trophodge import cli

    def failing(curve):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "genus", failing)
    assert run(["genus", theta_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "InternalError"
    assert error["message"] == "RuntimeError: boom"
    assert "in failing" in error["traceback"]


def test_spectrum_solver_giving_up_is_a_typed_error(triangle_file, monkeypatch, capsys):
    from trophodge import discrete

    # the triangle at h = 1/8 has 24 degrees of freedom: the first block of
    # 12 + 4 vectors fits under the cap, the whole space it grows to does not
    monkeypatch.setattr(discrete, "_MAX_BLOCK_ENTRIES", 24 * 16)
    assert run(["spectrum", triangle_file, "--h", "0.125", "--k", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "BudgetError"
    assert "exceeds the cap" in error["message"]


def test_verify_refuses_a_block_over_the_cap(triangle_file, monkeypatch, capsys):
    from trophodge import discrete

    # a size refusal, as in spectrum, not three ambiguous hodge checks and exit 1:
    # the triangle at h = 1/8 has 24 reduced degrees of freedom in either
    # bidegree, and kernel's first block holds 6 + 4 vectors
    monkeypatch.setattr(discrete, "_MAX_BLOCK_ENTRIES", 24 * 10 - 1)
    assert run(["verify", triangle_file, "--h-list", "0.125", "--forms", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "BudgetError"
    assert "exceeds the cap" in error["message"]


def _src_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _cli_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "trophodge", *argv], env=_src_env(), capture_output=True,
                          text=True, timeout=60)


def test_importing_the_package_leaves_the_sparse_solvers_unloaded(tmp_path):
    # a fresh interpreter: earlier tests in this one have loaded scipy
    path = tmp_path / "legs.json"
    path.write_text(serialize(curves.triangle_with_legs()))
    code = f"""
import contextlib, io, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import trophodge
from trophodge.cli import run
print(scipy_modules())
for command in ("validate", "genus", "harmonic", "theta"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = run([command, {str(path)!r}])
    print(command, code, scipy_modules())
"""
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "validate 0 []", "genus 0 []", "harmonic 0 []", "theta 0 []"]


@pytest.mark.parametrize("argv", [["spectrum"], ["verify", "--h-list", "0.125", "--forms", "2"]])
def test_solver_commands_import_what_they_use(triangle_file, argv):
    # a function reaching a scipy submodule it did not import itself fails only in a fresh interpreter
    result = _cli_subprocess(argv[0], triangle_file, *argv[1:])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)


def test_timings_put_seconds_on_every_hodge_check(triangle_file, capsys):
    assert run(["verify", triangle_file, "--timings", "--h-list", "0.125", "--forms", "2"]) == 0
    seconds = {c["id"]: c["seconds"] for c in json.loads(capsys.readouterr().out)["checks"]}
    hodge = {cid: s for cid, s in seconds.items() if cid.startswith("hodge-")}
    assert len(hodge) == 4
    assert all(s > 0.0 for s in hodge.values())


@pytest.mark.parametrize("formula", ["1/0", "1+0^-1*x"])
@pytest.mark.parametrize("command", ["verify", "harmonic"])
def test_exit_2_leaves_one_json_object_on_stderr(tmp_path, formula, command):
    # in-process, pytest's warning capture would hide numpy's RuntimeWarning lines
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(_triangle_doc(kahler={"ab": {"kind": "expr", "formula": formula}})))
    result = _cli_subprocess(command, str(path))
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"]["kind"] == "KahlerError"


def test_warnings_of_a_failed_run_go_into_the_error_object(tmp_path):
    # trunc_eps 10 collapses both legs, which warns, and then k exceeds the six DOFs left
    path = tmp_path / "legs.json"
    path.write_text(serialize(curves.triangle_with_legs()))
    argv = ["spectrum", str(path), "--trunc-eps", "10", "--h", "0.5"]
    failed = _cli_subprocess(*argv, "--k", "100000")
    assert (failed.returncode, failed.stdout) == (2, "")
    error = json.loads(failed.stderr)["error"]
    assert error["kind"] == "ValueError"
    assert [w.split(":")[0] for w in error["warnings"]] == ["edge 'legA'", "edge 'legB'"]
    passed = _cli_subprocess(*argv)  # a run that succeeds still shows the warnings
    assert passed.returncode == 0
    assert passed.stderr.count("UserWarning: edge 'leg") == 2


def test_mesh_over_the_node_budget_is_a_budget_error(triangle_file, capsys):
    # 3e12 nodes: terabytes if the budget did not stop it before allocation
    assert run(["spectrum", triangle_file, "--h", "1e-12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "BudgetError"


TYPED_ERRORS = {"CurveError", "KahlerError", "ExpressionError", "ValueError", "DivergenceError",
                "AmbiguousKernelError", "BudgetError"}
FINITE_LENGTHS = st.sampled_from([0.5, 1, 1.5, 2, 3])
ODD_LENGTHS = st.sampled_from([0, -1, -0.5, "inf", 1e12, "1", None, True, [1], {"l": 1}])
FORMULAS = ["1", "x", "-1", "exp(x)", "2*exp(2*x)/(1+exp(2*x))^2", "1/0", "1+0^-1*x", "x^0^-1",
            "exp(", "2**x", ")", "", "y", "x^1.5", "1+" * 40 + "1"]
KAHLER_ENTRIES = st.one_of(
    st.builds(lambda v: {"kind": "constant", "value": v}, st.sampled_from([1, 0.5, 0, -2, "a", None])),
    st.just({"kind": "constant"}),
    st.just({"kind": "fubini-study"}),
    st.builds(lambda f: {"kind": "expr", "formula": f}, st.sampled_from(FORMULAS)),
    st.just({"kind": "expr", "formula": 3}),
    st.just({"kind": "spline"}),
    st.just(7),
)


@st.composite
def curve_documents(draw):
    """Small documents, valid or not: a cycle of 2-4 vertices, chords
    and self-loops, legs out of fresh leaf vertices, and in about
    half of them one odd length or one leg turned around."""
    core = [f"v{i}" for i in range(draw(st.integers(2, 4)))]
    vertices, edges = list(core), []

    def edge(tail, head, length):
        edges.append({"id": f"e{len(edges)}", "tail": tail, "head": head, "length": length})

    for a, b in zip(core, core[1:] + core[:1]):
        edge(a, b, draw(FINITE_LENGTHS))
    for _ in range(draw(st.integers(0, 3))):  # chords and self-loops
        edge(draw(st.sampled_from(core)), draw(st.sampled_from(core)), draw(FINITE_LENGTHS))
    for i in range(draw(st.integers(0, 6 - len(core)))):
        vertices.append(f"leaf{i}")
        edge(f"leaf{i}", draw(st.sampled_from(core)), "inf")
    if draw(st.booleans()):
        odd = draw(st.sampled_from(edges))
        if draw(st.booleans()):
            odd["length"] = draw(ODD_LENGTHS)
        else:  # a finite edge ending at a leaf, or a leg with its point at -inf at the head
            odd["tail"], odd["head"] = odd["head"], odd["tail"]
    doc = {"vertices": vertices, "edges": edges}
    if draw(st.booleans()):
        keys = st.sampled_from([e["id"] for e in edges] + ["nowhere"])
        doc["kahler"] = draw(st.dictionaries(keys, KAHLER_ENTRIES, max_size=3))
    return doc


@settings(max_examples=50, deadline=None)
@given(curve_documents())
def test_generated_documents_exit_0_or_2_with_a_typed_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["validate"], ["genus"], ["harmonic"], ["spectrum", "--h", "0.5", "--k", "1"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([argv[0], path, *argv[1:]])
            assert code in (0, 2), err.getvalue()
            if code == 2 and argv[0] == "validate" and not err.getvalue():
                assert json.loads(out.getvalue())["passed"] is False  # the report of a failing curve
            elif code == 2:
                assert json.loads(err.getvalue())["error"]["kind"] in TYPED_ERRORS
