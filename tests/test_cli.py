import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import sympy as sp

import noetherkit

from noetherkit import cli
from noetherkit.sysfile import write_system_file, write_triple_file


@pytest.fixture()
def fp_sys(fp, tmp_path):
    path = tmp_path / "fp.sys"
    write_system_file(path, fp.system, integrals=fp.integrals)
    return str(path)


@pytest.fixture()
def kepler_sys(kepler, tmp_path):
    path = tmp_path / "kepler.sys"
    write_system_file(path, kepler.system, integrals=kepler.integrals)
    return str(path)


@pytest.fixture()
def fp_log_sys(fp, tmp_path):
    """Free particle with log(q) declared, which q = 1 - t carries below 0."""
    path = tmp_path / "fp_log.sys"
    q = fp.system.alphabet.coord_symbols[0]
    write_system_file(path, fp.system, integrals={"log_q": sp.log(q)})
    return str(path)


@pytest.fixture()
def blow_sys(tmp_path):
    """qddot = q^3, whose solutions leave the floats in finite time."""
    path = tmp_path / "blow.sys"
    path.write_text("[system]\nname = blow\ndim = 1\ncoords = q\n"
                    "lagrangian = qdot^2/2 + q^4/4\n")
    return str(path)


@pytest.fixture()
def pole_sys(tmp_path):
    """qddot = 1/t, whose normal form has a pole at the start t = 0."""
    path = tmp_path / "pole.sys"
    path.write_text("[system]\nname = pole\ndim = 1\ncoords = q\n"
                    "lagrangian = qdot^2/2 + q/t\n")
    return str(path)


@pytest.fixture()
def opaque_sys(tmp_path):
    """A file that declares an opaque function, which a file cannot bind."""
    path = tmp_path / "opaque.sys"
    path.write_text("[system]\nname = iso\ndim = 2\ncoords = x, y\nopaque = G\n"
                    "lagrangian = xdot*ydot - G(x)*y\n"
                    "[integral]\nname = N1\nexpr = xdot*ydot + G(x)*y\n")
    return str(path)


@pytest.fixture()
def frm_sys(tmp_path):
    """A free-particle triple file whose form key is misspelt ``frm``."""
    path = tmp_path / "frm.tri"
    path.write_text("[triple]\nname = boost\ntau = 0\nxi = t\nf = q\nfrm = strong\n")
    return str(path)


@pytest.fixture()
def singualr_sys(tmp_path):
    """A free-particle file whose singular key is misspelt ``singualr``."""
    path = tmp_path / "singualr.sys"
    path.write_text("[system]\ndim = 1\ncoords = q\nlagrangian = qdot^2/2\nsingualr = q\n")
    return str(path)


@pytest.fixture()
def complex_sys(tmp_path):
    """An oscillator whose Lagrangian folds sqrt(-1) to the imaginary unit."""
    path = tmp_path / "complex.sys"
    path.write_text("[system]\ndim = 1\ncoords = q\n"
                    "lagrangian = qdot^2/2 - sqrt(-1)*q^2/2\n")
    return str(path)


def _free_particle_with(tmp_path, name, entry):
    path = tmp_path / f"{name}.sys"
    path.write_text(f"[system]\ndim = 1\ncoords = q\nlagrangian = qdot^2/2\n{entry}\n")
    return str(path)


@pytest.fixture()
def range_reversed_sys(tmp_path):
    return _free_particle_with(tmp_path, "range_reversed", "range_qdot = 5, 4")


@pytest.fixture()
def range_infinite_sys(tmp_path):
    return _free_particle_with(tmp_path, "range_infinite", "range_q = 0, inf")


@pytest.fixture()
def range_unknown_sys(tmp_path):
    """A range for a variable the system does not have."""
    return _free_particle_with(tmp_path, "range_unknown", "range_z = 0, 1")


@pytest.fixture()
def bad_number_sys(tmp_path):
    path = tmp_path / "bad_number.sys"
    path.write_text("[system]\ndim = 1\ncoords = q\nlagrangian = qdot^2/2\n"
                    "singular = q\nsingular_threshold = small\n")
    return str(path)


@pytest.fixture()
def bad_xi_sys(tmp_path):
    """A free particle file whose triple has two xi components for dim = 1."""
    path = tmp_path / "bad_xi.sys"
    path.write_text("[system]\ndim = 1\ncoords = q\nlagrangian = qdot^2/2\n"
                    "[triple]\ntau = 0\nxi = 1, q\nf = 0\nform = strong\n")
    return str(path)


@pytest.fixture()
def bad_form_sys(fp, tmp_path):
    """A free particle file whose triple claims a form outside FORMS."""
    path = tmp_path / "bad_form.sys"
    write_system_file(path, fp.system, integrals=fp.integrals)
    with path.open("a") as fh:
        fh.write("[triple]\ntau = 0\nxi = 1\nf = 0\nform = weak\n")
    return str(path)


def test_corpus_list(capsys):
    assert cli.main(["corpus", "list"]) == cli.EXIT_OK
    out = capsys.readouterr().out.split()
    assert out == ["freeparticle", "isochrony", "kepler3d"]


def test_corpus_export_needs_name(tmp_path, capsys):
    assert cli.main(["corpus", "export"]) == cli.EXIT_PARSE
    out = tmp_path / "fp.sys"
    assert cli.main(["corpus", "export", "freeparticle", "--out", str(out)]) == cli.EXIT_OK
    assert out.exists()


def test_describe(fp_sys, capsys):
    assert cli.main(["describe", fp_sys]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "dim n = 1" in out
    assert "L = qdot^2/2" in out
    assert "Lambda[0] = 0" in out


def test_describe_prints_the_normal_form_as_derived(kepler_sys, capsys):
    assert cli.main(["describe", kepler_sys]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "  Lambda[0] = -mu*r1/(r1^2 + r2^2 + r3^2)^(3/2)\n" in out
    assert "(|det g| above floor at 20 points)" in out


def test_describe_missing_file(capsys):
    assert cli.main(["describe", "no-such-file.sys"]) == cli.EXIT_PARSE


def test_solve_strong_and_verify(fp_sys, tmp_path, capsys):
    tri = tmp_path / "boost.tri"
    code = cli.main(["solve", fp_sys, "boost", "--mode", "strong",
                     "--tau", "0", "--triple-out", str(tri)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["verification"]["verdict"] == "PASS"
    assert report["verification"]["integral_check"]["verdict"] == "PASS"
    assert cli.main(["verify", fp_sys, str(tri)]) == cli.EXIT_OK


def test_solved_triple_file_keeps_the_solver_margin(tmp_path, capsys):
    # the isochrony L = xdot*ydot - x*y changes sign in the box; the triple
    # divides by it, and its file keeps the margin the solver declared
    iso, tri = str(tmp_path / "iso.sys"), str(tmp_path / "n1.tri")
    assert cli.main(["corpus", "export", "isochrony", "--out", iso]) == cli.EXIT_OK
    assert cli.main(["solve", iso, "N1", "--mode", "onflow-simplest", "--seed", "0",
                     "--triple-out", tri]) == cli.EXIT_OK
    assert cli.main(["verify", iso, tri, "--seed", "0", "--k", "5000"]) == cli.EXIT_OK
    capsys.readouterr()


def test_solve_accepts_inline_expression(fp_sys, capsys):
    code = cli.main(["solve", fp_sys, "qdot^3", "--mode", "strong"])
    capsys.readouterr()
    assert code == cli.EXIT_OK


def test_solve_not_conserved(fp_sys, capsys):
    code = cli.main(["solve", fp_sys, "q", "--mode", "strong"])
    assert code == cli.EXIT_NOT_CONSERVED
    assert "not a first integral" in capsys.readouterr().err


def test_solve_parse_error(fp_sys, capsys):
    code = cli.main(["solve", fp_sys, "q +", "--mode", "strong"])
    assert code == cli.EXIT_PARSE


def test_verify_failure_exit_code(fp_sys, tmp_path, capsys):
    from noetherkit.noether import Triple
    import sympy as sp

    q = sp.Symbol("q", real=True)
    tri = tmp_path / "bad.tri"
    write_triple_file(tri, {"bad": Triple(sp.Integer(0), (q,), sp.Integer(0),
                                          "strong")})
    code = cli.main(["verify", fp_sys, str(tri)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_FAIL
    assert "FAIL bad" in err and "witness" in err


def test_verify_form_override(fp_sys, tmp_path, capsys):
    from noetherkit.noether import Triple
    import sympy as sp

    t = sp.Symbol("t", real=True)
    q = sp.Symbol("q", real=True)
    qd = sp.Symbol("qdot", real=True)
    # gamma6: on-flow solution only
    tri = tmp_path / "g6.tri"
    write_triple_file(tri, {"gamma6": Triple(sp.Integer(0), (q,),
                                             q * qd + q - t * qd, "onflow")})
    assert cli.main(["verify", fp_sys, str(tri)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["verify", fp_sys, str(tri), "--form", "strong"]) == cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert "qddot" in err  # witness binds the acceleration


def test_integrate_and_monitor(kepler_sys, tmp_path, capsys):
    csv = tmp_path / "orbit.csv"
    code = cli.main(["integrate", kepler_sys, "0,1,0,0,0,1,0", "--t1", "1",
                     "--dt", "0.01", "--monitor", "energy", "angmom3",
                     "--csv", str(csv)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["truncated"] is False
    assert {d["integral"] for d in report["drift"]} == {"energy", "angmom3"}
    assert all(d["max_rel_drift"] < 1e-6 for d in report["drift"])
    assert csv.read_text().splitlines()[0] == "t,r1,r2,r3,r1dot,r2dot,r3dot"


def test_integrate_truncation_exit(kepler_sys, capsys):
    code = cli.main(["integrate", kepler_sys, "0,1,0,0,0,0,0", "--t1", "3",
                     "--dt", "0.001"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_TRUNCATED
    assert json.loads(out)["truncated"] is True


def test_integrate_bad_state(kepler_sys, capsys):
    assert cli.main(["integrate", kepler_sys, "0,1,0", "--t1", "1"]) == cli.EXIT_PARSE
    assert cli.main(["integrate", kepler_sys, "0,1,0,0,0,1,0", "--t1", "1",
                     "--monitor", "zorp"]) == cli.EXIT_PARSE


def test_reports_are_seed_deterministic(fp_sys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        cli.main(["solve", fp_sys, "momentum", "--mode", "strong",
                  "--seed", "4", "--out", str(out)])
    assert out1.read_bytes() == out2.read_bytes()


KEPLER_ORBIT = "0,1,0,0,0,1,0"

# (argv with {name} for the path of the system file fixture name_sys, exit code)
EXIT_TABLE = [
    (["solve", "{fp}", "sqrt(q)", "--mode", "strong"], cli.EXIT_SINGULAR),
    (["solve", "{fp}", "log(q)", "--mode", "onflow-simplest"], cli.EXIT_SINGULAR),
    (["solve", "{fp}", "energy", "--mode", "strong", "--k", "0"], cli.EXIT_PARSE),
    (["verify", "{fp}", "any.tri", "--k", "-3"], cli.EXIT_PARSE),
    (["verify", "{fp}", "no-such.tri"], cli.EXIT_PARSE),
    (["integrate", "{kepler}", KEPLER_ORBIT, "--t1", "1", "--dt", "0"], cli.EXIT_PARSE),
    (["integrate", "{kepler}", KEPLER_ORBIT, "--t1", "1", "--dt", "-0.1"], cli.EXIT_PARSE),
    (["integrate", "{kepler}", "2,1,0,0,0,1,0", "--t1", "1"], cli.EXIT_PARSE),
    (["integrate", "{kepler}", "0,a,0,0,0,1,0", "--t1", "1"], cli.EXIT_PARSE),
    (["integrate", "{kepler}", "0,0.1,0,0,0,1,0", "--t1", "1"], cli.EXIT_SINGULAR),
    (["integrate", "{kepler}", KEPLER_ORBIT, "--t1", "0"], cli.EXIT_OK),
    (["integrate", "{kepler}", KEPLER_ORBIT, "--t1", "1", "--dt", "1e-300"], cli.EXIT_PARSE),
    (["integrate", "{kepler}", KEPLER_ORBIT, "--t1", "1e12"], cli.EXIT_PARSE),
    (["integrate", "{blow}", "0,10,0", "--t1", "1"], cli.EXIT_TRUNCATED),
    (["integrate", "{pole}", "0,1,0", "--t1", "1"], cli.EXIT_TRUNCATED),
    (["integrate", "{fp_log}", "0,1,-1", "--t1", "2", "--monitor", "log_q"],
     cli.EXIT_SINGULAR),
    (["solve", "{fp}", "energy", "--mode", "onflow-R", "--R", "1;2"], cli.EXIT_PARSE),
    (["solve", "{opaque}", "N1", "--mode", "strong"], cli.EXIT_PARSE),
    (["describe", "{bad_number}"], cli.EXIT_PARSE),
    (["describe", "{bad_xi}"], cli.EXIT_PARSE),
    (["solve", "{bad_form}", "energy", "--mode", "strong"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "lrl_u", "--mode", "strong", "--tau", "r1ddot"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "lrl_u", "--mode", "onflow-R", "--R", "r1ddot;0;0"],
     cli.EXIT_PARSE),
    (["solve", "{kepler}", "r1ddot", "--mode", "strong"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "lrl_u", "--mode", "strong", "--tau", "1/0"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "0/0", "--mode", "strong"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "lrl_u", "--mode", "strong", "--tau", "1e999"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "lrl_u", "--mode", "strong", "--tau", "1e308*10"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "lrl_u", "--mode", "strong", "--tau", "10^400"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "lrl_u", "--mode", "strong", "--tau", "r1*10^400"], cli.EXIT_PARSE),
    (["verify", "{fp}", "{frm}"], cli.EXIT_PARSE),
    (["describe", "{singualr}"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "lrl_u", "--mode", "strong", "--tau", "sqrt(-1)"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "lrl_u", "--mode", "strong", "--tau", "log(-1)"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "lrl_u", "--mode", "strong", "--tau", "(-8)^(1/3)"], cli.EXIT_PARSE),
    (["integrate", "{complex}", "0,1,0", "--t1", "1"], cli.EXIT_PARSE),
    (["describe", "{range_reversed}"], cli.EXIT_PARSE),
    (["describe", "{range_infinite}"], cli.EXIT_PARSE),
    (["describe", "{range_unknown}"], cli.EXIT_PARSE),
]


@pytest.mark.parametrize("argv, code", EXIT_TABLE, ids=lambda v: " ".join(v)
                         if isinstance(v, list) else str(v))
def test_exit_code_table(argv, code, request, capsys):
    argv = [re.sub(r"\{(\w+)\}", lambda m: request.getfixturevalue(m[1] + "_sys"), a)
            for a in argv]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == cli.EXIT_TRUNCATED:  # a report, not an error
        assert json.loads(out)["truncated"] is True
    elif code != cli.EXIT_OK:
        assert "error" in err.splitlines()[-1]


def _run_cli(argv, **env):
    env = dict(os.environ, PYTHONPATH=str(Path(noetherkit.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-m", "noetherkit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_reports_are_identical_across_hash_seeds(kepler_sys):
    # string hashing differs per process; the compiled oracle must not
    # depend on it, or the last bits of a residual change between runs
    argv = ["solve", kepler_sys, "lrl_u", "--mode", "strong", "--seed", "577547"]
    outs = {_run_cli(argv, PYTHONHASHSEED=str(h)).stdout for h in (1, 2, 3)}
    assert len(outs) == 1 and '"verdict": "PASS"' in outs.pop()


def test_oracle_error_is_one_line_without_traceback(fp_sys):
    proc = _run_cli(["solve", fp_sys, "sqrt(q)", "--mode", "strong"])
    assert proc.returncode == cli.EXIT_SINGULAR
    assert proc.stderr.startswith("error: domain violation evaluating")
    assert "Dt(sqrt(q))" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
