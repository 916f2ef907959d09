import dataclasses
import errno
import hashlib
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
from noetherkit.corpus import load
from noetherkit.dsl import MAX_DEPTH, print_expr
from noetherkit.noether import solve_onflow_simplest, solve_strong
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
def fp_boost_tri_sys(fp_sys, tmp_path, capsys):
    path = tmp_path / "boost.tri"
    assert cli.main(["solve", fp_sys, "boost", "--mode", "strong",
                     "--triple-out", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
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
def dirac_sys(tmp_path):
    """L = qdot^2/2 + q*|qdot|, whose velocity Hessian holds DiracDelta(qdot)."""
    path = tmp_path / "dirac.sys"
    path.write_text("[system]\nname = dirac\ndim = 1\ncoords = q\n"
                    "lagrangian = qdot^2/2 + q*sqrt(qdot^2)\n")
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


def _oscillator_with(tmp_path, name, k):
    """An oscillator file with spring constant ``params = k = <k>`` and its energy."""
    path = tmp_path / f"{name}.sys"
    path.write_text(f"[system]\ndim = 1\ncoords = q\nparams = k = {k}\n"
                    "lagrangian = qdot^2/2 - k*q^2/2\n"
                    "[integral]\nname = energy\nexpr = qdot^2/2 + k*q^2/2\n")
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
def threshold_inf_sys(tmp_path):
    return _free_particle_with(tmp_path, "threshold_inf", "singular = q @ inf")


@pytest.fixture()
def threshold_nan_sys(tmp_path):
    return _free_particle_with(tmp_path, "threshold_nan", "singular = q @ nan")


@pytest.fixture()
def threshold_negative_sys(tmp_path):
    return _free_particle_with(tmp_path, "threshold_negative", "singular = q @ -1")


@pytest.fixture()
def threshold_key_sys(tmp_path):
    """A threshold for every entry at once: a key no section reads."""
    return _free_particle_with(tmp_path, "threshold_key", "singular = q\nsingular_threshold = 0.2")


@pytest.fixture()
def default_threshold_inf_sys(tmp_path):
    return _free_particle_with(tmp_path, "default_threshold_inf",
                               "singular = q\nsingular_threshold = inf")


@pytest.fixture()
def param_nan_sys(tmp_path):
    return _oscillator_with(tmp_path, "param_nan", "nan")


@pytest.fixture()
def param_inf_sys(tmp_path):
    return _oscillator_with(tmp_path, "param_inf", "inf")


@pytest.fixture()
def param_huge_sys(tmp_path):
    """1e999 reads as inf."""
    return _oscillator_with(tmp_path, "param_huge", "1e999")


@pytest.fixture()
def threshold_huge_sys(tmp_path):
    """|q| >= 1e300 holds nowhere in the sampling box."""
    return _free_particle_with(tmp_path, "threshold_huge", "singular = q @ 1e300")


@pytest.fixture()
def degenerate_sys(tmp_path):
    """lagrangian = qdot: g, and so det g, vanish identically."""
    path = tmp_path / "degenerate.sys"
    path.write_text("[system]\ndim = 1\ncoords = q\nlagrangian = qdot\n")
    return str(path)


@pytest.fixture()
def sqrt_metric_sys(tmp_path):
    """det g = sqrt(q) is NaN at every sample with q < 0."""
    path = tmp_path / "sqrt_metric.sys"
    path.write_text("[system]\ndim = 1\ncoords = q\nlagrangian = sqrt(q)*qdot^2/2\n")
    return str(path)


@pytest.fixture()
def bad_number_sys(tmp_path):
    path = tmp_path / "bad_number.sys"
    path.write_text("[system]\ndim = 1\ncoords = q\nlagrangian = qdot^2/2\n"
                    "singular = q @ small\n")
    return str(path)


@pytest.fixture()
def bad_xi_sys(tmp_path):
    """A free-particle triple file whose triple has two xi components for dim = 1."""
    path = tmp_path / "bad_xi.tri"
    path.write_text("[triple]\ntau = 0\nxi = 1, q\nf = 0\nform = strong\n")
    return str(path)


@pytest.fixture()
def bad_form_sys(tmp_path):
    """A free-particle triple file whose triple claims a form outside FORMS."""
    path = tmp_path / "bad_form.tri"
    path.write_text("[triple]\ntau = 0\nxi = 1\nf = 0\nform = weak\n")
    return str(path)


@pytest.fixture()
def log_f_sys(tmp_path):
    """A free-particle triple file whose f = log(q) is NaN at every q < 0."""
    path = tmp_path / "log_f.tri"
    path.write_text("[triple]\ntau = 0\nxi = 1\nf = log(q)\nform = strong\n")
    return str(path)


@pytest.fixture()
def triple_section_sys(fp, tmp_path):
    """A free-particle system file that also holds a [triple] section."""
    path = tmp_path / "triple_section.sys"
    write_system_file(path, fp.system, integrals=fp.integrals)
    with path.open("a") as fh:
        fh.write("[triple]\ntau = 0\nxi = 1\nf = 0\nform = strong\n")
    return str(path)


@pytest.fixture()
def triple_twice_sys(tmp_path):
    """A free-particle triple file with two triples named a."""
    path = tmp_path / "triple_twice.tri"
    path.write_text("[triple]\nname = a\ntau = 0\nxi = 1\nf = 0\nform = strong\n" * 2)
    return str(path)


@pytest.fixture()
def accel_f_sys(kepler, tmp_path):
    """The kepler3d triple file with r1ddot added to the first triple's f."""
    path = tmp_path / "accel_f.tri"
    write_triple_file(path, kepler.triples)
    path.write_text(path.read_text().replace("\nf = ", "\nf = r1ddot + ", 1))
    return str(path)


@pytest.fixture()
def accel_integral_sys(tmp_path):
    """A free-particle file whose integral holds the acceleration."""
    return _free_particle_with(tmp_path, "accel_integral",
                               "[integral]\nname = push\nexpr = q*qddot")


@pytest.fixture()
def accel_singular_sys(fp, tmp_path):
    """The free-particle triple file with the exclusion qddot - 5 given to its
    last triple, gamma8, of form onflow."""
    path = tmp_path / "accel_singular.tri"
    write_triple_file(path, fp.triples)
    with path.open("a") as fh:
        fh.write("singular = qddot - 5\n")
    return str(path)


def _sin_nested(tmp_path, name, calls):
    """A free-particle file whose Lagrangian adds sin nested ``calls`` deep,
    which the parser reads calls + 2 levels deep: the sum, its right operand
    and each call open one."""
    path = tmp_path / f"{name}.sys"
    path.write_text("[system]\ndim = 1\ncoords = q\n"
                    f"lagrangian = qdot^2/2 + {'sin(' * calls}q{')' * calls}\n")
    return str(path)


@pytest.fixture()
def deep_sin_sys(tmp_path):
    """A file whose Lagrangian nests sin 300 deep, too deep for sympy's printer."""
    return _sin_nested(tmp_path, "deep_sin", 300)


@pytest.fixture()
def sin_at_limit_sys(tmp_path):
    return _sin_nested(tmp_path, "sin_at_limit", MAX_DEPTH - 2)


@pytest.fixture()
def sin_past_limit_sys(tmp_path):
    return _sin_nested(tmp_path, "sin_past_limit", MAX_DEPTH - 1)


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


@pytest.mark.parametrize("mode", ["strong", "onflow-simplest"])
def test_triples_with_abs_round_trip(mode, tmp_path, capsys):
    # sympy writes sqrt(q^2) as Abs(q); the onflow-simplest file also has
    # Abs in its singular entry
    path, tri = str(tmp_path / "abs.sys"), tmp_path / "energy.tri"
    Path(path).write_text("[system]\nname = abs\ndim = 1\ncoords = q\n"
                          "lagrangian = qdot^2/2 - sqrt(q^2)\nsingular = q @ 0.01\n"
                          "[integral]\nname = energy\nexpr = qdot^2/2 + sqrt(q^2)\n")
    assert cli.main(["solve", path, "energy", "--mode", mode,
                     "--triple-out", str(tri)]) == cli.EXIT_OK
    assert "Abs" not in tri.read_text()
    assert "sqrt((q)^2)" in tri.read_text()
    assert cli.main(["verify", path, str(tri)]) == cli.EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("integral", ["exp(1)*qdot", "sqrt(qdot^2)"])
def test_triples_with_euler_s_number_or_a_sign_round_trip(integral, fp_sys, tmp_path, capsys):
    # the strong xi is -E and -sign(qdot), which print as exp(1) and as
    # qdot/sqrt(qdot^2)
    tri = tmp_path / "n.tri"
    assert cli.main(["solve", fp_sys, integral, "--mode", "strong",
                     "--triple-out", str(tri)]) == cli.EXIT_OK
    assert cli.main(["verify", fp_sys, str(tri)]) == cli.EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["strong", "onflow-simplest"])
def test_solve_prints_the_triple_as_derived(mode, kepler, kepler_sys, capsys):
    assert cli.main(["solve", kepler_sys, "lrl_u", "--mode", mode]) == cli.EXIT_OK
    printed = json.loads(capsys.readouterr().out)["triple"]
    solve = solve_strong if mode == "strong" else solve_onflow_simplest
    tr = solve(kepler.system, kepler.integrals["lrl_u"])
    assert printed == {"tau": print_expr(tr.tau), "xi": [print_expr(x) for x in tr.xi],
                       "f": print_expr(tr.f), "form": tr.form}


@pytest.mark.parametrize("name", ["freeparticle", "isochrony", "kepler3d"])
def test_corpus_export_writes_a_system_and_a_triple_file(name, tmp_path, capsys):
    out = tmp_path / f"{name}.sys"
    assert cli.main(["corpus", "export", name, "--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out == f"wrote {out} and {out.with_suffix('.tri')}\n"
    assert "[triple]" not in out.read_text()
    report = tmp_path / "report.json"
    assert cli.main(["verify", str(out), str(out.with_suffix(".tri")),
                     "--out", str(report)]) == cli.EXIT_OK
    reports = json.loads(report.read_text())["reports"]
    assert len(reports) == len(load(name).triples)
    assert {r["verdict"] for r in reports} == {"PASS"}


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


def test_integrate_csv_keeps_the_time_column_far_from_zero(fp_sys, tmp_path, capsys):
    csv = tmp_path / "big.csv"
    code = cli.main(["integrate", fp_sys, "1e9,1,1", "--t1", "1000000000.005",
                     "--csv", str(csv)])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    ts = [line.split(",")[0] for line in csv.read_text().splitlines()[1:]]
    assert len(ts) == 6 and len(set(map(float, ts))) == len(ts)
    assert [f"{float(v):.17g}" for v in ts] == ts


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
# [system] bodies the CLI cannot build a system from: reserved, repeated or
# derived names, names the DSL cannot read as one identifier, and an
# acceleration in the Lagrangian
UNBUILDABLE = {
    "coord_t": "dim = 1\ncoords = t\nlagrangian = tdot^2/2",
    "coord_sin": "dim = 1\ncoords = sin\nlagrangian = sindot^2/2",
    "coord_twice": "dim = 2\ncoords = q, q\nlagrangian = qdot^2/2",
    "param_coord": "dim = 1\ncoords = q\nparams = q = 1\nlagrangian = qdot^2/2",
    "accel_lagrangian": "dim = 1\ncoords = q\nlagrangian = qdot^2/2 + qddot",
    "coord_velocity": "dim = 2\ncoords = q, qdot\nlagrangian = qdot^2/2 + qdotdot^2/2",
    "param_velocity": "dim = 1\ncoords = q\nparams = qdot = 1\nlagrangian = qdot^2/2",
    "param_number": "dim = 1\ncoords = q\nparams = 2.5 = 1\nlagrangian = qdot^2/2",
    "param_spaced": "dim = 1\ncoords = q\nparams = a b = 2\nlagrangian = qdot^2/2",
    "no_coords": "dim = 0\ncoords =\nlagrangian = 1",
    # a file states each thing once
    "singular_twice": "dim = 1\ncoords = q\nlagrangian = qdot^2/2\nsingular = q @ 0.5\n"
                      "singular = q - 3 @ 0.1",
    "param_twice": "dim = 1\ncoords = q\nparams = k = 1.0, k = 2.0\nlagrangian = k*qdot^2/2",
    "system_twice": "dim = 1\ncoords = q\nlagrangian = qdot^2/2\n[integral]\nname = e\n"
                    "expr = q\n[system]\ndim = 1\ncoords = x\nlagrangian = xdot^2/2",
    "integral_twice": "dim = 1\ncoords = q\nlagrangian = qdot^2/2\n[integral]\nname = e\n"
                      "expr = qdot\n[integral]\nname = e\nexpr = q",
}


EXIT_TABLE = [
    (["solve", "{fp}", "sqrt(q)", "--mode", "strong"], cli.EXIT_SINGULAR),
    (["solve", "{fp}", "log(q)", "--mode", "onflow-simplest"], cli.EXIT_SINGULAR),
    (["solve", "{fp}", "energy", "--mode", "strong", "--k", "0"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "sideways"], cli.EXIT_PARSE),
    (["solve", "{fp}", "--mode", "strong"], cli.EXIT_PARSE),
    (["describe", "{fp}", "--bogus"], cli.EXIT_PARSE),
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
    (["verify", "{fp}", "{bad_xi}"], cli.EXIT_PARSE),
    (["verify", "{fp}", "{bad_form}"], cli.EXIT_PARSE),
    (["describe", "{triple_section}"], cli.EXIT_PARSE),
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
    # an exact constant beyond the float range, refused where it is written
    (["solve", "{kepler}", "-mu/sqrt(r1^2 + r2^2 + r3^2) + r1dot^2/2 + r2dot^2/2 + r3dot^2/2"
      " + exp(1000)", "--mode", "strong"], cli.EXIT_PARSE),
    (["integrate", "{complex}", "0,1,0", "--t1", "1"], cli.EXIT_PARSE),
    (["describe", "{range_reversed}"], cli.EXIT_PARSE),
    (["describe", "{range_infinite}"], cli.EXIT_PARSE),
    (["describe", "{range_unknown}"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "strong", "--tol", "nan"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "strong", "--tol", "-1"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "strong", "--tol", "inf"], cli.EXIT_PARSE),
    (["verify", "{fp}", "any.tri", "--tol", "0"], cli.EXIT_PARSE),
    (["integrate", "{kepler}", KEPLER_ORBIT, "--t1", "1", "--dt", "inf"], cli.EXIT_PARSE),
    (["integrate", "{kepler}", KEPLER_ORBIT, "--t1", "1", "--dt", "nan"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "alt-strong", "--c", "nan"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "onflow-simplest", "--c", "inf"], cli.EXIT_PARSE),
    (["describe", "{threshold_inf}"], cli.EXIT_PARSE),
    (["describe", "{threshold_nan}"], cli.EXIT_PARSE),
    (["describe", "{threshold_negative}"], cli.EXIT_PARSE),
    (["describe", "{default_threshold_inf}"], cli.EXIT_PARSE),
    (["describe", "{threshold_key}"], cli.EXIT_PARSE),
    (["describe", "{threshold_huge}"], cli.EXIT_REGULARITY),
    (["describe", "{degenerate}"], cli.EXIT_REGULARITY),
    (["describe", "{sqrt_metric}"], cli.EXIT_REGULARITY),
    (["verify", "{fp}", "{log_f}"], cli.EXIT_SINGULAR),
    (["describe", "{param_nan}"], cli.EXIT_PARSE),
    (["solve", "{param_nan}", "energy", "--mode", "strong"], cli.EXIT_PARSE),
    (["integrate", "{param_inf}", "0,1,0", "--t1", "1", "--monitor", "energy"], cli.EXIT_PARSE),
    (["describe", "{param_huge}"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "strong", "--seed", "-1"], cli.EXIT_PARSE),
    (["describe", "{dirac}"], cli.EXIT_PARSE),
    (["integrate", "{fp}", "0,1,1", "--t1", "1", "--csv", "no-such-dir/x.csv"], cli.EXIT_PARSE),
    (["integrate", "{fp}", "0,1,1", "--t1", "1", "--csv", "."], cli.EXIT_PARSE),
    (["integrate", "{fp}", "0,1,1", "--t1", "1", "--out", "no-such-dir/r.json"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "strong", "--triple-out", "no-such-dir/e.tri"],
     cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "strong", "--out", "."], cli.EXIT_PARSE),
    (["verify", "{fp}", "{fp_boost_tri}", "--out", "no-such-dir/r.json"], cli.EXIT_PARSE),
    (["corpus", "export", "freeparticle", "--out", "no-such-dir/fp.sys"], cli.EXIT_PARSE),
    (["corpus", "export", "freeparticle", "--out", "x.tri"], cli.EXIT_PARSE),
    (["verify", "{kepler}", "{accel_f}"], cli.EXIT_PARSE),
    (["verify", "{fp}", "{accel_singular}"], cli.EXIT_PARSE),
    (["verify", "{fp}", "{accel_singular}", "--form", "strong"], cli.EXIT_PARSE),
    (["describe", "{accel_integral}"], cli.EXIT_PARSE),
    (["solve", "{accel_integral}", "push", "--mode", "strong"], cli.EXIT_PARSE),
    (["integrate", "{accel_integral}", "0,1,1", "--t1", "1", "--monitor", "push"],
     cli.EXIT_PARSE),
    *((["describe", "{%s}" % name], cli.EXIT_PARSE) for name in UNBUILDABLE),
    (["integrate", "{no_coords}", "0", "--t1", "0.01"], cli.EXIT_PARSE),
    (["solve", "{no_coords}", "1", "--mode", "strong"], cli.EXIT_PARSE),
    (["integrate", "{singular_twice}", "0,0.2,0", "--t1", "0.01"], cli.EXIT_PARSE),
    (["solve", "{param_twice}", "energy", "--mode", "strong"], cli.EXIT_PARSE),
    (["verify", "{fp}", "{triple_twice}"], cli.EXIT_PARSE),
    # a triple file that holds a [system] section
    (["verify", "{fp}", "{fp}"], cli.EXIT_PARSE),
    # an option the mode does not read
    (["solve", "{fp}", "energy", "--mode", "strong", "--c", "7"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "strong", "--R", "q"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "onflow-simplest", "--tau", "t"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "onflow-simplest", "--R", "q"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "onflow-R", "--tau", "1/0"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "alt-strong", "--tau", "t"], cli.EXIT_PARSE),
    (["solve", "{fp}", "energy", "--mode", "alt-strong", "--R", ""], cli.EXIT_PARSE),
    # an input too large or too deeply nested: a sample array of 78 PiB, which
    # fails at allocation, and expressions 3000 parentheses or 300 calls deep;
    # then expressions at the parser's MAX_DEPTH levels, and one level past it
    (["verify", "{kepler}", "{kepler_tri}", "--k", "1000000000000000"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "(" * 3000 + "r1" + ")" * 3000, "--mode", "strong"],
     cli.EXIT_PARSE),
    (["describe", "{deep_sin}"], cli.EXIT_PARSE),
    (["describe", "{sin_at_limit}"], cli.EXIT_OK),
    (["describe", "{sin_past_limit}"], cli.EXIT_PARSE),
    (["solve", "{kepler}", "(" * (MAX_DEPTH - 1) + "r1" + ")" * (MAX_DEPTH - 1), "--mode",
      "strong"], cli.EXIT_NOT_CONSERVED),
    (["solve", "{kepler}", "(" * MAX_DEPTH + "r1" + ")" * MAX_DEPTH, "--mode", "strong"],
     cli.EXIT_PARSE),
    # solve writes only a triple file that reads back: the strong triple of
    # sin nested 62 deep around qdot is within MAX_DEPTH, that of 63 past it
    (["solve", "{fp}", "sin(" * 62 + "qdot" + ")" * 62, "--mode", "strong", "--triple-out",
      "t.tri"], cli.EXIT_OK),
    (["solve", "{fp}", "sin(" * 63 + "qdot" + ")" * 63, "--mode", "strong", "--triple-out",
      "t.tri"], cli.EXIT_PARSE),
]


def _row_id(v):
    """A table row's id: its argv joined, an argument longer than 40
    characters shown by its length."""
    if not isinstance(v, list):
        return str(v)
    return " ".join(a if len(a) <= 40 else f"<{len(a)} characters>" for a in v)


def _argv(argv, request):
    """argv with each {name} replaced by the path, relative to the working
    directory, of the fixture name_sys, or of a system file written from
    UNBUILDABLE[name]."""
    def path(m):
        if m[1] not in UNBUILDABLE:
            return os.path.relpath(request.getfixturevalue(m[1] + "_sys"))
        out = request.getfixturevalue("tmp_path") / f"{m[1]}.sys"
        out.write_text(f"[system]\n{UNBUILDABLE[m[1]]}\n")
        return os.path.relpath(out)

    return [re.sub(r"\{(\w+)\}", path, a) for a in argv]


# the sha256 of each EXIT_TABLE row's stderr, by row id, run in the
# directory that holds the row's files
EXIT_STDERR = json.loads((Path(__file__).parent / "cli_pins.json").read_text())["exit_table"]


@pytest.mark.parametrize("argv, code", EXIT_TABLE, ids=_row_id)
def test_exit_code_table(argv, code, request, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(_argv(argv, request)) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(err.encode()).hexdigest() == EXIT_STDERR[request.node.callspec.id], err
    assert "Traceback" not in err
    if code == cli.EXIT_TRUNCATED:  # a report, not an error
        assert json.loads(out)["truncated"] is True
    elif code != cli.EXIT_OK:  # codes 2-5: one error line
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_describe_prints_nothing_before_an_error(deep_sin_sys, capsys):
    # the parser refuses L past MAX_DEPTH levels, before any line is derived
    assert cli.main(["describe", deep_sin_sys]) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: input too large or too deeply nested")


def test_solve_names_the_option_its_mode_does_not_read(fp_sys, capsys):
    assert cli.main(["solve", fp_sys, "energy", "--mode", "onflow-R", "--tau", "1/0"]) == \
        cli.EXIT_PARSE
    assert capsys.readouterr().err == "error: --tau is not read in --mode onflow-R\n"


@pytest.mark.parametrize("calls", [62, 63])
def test_solve_writes_only_a_triple_that_reads_back(calls, fp_sys, tmp_path, capsys):
    # the strong triple of sin nested 63 deep around qdot nests past
    # MAX_DEPTH: solve refuses it before writing the triple or the report
    tri, report = tmp_path / "t.tri", tmp_path / "r.json"
    argv = ["solve", fp_sys, "sin(" * calls + "qdot" + ")" * calls, "--mode", "strong",
            "--triple-out", str(tri), "--out", str(report)]
    code, out, err = _in_process(argv, capsys)
    if calls < 63:
        assert (code, out, err) == (cli.EXIT_OK, "", "")
        assert cli.main(["verify", fp_sys, str(tri)]) == cli.EXIT_OK
        return
    assert (code, out, tri.exists(), report.exists()) == (cli.EXIT_PARSE, "", False, False)
    assert err == ("error: --triple-out: the triple does not read back: input too large or "
                   "too deeply nested: more than 64 levels (at position 10328) (line 4)\n")


def test_degenerate_system_error_names_a_point(degenerate_sys, capsys):
    assert cli.main(["describe", degenerate_sys]) == cli.EXIT_REGULARITY
    err = capsys.readouterr().err
    assert err.startswith("error: singular Hessian: |det g| = 0.000e+00 at {'t': ")
    assert "'q': " in err and "'qdot': " in err


def test_solve_exits_5_when_the_g_inverse_fails_its_spot_check(kepler_sys, monkeypatch,
                                                               capsys):
    # a stored det g twice the true one, which is 1
    sf = cli.read_system_file(kepler_sys)
    bad = dataclasses.replace(sf, system=dataclasses.replace(sf.system,
                                                             det_g=2 * sf.system.det_g))
    monkeypatch.setattr(cli, "read_system_file", lambda path: bad)
    assert cli.main(["solve", kepler_sys, "lrl_u", "--mode", "strong"]) == cli.EXIT_SINGULAR
    err = capsys.readouterr().err
    assert err.startswith("error: singular Hessian: |det g| = 2.000e+00 at {'t': ")


def test_help_is_usage_on_stdout(capsys):
    assert cli.main(["solve", "-h"]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out.startswith("usage: noetherkit solve") and err == ""


def _run_cli(argv, stdout=subprocess.PIPE, **env):
    env = dict(os.environ, PYTHONPATH=str(Path(noetherkit.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-m", "noetherkit.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


def test_reports_are_identical_across_hash_seeds(kepler_sys):
    # string hashing differs per process; the compiled oracle must not
    # depend on it, or the last bits of a residual change between runs
    for mode in ("strong", "onflow-simplest"):
        argv = ["solve", kepler_sys, "lrl_u", "--mode", mode, "--seed", "577547"]
        outs = {_run_cli(argv, PYTHONHASHSEED=str(h)).stdout for h in (1, 2, 3)}
        assert len(outs) == 1 and '"verdict": "PASS"' in outs.pop()


def test_oracle_error_is_one_line_without_traceback(fp_sys):
    proc = _run_cli(["solve", fp_sys, "sqrt(q)", "--mode", "strong"])
    assert proc.returncode == cli.EXIT_SINGULAR
    assert proc.stderr.startswith("error: domain violation evaluating")
    assert "Dt(sqrt(q))" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv, code", [row for row in EXIT_TABLE if row[0] in (
    ["verify", "{fp}", "no-such.tri"],
    ["integrate", "{fp}", "0,1,1", "--t1", "1", "--out", "no-such-dir/r.json"],
)], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_errors_of_a_process_are_one_line(argv, code, request):
    proc = _run_cli(_argv(argv, request))
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["PYTHONUNBUFFERED=1", "buffered"])
def test_closed_stdout_is_one_line_and_exit_2(unbuffered, kepler_sys):
    # noetherkit solve ... | (exec 0<&-; ...): the report meets a pipe with no
    # reader, at its write when stdout is unbuffered, at the final flush if not
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_cli(["solve", kepler_sys, "lrl_u", "--mode", "strong", "--seed", "3"],
                        stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_PARSE
    assert proc.stderr == f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["PYTHONUNBUFFERED=1", "buffered"])
def test_closed_stdout_after_a_fail_is_one_line(unbuffered, kepler_sys, kepler_tri_sys):
    # the report fails before the FAIL lines are printed, so only its error shows
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_cli(["verify", kepler_sys, kepler_tri_sys, "--form", "strong", "--seed",
                         "5"], stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_PARSE
    assert proc.stderr == f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


def _run_cli_redirected(redirect, argv, stdout=subprocess.PIPE, **env):
    """``_run_cli`` in a process started through the shell ``redirect``: one
    that closes a descriptor (Python then has no sys.stdout or sys.stderr)
    or opens it read-only (its writes fail)."""
    env = dict(os.environ, PYTHONPATH=str(Path(noetherkit.__file__).parents[1]), **env)
    return subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m",
                           "noetherkit.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=120)


STDERR_LOST = pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"])
UNBUFFERED = pytest.mark.parametrize("unbuffered", ["1", ""],
                                     ids=["PYTHONUNBUFFERED=1", "buffered"])


@STDERR_LOST
@UNBUFFERED
def test_lost_stderr_keeps_the_exit_code(redirect, unbuffered, kepler_sys):
    # noetherkit verify kepler.sys no-such.tri 2>&-: the error line cannot be
    # written; exit 2 stands, and the line does not go to stdout instead
    proc = _run_cli_redirected(redirect, ["verify", kepler_sys, "no-such.tri"],
                               PYTHONUNBUFFERED=unbuffered)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_PARSE, "")


@STDERR_LOST
@UNBUFFERED
def test_lost_stderr_and_stdout_is_exit_2(redirect, unbuffered, kepler_sys):
    # noetherkit solve ... 2>&- | head -c 0: the report fails, then its error line
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_cli_redirected(redirect, ["solve", kepler_sys, "lrl_u", "--mode",
                                              "strong", "--seed", "3"], stdout=write,
                                   PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_PARSE


@STDERR_LOST
def test_lost_stderr_keeps_a_fail_and_its_report(redirect, kepler_sys, kepler_tri_sys):
    # noetherkit verify ... --form strong 2>&-: the FAIL lines cannot be
    # written; the report on stdout and exit 1 stand
    proc = _run_cli_redirected(redirect, ["verify", kepler_sys, kepler_tri_sys, "--form",
                                          "strong", "--seed", "5"])
    assert proc.returncode == cli.EXIT_FAIL
    assert "FAIL" in {r["verdict"] for r in json.loads(proc.stdout)["reports"]}


def test_a_fail_whose_report_cannot_be_written_is_one_error_line(kepler_sys, kepler_tri_sys,
                                                                  capsys):
    # the FAIL lines follow the report, so an error writing it stays alone
    code, out, err = _in_process(["verify", kepler_sys, kepler_tri_sys, "--form", "strong",
                                  "--out", "no-such-dir/r.json"], capsys)
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_closed_stdout_descriptor_drops_the_report(kepler_sys):
    # started with descriptor 1 closed, Python has no sys.stdout and print
    # writes nothing; the command still exits with its verdict
    proc = _run_cli_redirected(">&-", ["solve", kepler_sys, "lrl_u", "--mode", "strong",
                                       "--seed", "3"])
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")


# Seeded kepler3d reports, pinned byte for byte: a change that moves one bit
# of a residual, a witness or a printed triple fails here.  Each row is argv,
# exit code, and the sha256 of stdout and of stderr.
PINNED_REPORTS = [
    (["solve", "{kepler}", "lrl_u", "--mode", "strong", "--seed", "3"], cli.EXIT_OK,
     "a104fb78dd75e100ac10402abeae765a7923941bfc721b5436fc279e09008b71",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["solve", "{kepler}", "lrl_u", "--mode", "onflow-simplest", "--seed", "3"], cli.EXIT_OK,
     "8d0f87409321e8fae0bdd903aabcbcccc3b3f50bf2484af767f0726f74eafa81",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["verify", "{kepler}", "{kepler_tri}", "--seed", "5"], cli.EXIT_OK,
     "f9357f821fec3acf818a09e48e30cc523dd5e7b493859326beb9809dcb0aebe1",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["verify", "{kepler}", "{kepler_tri}", "--form", "strong", "--seed", "5"], cli.EXIT_FAIL,
     "24490c112fddcc1ea82838f1036fde3e0342efa4aa97e81d3f28df863b9a670d",
     "3e0ca717bcd36a5d4248c00e6e524bb999b57924e313105c9c07a41297450a2e"),
    (["integrate", "{kepler}", KEPLER_ORBIT, "--t1", "2", "--dt", "0.01",
      "--monitor", "energy", "lrl_u"], cli.EXIT_OK,
     "b07c322f55b664333c8dae3d0a44d3e5785e1b4c13cb3e7d77f1209d3a3062b6",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["solve", "{kepler}", "r1*r2dot", "--mode", "strong", "--seed", "3"],
     cli.EXIT_NOT_CONSERVED,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "26e23befcdf21a3b61ea3096925c032129fb1f44260880410e63058d85eb2981"),
]


@pytest.fixture()
def kepler_tri_sys(kepler, tmp_path):
    path = tmp_path / "kepler.tri"
    write_triple_file(path, kepler.triples)
    return str(path)


def _in_process(argv, capsys):
    return (cli.main(argv), *capsys.readouterr())


@pytest.mark.parametrize("mode, option", [("strong", "--tau="), ("onflow-R", "--R=")])
def test_an_empty_expression_option_is_a_parse_error(mode, option, fp_sys, capsys):
    # an empty --tau or --R is not 0
    code, out, err = _in_process(["solve", fp_sys, "energy", "--mode", mode, option], capsys)
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == "error: unexpected 'end of input' (at position 0)\n"


def _in_a_process(argv, capsys):
    """What ``python -m noetherkit.cli`` leaves on its pipes when it exits,
    with stdout buffered, so output left unflushed at the exit is lost."""
    proc = _run_cli(argv, PYTHONUNBUFFERED="")
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv, code, stdout, stderr, run", [
    *(pytest.param(*row, _in_process, id=" ".join(row[0])) for row in PINNED_REPORTS),
    *(pytest.param(*row, _in_a_process, id="python -m noetherkit.cli " + " ".join(row[0]))
      for row in PINNED_REPORTS),
])
def test_seeded_reports_are_pinned(argv, code, stdout, stderr, run, request, capsys):
    got, out, err = run(_argv(argv, request), capsys)
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
    assert (got, *digests) == (code, stdout, stderr), (out, err)
