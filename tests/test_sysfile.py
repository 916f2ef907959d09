import pytest

from noetherkit.noether import verify_triple
from noetherkit.sysfile import (
    SystemFileError,
    read_system_file,
    read_triple_file,
    write_system_file,
    write_triple_file,
)


def test_system_round_trip(kepler, tmp_path):
    path = tmp_path / "kepler.sys"
    write_system_file(path, kepler.system, integrals=kepler.integrals,
                      triples={k: t.simplified() for k, t in kepler.triples.items()})
    sf = read_system_file(path)
    assert sf.system.n == 3
    assert sf.system.param_values == kepler.system.param_values
    assert set(sf.integrals) == set(kepler.integrals)
    assert set(sf.triples) == set(kepler.triples)
    for name, N in kepler.integrals.items():
        assert sf.system.check(sf.integrals[name], N, k=20).passed
    rep = verify_triple(sf.system, sf.triples["strong_b"],
                        sf.integrals["lrl_u"], k=30)
    assert rep.passed


def test_round_trip_keeps_ranges_and_opaque(tmp_path):
    from noetherkit.corpus import load

    entry = load("isochrony", G="sqrt_neg", c=-1.0)
    path = tmp_path / "iso.sys"
    write_system_file(path, entry.system)
    sf = read_system_file(path)
    assert sf.system.var_ranges == entry.system.var_ranges
    assert len(sf.system.exclusions) == len(entry.system.exclusions)
    assert sf.system.check(sf.system.L, entry.system.L, k=20).passed


def test_triple_file_round_trip(fp, tmp_path):
    path = tmp_path / "triples.tri"
    write_triple_file(path, {"gamma5": fp.triples["gamma5"]})
    triples = read_triple_file(path, fp.system.alphabet)
    assert list(triples) == ["gamma5"]
    tr = triples["gamma5"]
    assert tr.form == "strong"
    assert verify_triple(fp.system, tr, fp.triple_integrals["gamma5"], k=30).passed


def _read(text, tmp_path):
    path = tmp_path / "bad.sys"
    path.write_text(text)
    return read_system_file(path)


def test_missing_system_section(tmp_path):
    with pytest.raises(SystemFileError):
        _read("[integral]\nname = n\nexpr = 1\n", tmp_path)


def test_missing_required_key(tmp_path):
    with pytest.raises(SystemFileError) as err:
        _read("[system]\nname = a\ndim = 1\ncoords = q\n", tmp_path)
    assert "lagrangian" in str(err.value)


def test_dim_coords_mismatch(tmp_path):
    with pytest.raises(SystemFileError):
        _read("[system]\ndim = 2\ncoords = q\nlagrangian = qdot^2/2\n", tmp_path)


def test_key_outside_section_reports_line(tmp_path):
    with pytest.raises(SystemFileError) as err:
        _read("name = a\n", tmp_path)
    assert "(line 1)" in str(err.value)


def test_unknown_section(tmp_path):
    with pytest.raises(SystemFileError):
        _read("[system]\ndim = 1\ncoords = q\nlagrangian = qdot^2/2\n[orbit]\n",
              tmp_path)


def test_malformed_parameter(tmp_path):
    with pytest.raises(SystemFileError):
        _read("[system]\ndim = 1\ncoords = q\nparams = m = fast\n"
              "lagrangian = m*qdot^2/2\n", tmp_path)


def test_comments_and_blank_lines_ok(tmp_path):
    sf = _read("# free particle\n\n[system]\nname = fp\ndim = 1\ncoords = q\n"
               "lagrangian = qdot^2/2\n", tmp_path)
    assert sf.system.name == "fp"


def test_triple_file_requires_triples(fp, tmp_path):
    path = tmp_path / "empty.tri"
    path.write_text("# nothing here\n")
    with pytest.raises(SystemFileError):
        read_triple_file(path, fp.system.alphabet)
