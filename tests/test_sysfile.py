from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from noetherkit.corpus import load
from noetherkit.expressions import Alphabet, Exclusion
from noetherkit.noether import (
    FORMS,
    solve_onflow_simplest,
    solve_onflow_with_R,
    solve_strong,
    verify_triple,
)
from noetherkit.sysfile import (
    SystemFileError,
    read_system_file,
    read_triple_file,
    write_system_file,
    write_triple_file,
)


def test_system_round_trip(kepler, tmp_path):
    path = tmp_path / "kepler.sys"
    write_system_file(path, kepler.system, integrals=kepler.integrals)
    write_triple_file(tmp_path / "kepler.tri", kepler.triples)
    sf = read_system_file(path)
    triples = read_triple_file(tmp_path / "kepler.tri", sf.system.alphabet)
    assert sf.system.n == 3
    assert sf.system.param_values == kepler.system.param_values
    assert set(sf.integrals) == set(kepler.integrals)
    assert set(triples) == set(kepler.triples)
    for name, N in kepler.integrals.items():
        assert sf.system.check(sf.integrals[name], N, k=20).passed
    rep = verify_triple(sf.system, triples["strong_b"], sf.integrals["lrl_u"], k=30)
    assert rep.passed
    # a system file with the triples appended, as corpus export once wrote it
    path.write_text(path.read_text() + (tmp_path / "kepler.tri").read_text())
    with pytest.raises(SystemFileError, match=r"\[triple\] section belongs in a triple file"):
        read_system_file(path)


def _same_exclusions(sysdef, got, want):
    assert [ex.threshold for ex in got] == [ex.threshold for ex in want]
    assert not want or sysdef.check([ex.expr for ex in got], [ex.expr for ex in want],
                                    k=20).passed


def test_round_trip_keeps_ranges_and_exclusions(fp, tmp_path):
    entry = load("isochrony", G="sqrt_neg", c=-1.0)
    path = tmp_path / "iso.sys"
    write_system_file(path, entry.system)
    sf = read_system_file(path)
    assert sf.system.var_ranges == entry.system.var_ranges
    _same_exclusions(sf.system, sf.system.exclusions, entry.system.exclusions)
    assert sf.system.check(sf.system.L, entry.system.L, k=20).passed
    # each exclusion keeps its own threshold
    q, qd = fp.system.alphabet.coord_symbols[0], fp.system.alphabet.velocity_symbols[0]
    sysdef = replace(fp.system, exclusions=(Exclusion(q, 0.25), Exclusion(qd - 1, 1e-3)))
    write_system_file(path, sysdef)
    _same_exclusions(sysdef, read_system_file(path).system.exclusions, sysdef.exclusions)


@pytest.fixture(scope="module")
def entries(fp, iso, iso_steep, kepler):
    # sqrt_neg adds a sampling range and an exclusion with its own threshold
    return {"fp": fp, "iso": iso, "iso_steep": iso_steep, "kepler": kepler,
            "iso_sqrt_neg": load("isochrony", G="sqrt_neg", c=-1.0)}


def _verdicts(rep):
    """The Killing and integral verdicts of a report, each FAIL with its witness."""
    checks = [(rep.max_residual <= rep.tol, rep.worst_point),
              (rep.integral_check.passed, rep.integral_check.worst_point)]
    return [(passed, None if passed else point) for passed, point in checks]


@given(data=st.data())
def test_round_trip_keeps_verdicts_witnesses_and_exclusions(entries, tmp_path_factory, data):
    entry = entries[data.draw(st.sampled_from(sorted(entries)))]
    sysdef = entry.system
    ab = sysdef.alphabet
    source = data.draw(st.sampled_from(("corpus", "strong", "onflow-simplest", "onflow-R")))
    if source == "corpus":
        name = data.draw(st.sampled_from(sorted(entry.triples)))
        tr, N = entry.triples[name], entry.triple_integrals[name]
    else:
        N = entry.integrals[data.draw(st.sampled_from(sorted(entry.integrals)))]
        terms = st.sampled_from((0, ab.t, *ab.coord_symbols, ab.t * ab.velocity_symbols[0]))
        if source == "strong":
            tr = solve_strong(sysdef, N, data.draw(terms))
        elif source == "onflow-simplest":
            tr = solve_onflow_simplest(sysdef, N)
        else:
            tr = solve_onflow_with_R(sysdef, N, [data.draw(terms) for _ in range(sysdef.n)])
    form = data.draw(st.sampled_from(FORMS))

    path = tmp_path_factory.mktemp("round_trip")
    write_system_file(path / "s.sys", sysdef, integrals={"N": N})
    write_triple_file(path / "t.tri", {"T": tr})
    sf = read_system_file(path / "s.sys")
    assert sf.system.param_values == sysdef.param_values
    assert sf.system.var_ranges == sysdef.var_ranges
    _same_exclusions(sysdef, sf.system.exclusions, sysdef.exclusions)
    want = _verdicts(verify_triple(sysdef, tr, N, form, k=50))
    back = read_triple_file(path / "t.tri", sf.system.alphabet)["T"]
    assert back.form == tr.form
    _same_exclusions(sysdef, back.exclusions, tr.exclusions)
    assert _verdicts(verify_triple(sf.system, back, sf.integrals["N"], form, k=50)) == want


def test_exclusions_without_their_own_threshold_take_the_default(tmp_path):
    sf = _read(_FP + "singular = q @ 0.3, q - 1\n", tmp_path)
    assert [ex.threshold for ex in sf.system.exclusions] == [0.3, Exclusion.threshold]


def test_triple_file_keeps_the_solver_margin(iso, tmp_path):
    tr = solve_onflow_simplest(iso.system, iso.integrals["N1"]).simplified()
    assert tr.exclusions
    path = tmp_path / "n1.tri"
    write_triple_file(path, {"N1": tr})
    back = read_triple_file(path, iso.system.alphabet)["N1"]
    _same_exclusions(iso.system, back.exclusions, tr.exclusions)
    assert verify_triple(iso.system, back, iso.integrals["N1"], k=30).passed


def test_opaque_functions_are_not_part_of_the_format(tmp_path):
    with pytest.raises(SystemFileError, match="opaque") as err:
        _read("[system]\ndim = 2\ncoords = x, y\nopaque = G\n"
              "lagrangian = xdot*ydot - G(x)*y\n", tmp_path)
    assert "(line 4)" in str(err.value)


_FP = "[system]\ndim = 1\ncoords = q\nlagrangian = qdot^2/2\n"


@pytest.mark.parametrize("text, key, line", [
    (_FP + "singualr = q\n", "singualr", 5),
    (_FP + "[integral]\nname = energy\nexpr = qdot^2/2\nsingular = q\n", "singular", 8),
    (_FP + "[triple]\ntau = 0\nxi = t\nf = q\nfrm = strong\n", "frm", 9),
    (_FP + "[triple]\ntau = 0\nxi = t\nf = q\nrange_q = 0, 1\n", "range_q", 9),
    # a threshold is stated once, after its entry's @
    (_FP + "singular = q\nsingular_threshold = 0.2\n", "singular_threshold", 6),
    (_FP + "[triple]\ntau = 0\nxi = 1\nf = 0\nsingular = q\nsingular_threshold = 0.2\n",
     "singular_threshold", 10),
], ids=["system", "integral", "triple", "triple_range", "system_threshold",
        "triple_threshold"])
def test_unknown_keys_are_refused(text, key, line, fp, tmp_path):
    with pytest.raises(SystemFileError, match=rf"unknown key '{key}'.*\(line {line}\)"):
        _read(text, tmp_path)
    # a triple file is checked the same way
    triple = text[text.index("[triple]"):] if "[triple]" in text else None
    if triple:
        path = tmp_path / "bad.tri"
        path.write_text(triple)
        with pytest.raises(SystemFileError, match=rf"unknown key '{key}'.*\(line {line - 4}\)"):
            read_triple_file(path, fp.system.alphabet)


@pytest.mark.parametrize("entry", ["dim = x", "singular = q @ abc", "range_q = 0, z"])
def test_malformed_number(entry, tmp_path):
    text = "[system]\ndim = 1\ncoords = q\nlagrangian = qdot^2/2\nsingular = q\n"
    key = entry.partition(" =")[0]
    lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
    with pytest.raises(SystemFileError, match="not a number"):
        _read("\n".join(lines + [entry]) + "\n", tmp_path)


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


_ACCELERATION = r"^acceleration 'qddot': a written expression is a function of t, q and qdot"


# the ids of the acceleration rows keep the messages the reader gave before the
# parser refused an acceleration's name
@pytest.mark.parametrize("entry, message", [
    ("xi = q, q", "xi has 2 component"),
    ("form = weak", "unknown form 'weak'"),
    pytest.param("tau = qddot", _ACCELERATION + r" \(at position 0\)",
                 id=r"tau = qddot-tau qddot in \[triple\] must be free of accelerations"),
    pytest.param("xi = q*qddot", _ACCELERATION + r" \(at position 2\)",
                 id=r"xi = q*qddot-xi q\*qddot in \[triple\] must be free of accelerations"),
    pytest.param("f = qddot + 1", _ACCELERATION + r" \(at position 0\)",
                 id=r"f = qddot + 1-f .*qddot.* in \[triple\] must be free of accelerations"),
])
def test_malformed_triple_section(entry, message, tmp_path):
    good = "[triple]\nform = onflow\ntau = 0\nxi = t\nf = q\n"
    key = entry.partition(" =")[0]
    lines = ["[triple]", "tau = 0", "xi = q", "f = 0", "form = strong"]
    triple = "".join((entry if line.startswith(key + " ") else line) + "\n"
                     for line in lines)
    lineno = [line.partition(" =")[0] for line in lines].index(key) + 1
    path = tmp_path / "bad.tri"
    path.write_text(triple)
    with pytest.raises(SystemFileError, match=message) as err:
        read_triple_file(path, Alphabet(coords=("q",)))
    assert str(err.value).endswith(f"(line {lineno})")
    # after another triple, the line number counts from the top of the file
    path.write_text(good + triple)
    with pytest.raises(SystemFileError, match=message) as err:
        read_triple_file(path, Alphabet(coords=("q",)))
    assert str(err.value).endswith(f"(line {lineno + 5})")


def test_a_triple_states_its_form(tmp_path):
    # read as on-flow, a strong claim whose form line was lost would pass
    path = tmp_path / "noform.tri"
    path.write_text("[triple]\ntau = 0\nxi = q\nf = 0\n")
    with pytest.raises(SystemFileError, match=r"^missing key 'form' in \[triple\] section$"):
        read_triple_file(path, Alphabet(coords=("q",)))


_TRIPLE = "[triple]\nname = a\ntau = 0\nxi = 1\nf = 0\nform = strong\n"


@pytest.mark.parametrize("text, message", [
    (_FP + "singular = q @ 0.5\nsingular = q - 3 @ 0.1\n",
     r"key 'singular' given twice in \[system\] section \(line 6\)"),
    (_FP + "range_q = 0, 1\nrange_q = 0, 2\n",
     r"key 'range_q' given twice in \[system\] section \(line 6\)"),
    ("[system]\ndim = 1\ncoords = q\nparams = k = 1.0, k = 2.0\nlagrangian = k*qdot^2/2\n",
     r"parameter k given twice \(line 4\)"),
    (_FP + "[integral]\nname = e\nexpr = q\n[system]\ndim = 1\ncoords = x\n"
     "lagrangian = xdot^2/2\n", r"a second \[system\] section \(line 8\)"),
    (_FP + "[integral]\nname = e\nexpr = qdot\n[integral]\nname = e\nexpr = q\n",
     r"integral 'e' given twice \(line 9\)"),
    (_FP + "[integral]\nname = e\nexpr = qdot\nexpr = q\n",
     r"key 'expr' given twice in \[integral\] section \(line 8\)"),
], ids=["singular", "range", "param", "system", "integral", "integral_key"])
def test_a_system_file_states_each_thing_once(text, message, tmp_path):
    with pytest.raises(SystemFileError, match=message):
        _read(text, tmp_path)


@pytest.mark.parametrize("text, message", [
    (_TRIPLE + _TRIPLE, r"triple 'a' given twice \(line 8\)"),
    # an unnamed triple takes its number, and its header names the line
    (_TRIPLE.replace("name = a", "name = triple2") + _TRIPLE.replace("name = a\n", ""),
     r"triple 'triple2' given twice \(line 7\)"),
    (_TRIPLE + "form = onflow\n", r"key 'form' given twice in \[triple\] section \(line 7\)"),
    (_FP, r"unexpected section \[system\] in triple file \(line 1\)"),
], ids=["name", "default_name", "key", "system"])
def test_a_triple_file_states_each_thing_once(text, message, tmp_path):
    path = tmp_path / "bad.tri"
    path.write_text(text)
    with pytest.raises(SystemFileError, match=message):
        read_triple_file(path, Alphabet(coords=("q",)))


def test_integrals_must_be_free_of_accelerations(tmp_path):
    with pytest.raises(SystemFileError, match=_ACCELERATION + r" \(at position 2\) \(line 6\)$"):
        _read("[system]\ndim = 1\ncoords = q\nlagrangian = qdot^2/2\n"
              "[integral]\nexpr = q*qddot\nname = push\n", tmp_path)


_SYSTEM = ("[system]\ndim = 1\ncoords = q\nlagrangian = qdot^2/2\nsingular = q - 3\n"
           "[integral]\nname = p\nexpr = qdot\n")
_PARSE_ERRORS = {
    "undeclared": ("z", r"undeclared symbol 'z'"),
    "zero_division": ("1/0", r"not a finite expression: zoo \(at position 1\)"),
    "nested": ("(" * 65 + "q" + ")" * 65, r"more than 64 levels \(at position 64\)"),
    "acceleration": ("qddot", _ACCELERATION + r" \(at position 0\)"),
}


@pytest.mark.parametrize("error", _PARSE_ERRORS)
@pytest.mark.parametrize("text, key, line", [
    (_SYSTEM, "lagrangian", 4),
    (_SYSTEM, "singular", 5),
    (_SYSTEM, "expr", 8),
    (_TRIPLE + "singular = q - 3\n", "tau", 3),
    (_TRIPLE + "singular = q - 3\n", "xi", 4),
    (_TRIPLE + "singular = q - 3\n", "f", 5),
    (_TRIPLE + "singular = q - 3\n", "singular", 7),
], ids=["lagrangian", "system_singular", "integral", "tau", "xi", "f", "triple_singular"])
def test_a_parse_error_in_a_file_names_its_line(text, key, line, error, tmp_path):
    expr, message = _PARSE_ERRORS[error]
    lines = text.splitlines()
    lines[line - 1] = f"{key} = {expr}"
    path = tmp_path / "bad"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemFileError, match=f"{message} \\(line {line}\\)$"):
        if text is _SYSTEM:
            read_system_file(path)
        else:
            read_triple_file(path, Alphabet(coords=("q",)))


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


def test_a_parameter_without_a_name_is_refused(tmp_path):
    with pytest.raises(SystemFileError, match="malformed parameter entry '= 1' \\(line 4\\)"):
        _read("[system]\ndim = 1\ncoords = q\nparams = = 1\nlagrangian = qdot^2/2\n",
              tmp_path)


def test_a_file_without_a_system_section_is_refused(tmp_path):
    with pytest.raises(SystemFileError, match="no \\[system\\] section found"):
        _read("# nothing but a comment\n", tmp_path)


def test_comments_and_blank_lines_ok(tmp_path):
    sf = _read("# free particle\n\n[system]\nname = fp\ndim = 1\ncoords = q\n"
               "lagrangian = qdot^2/2\n", tmp_path)
    assert sf.system.name == "fp"


def test_triple_file_requires_triples(fp, tmp_path):
    path = tmp_path / "empty.tri"
    path.write_text("# nothing here\n")
    with pytest.raises(SystemFileError):
        read_triple_file(path, fp.system.alphabet)


@pytest.mark.parametrize("entry, message", [
    ("range_qdot = 5, 4", "lo <= hi"),
    ("range_q = 0, inf", "lo <= hi"),
    ("range_q = nan, 1", "lo <= hi"),
    ("range_q = -1e308, 1e308", "finite width apart"),
    ("range_z = 0, 1", "'z' is not a variable"),
    ("range_qdot1 = 0, 1", "'qdot1' is not a variable"),
    ("range_q = 0", "two bounds"),
    ("range_q = 0, 1, 2", "two bounds"),
])
def test_bad_ranges_are_refused(entry, message, tmp_path):
    with pytest.raises(SystemFileError, match=rf"{message}.*\(line 5\)"):
        _read(_FP + entry + "\n", tmp_path)


@pytest.mark.parametrize("entry", [
    "singular = q @ inf", "singular = q @ nan", "singular = q @ -1", "singular = q @ 0",
])
def test_bad_exclusion_thresholds_are_refused(entry, tmp_path):
    with pytest.raises(SystemFileError, match=r"positive and finite.*\(line 5\)"):
        _read(_FP + entry + "\n", tmp_path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_parameters_are_refused(value, tmp_path):
    with pytest.raises(SystemFileError, match=rf"parameter k must be finite.*\(line 5\)"):
        _read(_FP + f"params = k = {value}\n", tmp_path)


def test_ranges_of_every_variable_kind(tmp_path):
    entries = "range_t = 1, 3\nrange_q = -1, 0.5\nrange_qdot = 2, 2\nrange_qddot = 0, 1\n"
    ranges = _read(_FP + entries, tmp_path).system.var_ranges
    assert ranges == {"t": (1.0, 3.0), "q": (-1.0, 0.5), "qdot": (2.0, 2.0),
                      "qddot": (0.0, 1.0)}
