"""The CLI command list, pinned byte for byte.

Each command runs in process through ``cli.main``, in order, in one
directory, so later commands read what earlier ones wrote.  ``cli_pins.json``
holds, for each command, the exit code and the sha256 of stdout, of stderr
and of every file the command wrote (a new file, or one whose bytes
changed).  A change that moves one bit of a residual, a witness, a printed
triple, a trajectory or a message fails here.  The same file pins the
stderr of each ``EXIT_TABLE`` row of ``test_cli.py``.
"""

import ast
import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from noetherkit import cli
from noetherkit.dsl import parse
from noetherkit.expressions import total_dt
from noetherkit.noether import _killing_terms
from noetherkit.sysfile import read_system_file, read_triple_file

from conftest import _exact_residual


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(commands) -> dict:
    """Run each command line in the working directory, in order: for each,
    its exit code and the sha256 of its stdout, its stderr and each file it
    wrote, then its stdout and its stderr."""
    def files():
        return {p.name: _sha(p.read_bytes()) for p in Path().iterdir() if p.is_file()}

    results = {}
    for command in commands:
        before = files()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(shlex.split(command))
        results[command] = {
            "exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()),
            "files": {name: sha for name, sha in files().items() if before.get(name) != sha},
        }, out.getvalue(), err.getvalue()
    return results


SYSTEMS = {  # file: (its integrals, a --tau and an --R for solve)
    "fp.sys": (("momentum", "boost", "energy", "dilation", "boost_squared"), "t", "q"),
    "isochrony.sys": (("N1", "N2", "N3"), "x*ydot", "x;y"),
    "k.sys": (("energy", "angmom1", "angmom2", "angmom3", "lrl1", "lrl2", "lrl3", "lrl_u"),
              "t*r1", "r1;r2;r3"),
}
# each mode of solve, the short name of its files and the options it reads
MODES = {"strong": ("s", "--tau {tau}"), "onflow-simplest": ("os", "--c 1"),
         "onflow-R": ("oR", "--R {R} --c 2"), "alt-strong": ("as", "--c 3")}


def _solves(system, integral, tau, R, options):
    """``solve`` of one integral in all four modes, with every option each
    mode reads (or with none, its files marked ``.0``), each writing its
    triple and report, then ``verify`` of each written triple."""
    stems = {mode: f"{system[:-4]}.{integral}.{short}{'' if options else '.0'}"
             for mode, (short, _) in MODES.items()}
    for mode, (_, given) in MODES.items():
        given = given.format(tau=tau, R=R) + " " if options else ""
        yield (f"solve {system} {integral} --mode {mode} {given}--triple-out {stems[mode]}.tri "
               f"--out {stems[mode]}.json")
    for stem in stems.values():
        yield f"verify {system} {stem}.tri --seed 5"


def _verifies(system):
    """``verify`` of a system's exported triples: with ``--out``, then in
    each form on stdout."""
    triples = system.replace(".sys", ".tri")
    yield f"verify {system} {triples} --out {system[:-4]}.verify.json"
    for form in ("onflow", "strong", "alt-onflow", "alt-strong"):
        yield f"verify {system} {triples} --form {form} --seed 5"


COMMANDS = [
    "corpus export freeparticle --out fp.sys",
    "corpus export isochrony",
    "corpus export kepler3d --out k.sys",
    *(f"describe {system}" for system in SYSTEMS),
    *(line for system in SYSTEMS for line in _verifies(system)),
    "verify k.sys k.tri --k 50 --tol 1e-8 --seed 9",
    *(line for system, (integrals, tau, R) in SYSTEMS.items() for integral in integrals
      for line in _solves(system, integral, tau, R, True)),
    *(line for system, (integrals, tau, R) in SYSTEMS.items()
      for line in _solves(system, integrals[0], tau, R, False)),
    "solve fp.sys qdot^3 --mode strong --seed 3",
    "solve k.sys energy --mode onflow-simplest",
    "solve k.sys r1*r2dot --mode strong --seed 3",
    "integrate k.sys 0,1,0,0,0,1,0 --t1 10 --dt 0.001 --monitor energy lrl_u angmom3 "
    "--csv k.csv --out k.integrate.json",
    "integrate isochrony.sys 0,1,0.5,0.2,-0.3 --t1 2 --dt 0.01 --monitor N1 N2 N3 "
    "--csv isochrony.csv --out isochrony.integrate.json",
]


@pytest.fixture(scope="module")
def command_list(tmp_path_factory):
    """The directory the command list ran in, once, and what ``_run`` gave."""
    path = tmp_path_factory.mktemp("cli_list")
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(path)
        return path, _run(COMMANDS)


def test_the_cli_command_list_is_pinned(command_list):
    pinned = json.loads((Path(__file__).parent / "cli_pins.json").read_text())["commands"]
    assert list(pinned) == COMMANDS
    got = {command: record for command, (record, _, _) in command_list[1].items()}
    assert [command for command in COMMANDS if got[command] != pinned[command]] == []


def test_the_fail_witnesses_of_the_list_fail_in_exact_arithmetic(command_list):
    # each FAIL's witness is a point where the two sides differ, read from
    # its report (verify) or its error line (the conservation precheck)
    path, runs = command_list
    checked = []
    for command, (record, out, err) in runs.items():
        words = shlex.split(command)
        if record["exit"] == cli.EXIT_FAIL:
            sysdef = read_system_file(path / words[1]).system
            triples = read_triple_file(path / words[2], sysdef.alphabet)
            form = words[words.index("--form") + 1].replace("-", "_")
            for rep in json.loads(out)["reports"]:
                if rep["verdict"] == "FAIL":
                    lhs, dt_f, _ = _killing_terms(sysdef, triples[rep["triple"]], form)
                    exact = _exact_residual(lhs.doit(), dt_f.doit(), rep["worst_point"])
                    checked.append((command, rep["triple"], exact > rep["tol"]))
        elif record["exit"] == cli.EXIT_NOT_CONSERVED:
            sf = read_system_file(path / words[1])
            ab = sf.system.alphabet
            N = sf.integrals[words[2]] if words[2] in sf.integrals else parse(words[2], ab)
            witness = ast.literal_eval(err.partition(" at ")[2])
            exact = _exact_residual(total_dt(N, ab, sf.system.lam).doit(), 0, witness)
            checked.append((command, words[2], exact > 1e-9))  # the precheck's tol
    assert {command for command, _, _ in checked} == {
        command for command, (record, _, _) in runs.items()
        if record["exit"] in (cli.EXIT_FAIL, cli.EXIT_NOT_CONSERVED)}
    assert [entry for entry in checked if not entry[2]] == []
