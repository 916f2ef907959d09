"""Command-line front end.

Subcommands: ``describe``, ``solve``, ``verify``, ``integrate``, and
``corpus {list, export}``.  Reports are JSON with the seed recorded, so a
repeated invocation with the same seed is byte-identical.  Triples are
printed and written as derived.  ``corpus export NAME --out P`` writes the
system to P (default ``NAME.sys``) and its triples to P with suffix ``.tri``.

Exit codes: 0 success / PASS, 1 verification FAIL, 2 parse error (an
acceleration's name among them; in a file, with its line) or invalid option
(including a ``solve`` option that its mode does not read, an integration of
more than ``dynamics.MAX_STEPS`` steps, a system whose derived expressions
hold a function outside the compiled grammar, a ``[triple]`` section in a
system file, a system file that no system can be built from, an output path
that cannot be written or, for ``corpus export``, ends in ``.tri``, a
``solve --triple-out`` triple whose file would not read back, refused before
anything is written, an input too large or too deeply nested to process, such
as a ``--k`` whose sample array cannot be allocated or an expression nested
past ``dsl.MAX_DEPTH``, and a stdout that cannot be written, such as a pipe
whose reader has gone), 3 regularity failure (or exclusions that reject every
sample point), 4 conservation precheck failure, 5 singularity during a solve
or verification, an integration starting in a singular zone, or a monitored
integral not evaluable along the trajectory, 6 trajectory truncated at a
singular zone or where its state stops being finite.  Errors print one line on
stderr, and ``verify`` prints its FAIL lines once the report is out; a stderr
that is closed or cannot be written loses the lines, not the code.
``solve``'s ``--k`` and ``--tol`` set only the verification: the
conservation precheck (exit 4) runs at k = 100 and tol = 1e-9.

The command is a one-shot process (``run``): once its output is flushed it
ends with ``os._exit``, skipping the interpreter teardown, which frees
sympy's object graph one object at a time.  Run as the program, the module
turns the cyclic GC off before sympy and numpy load.  ``main`` returns the
exit code and is what in-process callers use.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # no collections while sympy and numpy load
    gc.disable()

import argparse
import contextlib
import json
import math
import os
import sys as _sys
from pathlib import Path
from typing import NoReturn

from . import corpus as corpus_mod
from .dsl import parse, print_expr
from .dynamics import SingularStartError, integrate, monitor_drift, write_trajectory_csv
from .expressions import DomainViolation, SamplingError
from .mechanics import REGULARITY_SAMPLES, RegularityError
from .noether import (
    FORMS,
    NotConservedError,
    solve_alt_strong_trivial_gauge,
    solve_onflow_with_R,
    solve_strong,
    verify_triple,
)
from .sysfile import (
    _read_triples,
    _triple_text,
    read_system_file,
    read_triple_file,
    write_system_file,
    write_triple_file,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_REGULARITY = 3
EXIT_NOT_CONSERVED = 4
EXIT_SINGULAR = 5
EXIT_TRUNCATED = 6


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:  # a stdout that cannot be written fails here, before any stderr line
        print(text, flush=True)


def _note(line: str) -> None:
    """Print line on stderr, unless stderr is closed or cannot be written."""
    if _sys.stderr:  # None in a process started with descriptor 2 closed
        with contextlib.suppress(OSError):
            print(line, file=_sys.stderr)


def _error(message, code: int) -> int:
    """Print the error line on stderr and return code, also when stderr is
    closed or cannot be written: exit 1 stays a verification FAIL."""
    _note(f"error: {message}")
    return code


def _load_system(path: str):
    try:
        return read_system_file(path)
    except (RegularityError, SamplingError) as err:  # the exclusions may cover the box
        raise SystemExit(_error(err, EXIT_REGULARITY))
    except (OSError, ValueError) as err:  # the file, its grammar, names or mechanics
        raise SystemExit(_error(err, EXIT_PARSE))


def cmd_describe(args) -> int:
    sf = _load_system(args.system)
    sysdef = sf.system
    n = sysdef.n
    # every line is derived before the first is printed, so an error leaves
    # stdout empty
    lines = [
        f"system {sysdef.name}: dim n = {n}",
        f"  L = {print_expr(sysdef.L)}",
        *(f"  p[{i}] = {print_expr(pi)}" for i, pi in enumerate(sysdef.p)),
        *(f"  g[{i}] = [{', '.join(print_expr(sysdef.g[i, j]) for j in range(n))}]"
          for i in range(n)),
        *(f"  Lambda[{i}] = {print_expr(li)}" for i, li in enumerate(sysdef.lam)),
        f"  regularity: sampled OK (|det g| above floor at {REGULARITY_SAMPLES} points)",
        *(f"  integral {name} = {print_expr(expr)}" for name, expr in sf.integrals.items()),
    ]
    print("\n".join(lines), flush=True)
    return EXIT_OK


# the options of ``solve`` that each mode reads; giving another is an error
SOLVE_OPTIONS = {
    "onflow-simplest": {"c"},
    "onflow-R": {"R", "c"},
    "strong": {"tau"},
    "alt-strong": {"c"},
}


def cmd_solve(args) -> int:
    for option in ("tau", "R", "c"):
        if getattr(args, option) is not None and option not in SOLVE_OPTIONS[args.mode]:
            return _error(f"--{option} is not read in --mode {args.mode}", EXIT_PARSE)
    sf = _load_system(args.system)
    sysdef = sf.system
    ab = sysdef.alphabet
    c = 0.0 if args.c is None else args.c
    tau, R = 0, [0] * sysdef.n
    try:
        if args.integral in sf.integrals:
            N = sf.integrals[args.integral]
        else:
            N = parse(args.integral, ab)
        if args.tau is not None:
            tau = parse(args.tau, ab)
        if args.R is not None:
            R = [parse(r, ab) for r in args.R.split(";")]
    except ValueError as err:
        return _error(err, EXIT_PARSE)
    try:
        if args.mode.startswith("onflow"):
            if len(R) != sysdef.n:
                return _error(f"--R needs {sysdef.n} components, got {len(R)}", EXIT_PARSE)
            tr = solve_onflow_with_R(sysdef, N, R, c=c, seed=args.seed)
        elif args.mode == "strong":
            tr = solve_strong(sysdef, N, tau, seed=args.seed)
        else:  # alt-strong
            tr = solve_alt_strong_trivial_gauge(sysdef, N, c=c, seed=args.seed)
        rep = verify_triple(sysdef, tr, N, k=args.k, tol=args.tol, seed=args.seed)
    except NotConservedError as err:
        return _error(err, EXIT_NOT_CONSERVED)
    except (RegularityError, SamplingError, DomainViolation, ZeroDivisionError) as err:
        return _error(err, EXIT_SINGULAR)
    if args.triple_out:  # a triple nested past dsl.MAX_DEPTH would not read back
        text = _triple_text({args.integral: tr})
        try:
            _read_triples(text, ab)
        except ValueError as err:
            return _error(f"--triple-out: the triple does not read back: {err}", EXIT_PARSE)
    report = {
        "solver": args.mode,
        "triple": {
            "tau": print_expr(tr.tau),
            "xi": [print_expr(x) for x in tr.xi],
            "f": print_expr(tr.f),
            "form": tr.form,
        },
        "verification": rep.to_dict(),
    }
    if args.triple_out:
        Path(args.triple_out).write_text(text)
    _emit(report, args.out)
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_verify(args) -> int:
    sf = _load_system(args.system)
    sysdef = sf.system
    try:
        triples = read_triple_file(args.triple, sysdef.alphabet)
    except (OSError, ValueError) as err:
        return _error(err, EXIT_PARSE)
    form = args.form.replace("-", "_") if args.form else None
    reports, failures = [], []
    try:
        for name, tr in triples.items():
            rep = verify_triple(
                sysdef, tr, form=form, k=args.k, tol=args.tol, seed=args.seed
            )
            reports.append({"triple": name, **rep.to_dict()})
            if not rep.passed:
                failures.append(f"FAIL {name}: residual {rep.max_residual:.3e} "
                                f"at witness {rep.worst_point}")
    except (SamplingError, DomainViolation) as err:
        return _error(err, EXIT_SINGULAR)
    _emit({"reports": reports}, args.out)
    for line in failures:  # once the report is out, so an error stays one line
        _note(line)
    return EXIT_FAIL if failures else EXIT_OK


def cmd_integrate(args) -> int:
    sf = _load_system(args.system)
    sysdef = sf.system
    try:
        state = [float(x) for x in args.state.split(",")]
    except ValueError:
        state = []
    if len(state) != 1 + 2 * sysdef.n or not all(map(math.isfinite, state)):
        return _error(f"state needs t0 and {2 * sysdef.n} finite components", EXIT_PARSE)
    t0, q0, qd0 = state[0], state[1:1 + sysdef.n], state[1 + sysdef.n:]
    if not (math.isfinite(args.t1) and args.t1 >= t0):
        return _error(f"--t1 must be finite and not before t0 = {t0}", EXIT_PARSE)
    for name in args.monitor or []:
        if name not in sf.integrals:
            return _error(f"unknown integral {name!r}", EXIT_PARSE)
    try:
        traj = integrate(sysdef, (t0, q0, qd0), args.t1, dt=args.dt)
    except SingularStartError as err:
        return _error(err, EXIT_SINGULAR)
    except ValueError as err:  # the options ask for more than MAX_STEPS steps
        return _error(err, EXIT_PARSE)
    if args.csv:
        write_trajectory_csv(traj, args.csv, sysdef.alphabet)
    try:
        drifts = [
            monitor_drift(sysdef, traj, sf.integrals[name], name).to_dict()
            for name in args.monitor or []
        ]
    except ValueError as err:  # integral not evaluable along the trajectory
        return _error(err, EXIT_SINGULAR)
    _emit(
        {
            "system": sysdef.name,
            "nodes": len(traj.t),
            "dt": traj.dt,
            "truncated": traj.truncated,
            "drift": drifts,
        },
        args.out,
    )
    return EXIT_TRUNCATED if traj.truncated else EXIT_OK


def cmd_corpus(args) -> int:
    if args.action == "list":
        for name in corpus_mod.CORPUS_NAMES:
            print(name)
        return EXIT_OK
    out = Path(args.out or f"{args.name}.sys")
    if out.suffix == ".tri" or not out.name:
        return _error(f"--out {str(out)!r} must name the system file; its triples go "
                      "beside it with suffix .tri", EXIT_PARSE)
    tri = out.with_suffix(".tri")
    entry = corpus_mod.load(args.name)
    write_system_file(out, entry.system, integrals=entry.integrals)
    write_triple_file(tri, entry.triples)
    print(f"wrote {out} and {tri}")
    return EXIT_OK


def _above(kind, low, requirement):
    def convert(text):
        value = kind(text)
        if not low < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    convert.__name__ = kind.__name__  # argparse names the type in its messages
    return convert


def _positive(kind):
    return _above(kind, 0, "positive and finite")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are one stderr line and exit 2; its
    subcommand parsers are of this class too.  ``-h`` still prints the usage
    on stdout and exits 0."""

    def error(self, message) -> NoReturn:
        raise SystemExit(_error(message, EXIT_PARSE))


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="noetherkit",
        description="Build and verify Killing-type solution triples for "
        "Lagrangian systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--k", type=_positive(int), default=100, help="sample count")
        p.add_argument("--tol", type=_positive(float), default=1e-9, help="relative tolerance")
        p.add_argument("--seed", type=_above(int, -1, "non-negative"), default=0)
        p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("describe", help="print the derived structure of a system")
    p.add_argument("system")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("solve", help="build a triple for a first integral")
    p.add_argument("system")
    p.add_argument("integral", help="integral name from the file, or an expression")
    p.add_argument(
        "--mode",
        choices=list(SOLVE_OPTIONS),
        required=True,
    )
    p.add_argument("--tau", help="time-change expression (strong mode; default 0)")
    p.add_argument("--R", help="semicolon-separated vector (onflow-R mode; default 0)")
    p.add_argument("--c", type=_above(float, -math.inf, "finite"),
                   help="denominator shift L+c (every mode but strong; default 0)")
    p.add_argument("--triple-out", help="write the resulting triple file here")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="verify triples from a file")
    p.add_argument("system")
    p.add_argument("triple")
    p.add_argument(
        "--form", choices=[f.replace("_", "-") for f in FORMS],
        help="override the claimed interpretation",
    )
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("integrate", help="integrate the equations of motion")
    p.add_argument("system")
    p.add_argument("state", help="t0,q...,qdot... comma-separated")
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--dt", type=_positive(float), default=1e-3)
    p.add_argument("--monitor", nargs="*", help="integral names to monitor")
    p.add_argument("--csv", help="trajectory CSV output path")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("corpus", help="list or export bundled systems")
    p.add_argument("action", choices=["list", "export"])
    p.add_argument("name", nargs="?", choices=list(corpus_mod.CORPUS_NAMES))
    p.add_argument("--out", help="system file path (default NAME.sys); the triples go "
                   "to this path with suffix .tri")
    p.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None) -> int:
    try:
        try:
            # an invalid argument exits with code 2
            args = build_parser().parse_args(argv)
            if args.command == "corpus" and args.action == "export" and not args.name:
                return _error("corpus export needs a name", EXIT_PARSE)
            return args.fn(args)
        finally:
            if _sys.stdout:  # None in a process started with descriptor 1 closed
                _sys.stdout.flush()  # so a stdout that cannot be written fails here
    except SystemExit as err:
        return int(err.code or 0)
    except OSError as err:  # a write: each command catches the errors of its reads
        return _error(err, EXIT_PARSE)
    except (MemoryError, RecursionError) as err:  # an input too large or too deeply nested
        return _error(f"input too large or too deeply nested ({type(err).__name__}: {err})",
                      EXIT_PARSE)


def run() -> NoReturn:
    """Run ``main`` on the command line and end the process.

    The cyclic GC is off, and once stdout and stderr are flushed the process
    ends with ``os._exit``, without the interpreter teardown.  That skips
    freeing sympy's object graph and the ``atexit`` callbacks, none of which
    writes data.  An exception that escapes ``main`` takes the usual exit.
    As the installed ``noetherkit`` command the package imports run before
    the GC is turned off here; ``python -m noetherkit.cli`` turns it off
    before they run.
    """
    gc.disable()
    code = main()  # main has flushed stdout, or reported that it could not
    if _sys.stderr:
        with contextlib.suppress(OSError):  # the exit code stands without its line
            _sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
