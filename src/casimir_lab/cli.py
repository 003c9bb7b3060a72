"""Command-line entry point.

Subcommands:
    rattleback simulate
    fluid helicity | evolve | gv
    verify
    run            (execute a JSON scenario file)

Every subcommand except ``run`` maps its flags onto a Scenario; ``run``
reads one from a JSON file.  Both go through ``run_scenario``, which prints
one JSON document on stdout; status lines go to stderr.

Exit codes: 0 all checks passed / computation done, 1 numerical check
failure (failing check names on stderr), 2 configuration, parse or file
errors.  The environment variable CASIMIR_LAB_SEED overrides any
configured seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from . import fieldexpr
from . import foliation as fol
from . import forms3 as f3
from . import rattleback as rb
from .errors import (BlowUpError, CasimirLabError, ConfigError, EvalError, FormatError,
                     InvalidParameterError, ParseError)
from .fluid import FluidState, euler_dt, euler_evolve, helicity
from .verify import DEFAULT_SEED, SUITES, SuiteConfig, report_json, run_suite

SCENARIO_KINDS = ("rattleback", "fluid-helicity", "fluid-euler", "foliation-gv",
                  "verify-all")
TAIL_WARN_FRACTION = 1e-8
MAX_STEPS = 10_000_000  # fixed steps of dt one scenario may take
MAX_GRID = 256          # grid points per axis: one n = 256 field stack is 400 MB
_REQUIRED = {"fluid-helicity": "field", "fluid-euler": "field", "foliation-gv": "profile"}


@dataclass
class Scenario:
    """One computation, read from a scenario file or from a subcommand's flags.

    The fields are the scenario keys and their defaults the only defaults:
    subcommand flags carry none.  ``dt`` and ``t_final`` left unset (None)
    take the kind's default.  Every value is type-checked on construction.
    """

    kind: str
    grid: int = 32
    profile: str | None = None
    scale: str | None = None
    field: str | None = None
    h: float = -2.0
    ic: tuple = (0.1, 0.2, 1.0)
    dt: float | None = None
    t_final: float | None = None
    method: str = "rk4"
    stride: int = 1
    seed: int = DEFAULT_SEED
    suite: str = "all"
    out: str | None = None
    report: str | None = None
    dump_fields: str | None = None

    def __post_init__(self):
        _require(self.kind in SCENARIO_KINDS, "kind",
                 f"one of {', '.join(SCENARIO_KINDS)}", self.kind)
        _require(isinstance(self.ic, (list, tuple)) and len(self.ic) == 3
                 and all(map(_is_real, self.ic)), "ic", "three finite reals", self.ic)
        self.ic = tuple(float(v) for v in self.ic)
        _require(_is_real(self.h), "h", "a finite number", self.h)
        self.h = float(self.h)
        _require(_is_int(self.grid) and 4 <= self.grid <= MAX_GRID and self.grid % 2 == 0,
                 "grid", f"an even integer from 4 to {MAX_GRID}", self.grid)
        if self.dt is None:
            self.dt = euler_dt(f3.Grid(self.grid)) if self.kind == "fluid-euler" else 1e-3
        if self.t_final is None:
            self.t_final = {"rattleback": 100.0, "fluid-euler": 0.5}.get(self.kind, 1.0)
        for key in ("dt", "t_final"):
            value = getattr(self, key)
            _require(_is_real(value) and value > 0, key, "a positive finite number", value)
            setattr(self, key, float(value))
        self.seed = _seed_override(self.seed)
        for key, low in (("stride", 1), ("seed", 0)):
            value = getattr(self, key)
            _require(_is_int(value) and value >= low, key, f"an integer >= {low}", value)
        _require(self.method in rb.METHODS, "method", " or ".join(map(repr, rb.METHODS)),
                 self.method)
        if self.kind == "fluid-euler" or (self.kind == "rattleback" and self.method == "rk4"):
            _require(self.t_final / self.dt <= MAX_STEPS, "t_final",
                     f"at most {MAX_STEPS} steps of dt = {self.dt!r}", self.t_final)
        if self.kind == "rattleback":
            try:
                rb.step_count(self.h, self.dt, self.t_final, self.method, self.stride)
            except InvalidParameterError as exc:
                raise ConfigError(str(exc)) from None
        _require(self.suite in ("all", *SUITES), "suite",
                 f"one of {', '.join(['all', *SUITES])}", self.suite)
        for key in ("profile", "scale", "field", "out", "report", "dump_fields"):
            value = getattr(self, key)
            _require(value is None or isinstance(value, str), key, "a string", value)
        key = _REQUIRED.get(self.kind)
        if key and not getattr(self, key):
            raise ConfigError(f"{self.kind} scenario needs {key!r}")


_SCENARIO_KEYS = frozenset(f.name for f in fields(Scenario))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and rb._is_finite(value))


def _require(ok: bool, key: str, what: str, value) -> None:
    if not ok:
        raise ConfigError(f"{key!r} must be {what}, got {value!r}")


def load_config(path: str) -> Scenario:
    """Map a JSON document onto a Scenario, applying defaults."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(doc) - _SCENARIO_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "kind" not in doc:
        raise ConfigError("config is missing the required key 'kind'")
    return Scenario(**doc)


def _seed_override(seed):
    """CASIMIR_LAB_SEED, when set, replaces any configured seed."""
    env = os.environ.get("CASIMIR_LAB_SEED")
    if not env:
        return seed
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"CASIMIR_LAB_SEED must be an integer, got {env!r}") from None


def _expr_error(what: str, text: str, exc: ParseError | EvalError) -> ConfigError:
    verb = "parse" if isinstance(exc, ParseError) else "evaluate"
    return ConfigError(f"cannot {verb} {what} {text!r}: {exc}")


def _eval_expr_field(text: str, grid: f3.Grid, what: str) -> f3.Form0:
    try:
        form = fieldexpr.eval_on_grid(text, grid)
    except (ParseError, EvalError) as exc:
        raise _expr_error(what, text, exc) from None
    tail = f3.spectral_tail_fraction(form.data, grid)
    if tail > TAIL_WARN_FRACTION:
        print(f"warning: {what} {text!r} has a spectral tail fraction "
              f"{tail:.2e}; it may not be periodic or resolved at n = {grid.n}",
              file=sys.stderr)
    return form


def _split_components(spec: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_field_spec(spec: str, grid_n: int) -> f3.Form1:
    """A 1-form from either an .f3rm container or 'expr,expr,expr' components."""
    if spec.endswith(".f3rm"):
        obj = f3.io.load(spec)
        if isinstance(obj, f3.VectorField):
            return f3.flat(obj)
        if not isinstance(obj, f3.Form1):
            raise ConfigError(f"container {spec} holds rank {obj.rank}, need a 1-form")
        return obj
    parts = _split_components(spec)
    if len(parts) != 3:
        raise ConfigError(
            f"field spec needs three comma-separated components, got {len(parts)}")
    grid = f3.Grid(grid_n)
    comps = [_eval_expr_field(p.strip(), grid, "field component") for p in parts]
    return f3.Form1(grid, np.stack([c.data for c in comps]))


@contextmanager
def _csv_rows(path: str | None, header: str):
    """A function that appends rows, given as columns, to the CSV file
    ``path`` under ``header`` (and does nothing when there is no path).  A
    file that a failure leaves part-written is removed."""
    if not path:
        yield lambda *columns: None
        return
    with open(path, "w") as fh:
        fh.write(header + "\n")
        try:
            yield lambda *columns: np.savetxt(fh, np.column_stack(columns), fmt="%.17g",
                                              delimiter=",")
        except BaseException:
            fh.close()
            os.remove(path)
            raise


# --- scenario runners -----------------------------------------------------------

def _status(message: str) -> None:
    print(message, file=sys.stderr)


def _run_rattleback(sc: Scenario) -> dict:
    """The run's summary, reduced and written leg by leg, so that memory does
    not grow with the step count."""
    samples, deviations = 0, []
    with _csv_rows(sc.out, "t,p,r,s,H,C") as write:
        for leg in rb.integrate_legs(rb.RattlebackState(*sc.ic), sc.h, dt=sc.dt,
                                     t_final=sc.t_final, method=sc.method, stride=sc.stride):
            if not samples:
                h0 = leg.hamiltonians[0]
            samples += len(leg.times)
            deviations.append(np.abs(leg.hamiltonians - h0).max())
            write(leg.times, leg.states, leg.hamiltonians, leg.casimirs)
    if sc.out:
        _status(f"wrote {samples} samples to {sc.out}")
    h_drift = float(np.max(deviations))
    return {"samples": samples, "H0": h0, "H_drift_abs": h_drift,
            "H_drift_rel": h_drift / max(abs(h0), 1e-300),
            "final": list(leg.states[-1])}


def _run_fluid_helicity(sc: Scenario) -> dict:
    alpha = parse_field_spec(sc.field, sc.grid)
    return {"helicity": helicity(alpha), "grid": alpha.grid.n}


def _run_fluid_euler(sc: Scenario) -> dict:
    alpha = parse_field_spec(sc.field, sc.grid)
    state, diag = euler_evolve(FluidState(alpha), dt=sc.dt, t_final=sc.t_final)
    if sc.out:
        with _csv_rows(sc.out, "t,energy,helicity") as write:
            write(diag.times, diag.energies, diag.helicities)
        _status(f"wrote diagnostics to {sc.out}")
    if sc.dump_fields:
        f3.io.save(sc.dump_fields, state.alpha)
        _status(f"dumped final state to {sc.dump_fields}")
    doc = {"t_final": sc.t_final}
    for name, series in (("energy", diag.energies), ("helicity", diag.helicities)):
        doc.update({f"{name}_initial": series[0], f"{name}_final": series[-1],
                    f"{name}_drift": float(abs(series[-1] - series[0]))})
    return doc


def _run_foliation_gv(sc: Scenario) -> dict:
    text = sc.profile
    try:
        tokens = fieldexpr.tokenize(text)
    except ParseError as exc:
        raise _expr_error("profile", text, exc) from None
    if {"x", "y"} & {v for kind, v, _ in tokens if kind == "ident"}:
        raise ConfigError("profile must be an expression in z only (graph foliation)")
    grid = f3.Grid(sc.grid)
    profile = _eval_expr_field(text, grid, "profile")
    scale = _eval_expr_field(sc.scale, grid, "scale") if sc.scale else None
    state = fol.FoliatedState.from_alpha(fol.graph_foliation_form(grid, profile, scale))
    return {"gv": fol.godbillon_vey(state), "grid": grid.n, "profile": sc.profile,
            "scale": sc.scale, "residuals": state.residuals}


_RUNNERS = {
    "rattleback": _run_rattleback,
    "fluid-helicity": _run_fluid_helicity,
    "fluid-euler": _run_fluid_euler,
    "foliation-gv": _run_foliation_gv,
}


def run_scenario(sc: Scenario) -> int:
    """Run a Scenario and print its JSON document; exit codes as for the CLI.

    A verify scenario prints its report unless it writes it to ``report``.
    A check whose value is NaN or Infinity is a failed record with a null
    value, so the report is always written.  Other kinds print one document,
    which a ``report`` path also receives.  Overflow warnings are off: such a
    document holding NaN or Infinity raises CasimirLabError (exit 1),
    printing nothing.
    """
    is_verify = sc.kind == "verify-all"
    with np.errstate(over="ignore", invalid="ignore"):
        if is_verify:
            doc = run_suite(sc.suite, SuiteConfig(grid_n=sc.grid, seed=sc.seed,
                                                  rattleback_h=sc.h))
        else:
            doc = {"kind": sc.kind, **_RUNNERS[sc.kind](sc)}
    text = report_json(doc)
    if sc.report:
        with open(sc.report, "w") as fh:
            fh.write(text)
        _status(f"report written to {sc.report}")
    if not (is_verify and sc.report):
        print(text)
    if is_verify and not doc["passed"]:
        _status("failed checks: " + ", ".join(doc["failed_checks"]))
        return 1
    return 0


# --- subcommands -----------------------------------------------------------------

def _parse_ic(text: str) -> tuple:
    try:
        p, r, s = map(float, text.split(","))
    except ValueError:  # not three parts, or a part that is not a number
        raise ConfigError(f"--ic must be three comma-separated reals, got {text!r}") from None
    return p, r, s


def cmd_scenario(args) -> int:
    """Map a subcommand's flags onto a Scenario and run it."""
    values = {k: v for k, v in vars(args).items() if k in _SCENARIO_KEYS}
    if "ic" in values:
        values["ic"] = _parse_ic(values["ic"])
    return run_scenario(Scenario(**values))


def cmd_run(args) -> int:
    return run_scenario(load_config(args.config))


# --- argument parsing ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-lab",
        description="Lie-Poisson and foliation-invariant verification toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag left out sets nothing, so the Scenario's default applies.
    def scenario_parser(group, name, kind, help):
        p = group.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=cmd_scenario, kind=kind)
        return p

    p_rat = sub.add_parser("rattleback", help="rattleback spinning-top engine")
    rat_sub = p_rat.add_subparsers(dest="subcommand", required=True)
    p_sim = scenario_parser(rat_sub, "simulate", "rattleback",
                            "integrate and write t,p,r,s,H,C")
    p_sim.add_argument("--h", type=float, required=True, help="shape parameter")
    p_sim.add_argument("--ic", required=True, help="initial p,r,s")
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--t-final", type=float)
    p_sim.add_argument("--method", choices=rb.METHODS)
    p_sim.add_argument("--stride", type=int, help="record every k-th step")
    p_sim.add_argument("--out", help="CSV output path")

    p_fluid = sub.add_parser("fluid", help="spectral torus fluid engine")
    fl_sub = p_fluid.add_subparsers(dest="subcommand", required=True)
    p_hel = scenario_parser(fl_sub, "helicity", "fluid-helicity",
                            "helicity of a 1-form field")
    p_hel.add_argument("--field", required=True,
                       help="'ex,ey,ez' component expressions or an .f3rm path")
    p_hel.add_argument("--grid", type=int)
    p_evo = scenario_parser(fl_sub, "evolve", "fluid-euler", "ideal Euler evolution")
    p_evo.add_argument("--field", required=True)
    p_evo.add_argument("--grid", type=int)
    p_evo.add_argument("--dt", type=float, help="fixed step (default fluid.euler_dt(grid))")
    p_evo.add_argument("--t-final", type=float)
    p_evo.add_argument("--out", help="diagnostics CSV path")
    p_evo.add_argument("--dump-fields", help="write the final state container here")
    p_gv = scenario_parser(fl_sub, "gv", "foliation-gv",
                           "Godbillon-Vey of a graph foliation")
    p_gv.add_argument("--profile", required=True, help="slope a(z), expression in z")
    p_gv.add_argument("--scale", help="nonvanishing multiplier expression")
    p_gv.add_argument("--grid", type=int)
    p_gv.add_argument("--report", help="JSON report path")
    p_ver = scenario_parser(sub, "verify", "verify-all", "run verification suites")
    p_ver.add_argument("--suite", choices=("all", *SUITES))
    p_ver.add_argument("--grid", type=int)
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--h", type=float, help="rattleback shape parameter")
    p_ver.add_argument("--report", help="JSON report path")

    p_run = sub.add_parser("run", help="execute a JSON scenario file")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (ConfigError, FormatError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except BlowUpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 1
    except CasimirLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except MemoryError as exc:  # numpy's message is one line ("Unable to allocate ...")
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        code = 1
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
