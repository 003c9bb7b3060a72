import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import casimir_lab
from casimir_lab import cli, fieldexpr, fluid, verify
from casimir_lab import rattleback as rb
from casimir_lab import foliation as fol
from casimir_lab import forms3 as f3
from casimir_lab.errors import (ConfigError, DomainError, EvalError, InconsistencyError,
                                 InvalidParameterError, ParseError)
from casimir_lab.verify import SuiteConfig, report_json, run_suite


def _run_file(tmp_path, doc) -> int:
    """Write ``doc`` as a scenario file and run it through the CLI."""
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    return cli.main(["run", "--config", str(path)])


class TestSuiteRunner:
    def test_record_shape(self):
        report = run_suite("rattleback", SuiteConfig())
        assert sorted(report) == ["checks", "failed_checks", "grid", "h", "library", "passed",
                                  "seed", "suite", "version"]
        assert report["library"] == "casimir-lab"
        assert report["suite"] == "rattleback"
        assert report["passed"]
        for c in report["checks"]:
            assert set(c) >= {"check", "value", "tolerance", "pass"}

    def test_byte_determinism(self):
        a = report_json(run_suite("rattleback", SuiteConfig(seed=42)))
        b = report_json(run_suite("rattleback", SuiteConfig(seed=42)))
        assert a == b

    def test_seed_changes_data_not_verdict(self):
        a = run_suite("rattleback", SuiteConfig(seed=1))
        b = run_suite("rattleback", SuiteConfig(seed=2))
        assert a["passed"] and b["passed"]
        assert a["seed"] != b["seed"]

    def test_header_names_every_input(self, monkeypatch):
        # every SuiteConfig field is in the header, which so names all a report depends on
        monkeypatch.setattr(verify, "SUITES", {})
        cfg = SuiteConfig(grid_n=16, seed=5, rattleback_h=-1.5)
        header = run_suite("all", cfg)
        keys = {"grid_n": "grid", "seed": "seed", "rattleback_h": "h"}
        assert {keys[f.name]: getattr(cfg, f.name) for f in fields(SuiteConfig)} == {
            key: header[key] for key in keys.values()}

    @pytest.mark.parametrize("name", [*verify.SUITES, "all"])
    def test_invalid_grid_raises_before_any_unit(self, monkeypatch, name):
        # Grid's rule is SuiteConfig's, so an odd grid is refused before the
        # fixtures unit, whose refusal would fail every record that reads them
        called = []

        def counted(unit):
            def wrapper(cfg, fx):
                called.append(unit.__name__)
                return unit(cfg, fx)
            wrapper.checks = unit.checks
            return wrapper

        monkeypatch.setattr(verify, "SUITES", {
            suite: [counted(unit) for unit in units] for suite, units in verify.SUITES.items()})
        for grid_n in (33, 31, 2, 16.0, "32"):
            with pytest.raises(InvalidParameterError,
                               match="grid size n must be an even integer >= 4"):
                run_suite(name, SuiteConfig(grid_n=grid_n))
        assert called == []

    def test_lie_poisson_evolves_at_euler_dt(self, monkeypatch):
        steps = []

        def spy(state, dt, t_final):
            steps.append(dt)
            return fluid.euler_evolve(state, dt, t_final)

        monkeypatch.setattr(verify, "euler_evolve", spy)
        run_suite("lie-poisson", SuiteConfig(grid_n=8))
        assert steps == [fluid.EULER_DT, fluid.EULER_DT]

    def test_gate_failure_stops_only_its_unit(self, monkeypatch):
        rattleback = verify.SUITES["rattleback"]
        monkeypatch.setattr(verify, "SUITES", {})

        @verify._unit("broken", "broken-first", "broken-second")
        def stopped(cfg, fx):  # stops before it builds its fixture "states"
            raise InconsistencyError("defining identity gamma_defining residual too large")

        @verify._unit("broken", "broken-after")
        def after(cfg, fx):
            return [verify._check("broken-after", 0.0, 0.0)]

        @verify._unit("broken", "broken-reader")
        def reader(cfg, fx):
            return [verify._check("broken-reader", fx["states"], 0.0)]

        verify.SUITES["rattleback"] = rattleback
        report = run_suite("all", SuiteConfig())
        note = "defining identity gamma_defining residual too large"
        assert report["checks"][:4] == [
            {"check": "broken-first", "value": None, "tolerance": None, "pass": False,
             "note": note},
            {"check": "broken-second", "value": None, "tolerance": None, "pass": False,
             "note": note},
            {"check": "broken-after", "value": 0.0, "tolerance": 0.0, "pass": True},
            {"check": "broken-reader", "value": None, "tolerance": None, "pass": False,
             "note": "fixture 'states' was not built: a gate stopped its unit"}]
        assert len(report["checks"]) > 4
        assert all(c["check"].startswith("rattleback-") and c["pass"]
                   for c in report["checks"][4:])
        assert report["failed_checks"] == ["broken-first", "broken-second", "broken-reader"]
        assert not report["passed"]

    @pytest.mark.parametrize("error", [InvalidParameterError, DomainError])
    def test_any_library_refusal_stops_only_its_unit(self, monkeypatch, error):
        monkeypatch.setattr(verify, "SUITES", {})

        @verify._unit("broken", "broken-first", "broken-second")
        def stopped(cfg, fx):
            raise error("component p must be finite")

        @verify._unit("broken", "broken-after")
        def after(cfg, fx):
            return [verify._check("broken-after", 0.0, 0.0)]

        report = run_suite("broken", SuiteConfig())
        note = "component p must be finite"
        assert report["checks"] == [
            {"check": "broken-first", "value": None, "tolerance": None, "pass": False,
             "note": note},
            {"check": "broken-second", "value": None, "tolerance": None, "pass": False,
             "note": note},
            {"check": "broken-after", "value": 0.0, "tolerance": 0.0, "pass": True}]
        assert report["failed_checks"] == ["broken-first", "broken-second"]

    def test_taking_an_unbuilt_fixture_stops_only_its_unit(self, monkeypatch):
        monkeypatch.setattr(verify, "SUITES", {})

        @verify._unit("broken", "broken-taker")
        def taker(cfg, fx):  # the last reader of a fixture that no unit built
            return [verify._check("broken-taker", fx.pop("states"), 0.0)]

        @verify._unit("broken", "broken-after")
        def after(cfg, fx):
            return [verify._check("broken-after", 0.0, 0.0)]

        assert run_suite("broken")["checks"] == [
            {"check": "broken-taker", "value": None, "tolerance": None, "pass": False,
             "note": "fixture 'states' was not built: a gate stopped its unit"},
            {"check": "broken-after", "value": 0.0, "tolerance": 0.0, "pass": True}]

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_suite_warning_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(verify, "SUITES", {})

        @verify._unit("noisy", "noisy")
        def noisy(cfg, fx):
            warnings.warn("overflow in a suite", RuntimeWarning)
            return [verify._check("noisy", 0.0, 0.0)]

        with pytest.warns(RuntimeWarning, match="overflow in a suite"):
            report = run_suite("noisy")
        assert report["passed"]

    def test_missing_measurement_cannot_pass(self):
        with pytest.raises(TypeError):
            verify._check("missing", None, 1.0)
        assert not verify._check("nan", float("nan"), 1.0)["pass"]

    @pytest.mark.parametrize("samples", [
        [float("nan"), 0.0, 1e-3], [0.0, float("nan"), 1e-3], [0.0, 1e-3, float("nan")],
    ], ids=["first", "middle", "last"])
    def test_nan_sample_fails_the_check(self, samples):
        rec = verify._check("nan-sample", samples, 1.0)
        assert rec["value"] is None and rec["pass"] is False and rec["note"] == "value is nan"

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_non_finite_value_is_null_and_failed(self, value):
        rec = verify._check("non-finite", value, 1.0)
        assert (rec["value"], rec["pass"], rec["note"]) == (None, False, f"value is {value}")
        assert json.loads(report_json(rec))["tolerance"] == 1.0

    def test_non_finite_gate_observation_is_null_and_failed(self):
        rec = verify._gate_check("control", True, value_observed=float("nan"), note="control")
        assert rec["value_observed"] is None and rec["pass"] is False
        assert rec["note"] == "control; value_observed is nan"
        assert verify._gate_check("control", True, value_observed=2.0)["pass"] is True

    def test_nan_sample_fails_its_suite(self, monkeypatch):
        monkeypatch.setattr(verify.rb, "casimir_gradient_check", lambda xi, h: float("nan"))
        report = run_suite("rattleback")
        assert report["failed_checks"] == ["rattleback-casimir-gradient-kernel"]
        assert not report["passed"]

    def test_lie_poisson_bandwidth_keeps_the_adjunction_alias_free(self, monkeypatch):
        # at n = 6 a bandwidth of 2 let the adjunction's triple products of
        # band-2 fields alias onto the grid, and it read 1.89 against 1e-9;
        # the fixtures cap bw at (n - 1)//3 = 1 there
        monkeypatch.setitem(verify.SUITES, "lie-poisson",
                            [verify._lp_fixtures, verify._lp_pairing_coadjoint])
        report = run_suite("lie-poisson", SuiteConfig(grid_n=6))
        assert len(report["checks"]) == len(verify._lp_pairing_coadjoint.checks)
        assert report["failed_checks"] == []

    @pytest.mark.parametrize("faulty", [False, True], ids=["dop853", "b5-raised"])
    def test_boosted_beltrami_oracle_sees_a_stepping_fault(self, monkeypatch, faulty):
        # DOP853's weight B_5 raised by 1e-9 breaks its order conditions: the
        # boosted oracle reads about 2e-10 against its 1e-12, where the steady
        # Beltrami run it replaced read roundoff.  Only the zeros of the
        # tableau fix _DOP853_FREED, so the step still runs
        if faulty:
            b = fluid.DOP853_B.copy()
            b[5] += 1e-9
            monkeypatch.setattr(fluid, "DOP853_B", b)
        monkeypatch.setitem(verify.SUITES, "lie-poisson",
                            [verify._lp_fixtures, verify._lp_euler])
        report = run_suite("lie-poisson", SuiteConfig(grid_n=16))
        assert len(report["checks"]) == len(verify._lp_euler.checks)
        assert report["failed_checks"] == (["fluid-euler-boosted-beltrami-oracle"]
                                           if faulty else [])


@pytest.fixture(scope="module")
def godbillon_vey_32(unit_peaks):
    """One godbillon-vey run at n = 32 under tracemalloc: its records and,
    per check unit, the peak of traced memory above the level before it."""
    return unit_peaks("godbillon-vey", SuiteConfig(grid_n=32))


def _chain_pool_in_order(g, a_prof, beta, rng):
    # the pool as it was when it solved its members in order, kept verbatim
    states = [fol.FoliatedState.from_alpha(beta, strict=False)]
    family, shifted = [(states[0].residuals, states[0].gv)], []
    for _ in range(20):
        q = f3.random_scalar_array(g, 2, rng, rms=verify.SCALING_RMS)
        alpha_i = fol.graph_foliation_form(g, a_prof, f3.Form0(g, np.exp(q)))
        st = fol.FoliatedState.from_alpha(alpha_i, strict=False)
        if len(states) < 3:
            states.append(st)
        family.append((st.residuals, st.gv))
        f_gauge = f3.random_form0(g, 1, rng, rms=verify.GAUGE_RMS)
        g_gauge = f3.random_form0(g, 1, rng, rms=verify.GAUGE_RMS)
        shift = fol.gauge_shift(st, f_gauge, g_gauge)
        shifted.append((shift.residuals, shift.gv))
        del st, shift
    return states, family, shifted


def _largest(peaks):
    """The unit that set the peak, and that peak in MiB."""
    unit = max(peaks, key=peaks.get)
    return unit, peaks[unit] / 2 ** 20


class TestCheckUnits:
    def test_godbillon_vey_memory_is_bounded_by_its_units(self, godbillon_vey_32):
        # what a unit builds is freed when it returns, a fixture when its
        # last reader returns, a chain term when its last residual is formed,
        # and the pool solves its three kept states last: the suite peaks at
        # 15.7-15.8 MiB, in _gv_values.  It read 20.0 MiB with the chain's terms
        # held to the end of each solve and the kept states held through the
        # pool, 27.6 MiB with the pool's three states, beta, the profile and
        # the degeneracy fields held to the suite's end, and 66.4 MiB with
        # every field held
        checks, peaks = godbillon_vey_32
        assert all(c["pass"] for c in checks)
        unit, peak = _largest(peaks)
        assert peak <= 17, f"{unit} peaks at {peak:.2f} MiB"

    def test_lie_poisson_memory_is_bounded_by_its_units(self, unit_peaks):
        # the Euler step drops each stage slope after its last reader, and
        # _lp_euler frees the exact form and the oracles' fields before it
        # evolves and each evolution's fields before the next: the suite
        # peaks at 10.5 MiB, in _lp_pairing_coadjoint, and _lp_euler at
        # 9.4 MiB.  With every slope and field of _lp_euler held to its end
        # that unit peaked at 12.9 MiB
        checks, peaks = unit_peaks("lie-poisson", SuiteConfig(grid_n=32))
        assert all(c["pass"] for c in checks)
        unit, peak = _largest(peaks)
        assert peak <= 11, f"{unit} peaks at {peak:.2f} MiB"

    def test_rattleback_memory_is_bounded_by_its_units(self, unit_peaks):
        # the long rk4 runs are read leg by leg, their drifts as running
        # maxima and the chirality run as its s column: the suite peaks at
        # 2.1 MiB, in _rb_trajectories.  Holding each whole run, with its H
        # and C columns, it peaked at 6.8 MiB.  The units share no fixtures,
        # so tracing restarted at each unit reads what one session does, and
        # keeps the rk4 loops off the blocks _rb_bracket left traced (the
        # test took 11-14 s in one session, 1.3-2.1 s restarted)
        checks, peaks = unit_peaks("rattleback", SuiteConfig(grid_n=32), restart=True)
        assert all(c["pass"] for c in checks)
        unit, peak = _largest(peaks)
        assert peak <= 2.5, f"{unit} peaks at {peak:.2f} MiB"

    @pytest.mark.parametrize("n", [16, 32])
    def test_chain_pool_matches_the_in_order_pool(self, n):
        # the pool solves its kept states last; its records, its kept states
        # and the generator it leaves to later units are the in-order pool's
        g = f3.Grid(n)
        a_prof = verify._canonical_profile(g, verify.PROFILE_MAIN)
        beta = fol.graph_foliation_form(g, a_prof)
        rng, rng_in_order = (np.random.default_rng(1733) for _ in range(2))
        states, family, shifted = verify._chain_pool(g, a_prof, beta, rng)
        want = _chain_pool_in_order(g, a_prof, beta, rng_in_order)
        assert rng.bit_generator.state == rng_in_order.bit_generator.state
        assert len(states) == 3 and len(family) == 21 and len(shifted) == 20
        for st, st_want in zip(states, want[0]):
            assert st.alpha.data.tobytes() == st_want.alpha.data.tobytes()
            for name in ("eta", "gamma", "chi"):
                assert getattr(st, name).data.tobytes() == getattr(st_want, name).data.tobytes()
        for got, expected in ((family, want[1]), (shifted, want[2])):
            assert ([(list(res), np.array([*res.values(), gv]).tobytes()) for res, gv in got]
                    == [(list(res), np.array([*res.values(), gv]).tobytes())
                        for res, gv in expected])

    def test_gate_stopped_report_keeps_every_check(self, godbillon_vey_32):
        # at n = 16 the pool states miss their gates, which stops checks
        # rather than the suite: every n = 32 check has a record, in order
        coarse = run_suite("godbillon-vey", SuiteConfig(grid_n=16))
        assert not coarse["passed"]
        assert ([c["check"] for c in coarse["checks"]]
                == [c["check"] for c in godbillon_vey_32[0]])


class TestScenarioConfig:
    def test_minimal_defaults(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text('{"kind":"foliation-gv","profile":"0.3*sin(2*pi*z)"}')
        sc = cli.load_config(str(path))
        assert sc.grid == 32 and sc.dt == 1e-3
        assert sc.profile == "0.3*sin(2*pi*z)"

    def test_default_step_by_kind(self):
        assert cli.Scenario(kind="fluid-euler", field="0,0,0").dt == fluid.EULER_DT
        assert (cli.Scenario(kind="fluid-euler", field="0,0,0", grid=64).dt
                == fluid.euler_dt(f3.Grid(64)) < fluid.EULER_DT)
        # (48 - 1) // 3 = 15 kept modes, where 48 // 3 = 16 would give 1.25e-2
        assert (cli.Scenario(kind="fluid-euler", field="0,0,0", grid=48).dt
                == fluid.euler_dt(f3.Grid(48)) == fluid.EULER_DT * (10 / 15))
        assert cli.Scenario(kind="rattleback").dt == 1e-3

    def test_euler_step_help_names_its_rule(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fluid", "evolve", "--help"])
        assert "fluid.euler_dt" in capsys.readouterr().out

    def test_default_t_final_by_kind(self):
        assert cli.Scenario(kind="rattleback").t_final == 100.0
        assert cli.Scenario(kind="fluid-euler", field="0,0,0").t_final == 0.5
        assert cli.Scenario(kind="rattleback", t_final=2).t_final == 2.0

    @pytest.mark.parametrize("doc, key", [
        ({"kind": "fluid-helicity"}, "field"),
        ({"kind": "fluid-euler", "field": ""}, "field"),
        ({"kind": "foliation-gv", "scale": "1"}, "profile"),
    ])
    def test_required_key_by_kind(self, tmp_path, capsys, doc, key):
        message = f"{doc['kind']} scenario needs {key!r}"
        with pytest.raises(ConfigError, match=message):
            cli.Scenario(**doc)
        assert _run_file(tmp_path, doc) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_file_sets_stride_and_suite(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text('{"kind":"verify-all","suite":"forms","stride":3}')
        sc = cli.load_config(str(path))
        assert (sc.suite, sc.stride) == ("forms", 3)

    def test_unknown_keys_listed(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text('{"kind":"rattleback","bogus":1,"wat":2}')
        with pytest.raises(ConfigError, match="bogus, wat"):
            cli.load_config(str(path))

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text('{"kind":"bogus"}')
        with pytest.raises(ConfigError, match="kind"):
            cli.load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            cli.load_config("/nonexistent/sc.json")

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = tmp_path / "sc.json"
        path.write_text('{"kind":"rattleback","seed":7}')
        monkeypatch.setenv("CASIMIR_LAB_SEED", "99")
        assert cli.load_config(str(path)).seed == 99


class TestCli:
    def test_simulate_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = cli.main(["rattleback", "simulate", "--h", "-2",
                         "--ic", "0.1,0.2,1.0", "--dt", "1e-3",
                         "--t-final", "2.0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,p,r,s,H,C"
        table = np.loadtxt(str(out), delimiter=",", skiprows=1)
        assert np.all(np.diff(table[:, 0]) > 0)
        h = table[:, 4]
        c = table[:, 5]
        assert np.abs(h - h[0]).max() / h[0] <= 1e-8
        assert np.abs(c - c[0]).max() / abs(c[0]) <= 1e-8

    def test_simulate_zero_steps_is_the_start(self, capsys):
        # t_final within the run rules' 1e-9 of zero steps: one sample, the start
        code = cli.main(["rattleback", "simulate", "--h", "-2", "--ic", "0.1,0.2,1.0",
                         "--dt", "1e-3", "--t-final", "1e-10"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["samples"], doc["final"], doc["H_drift_abs"]) == (1, [0.1, 0.2, 1.0], 0.0)

    def test_simulate_bad_ic(self, capsys):
        code = cli.main(["rattleback", "simulate", "--h", "-2", "--ic", "1,2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --ic must be three comma-separated reals, got '1,2'\n")

    def test_rattleback_verify_json(self, capsys):
        code = cli.main(["verify", "--suite", "rattleback", "--h", "-2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        rec = next(c for c in doc["checks"] if c["check"] == "rattleback-energy-conservation-rk4")
        assert rec["pass"] and rec["tolerance"] == 1e-8

    def test_rattleback_verify_other_h(self, capsys):
        code = cli.main(["verify", "--suite", "rattleback", "--h", "-1.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] and doc["h"] == -1.5
        # the chirality turning points are checked at every h < -1
        assert "rattleback-chirality-turning-points" in {c["check"] for c in doc["checks"]}

    def test_fluid_helicity_value(self, capsys):
        code = cli.main(["fluid", "helicity", "--field",
                         "sin(2*pi*z),cos(2*pi*z),0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["helicity"] == pytest.approx(2 * np.pi, abs=1e-10)

    def test_fluid_helicity_from_container(self, tmp_path, grid32, capsys, beltrami):
        path = tmp_path / "alpha.f3rm"
        f3.io.save(path, beltrami)
        code = cli.main(["fluid", "helicity", "--field", str(path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["helicity"] == pytest.approx(2 * np.pi, abs=1e-10)

    def test_fluid_gv_report(self, tmp_path, capsys):
        report = tmp_path / "gv.json"
        code = cli.main(["fluid", "gv", "--profile", "0.15*sin(2*pi*z)", "--grid", "32",
                         "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert abs(doc["gv"]) <= 1e-10
        assert doc["residuals"]["eta_defining"] <= 1e-9

    def test_fluid_gv_rejects_xy_profile(self, capsys):
        code = cli.main(["fluid", "gv", "--profile", "sin(2*pi*x)"])
        assert code == 2

    def test_parse_error_exit_2(self, capsys):
        code = cli.main(["fluid", "gv", "--profile", "sin("])
        assert code == 2
        assert "offset 4" in capsys.readouterr().err

    @pytest.mark.parametrize("profile, message", [
        ("z@", "cannot parse profile 'z@': unexpected character '@' (offset 1)"),
        ("z+", "cannot parse profile 'z+': unexpected end of input (offset 2)"),
        ("x+", "profile must be an expression in z only (graph foliation)"),
    ], ids=["tokenizer", "parser", "names-x"])
    def test_profile_read_before_evaluation(self, capsys, profile, message):
        # identifiers are read off the tokens, so a profile that names x or y
        # gets the z-only message before the parser sees it
        assert cli.main(["fluid", "gv", "--grid", "8", f"--profile={profile}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("n", ["7", "2", "258"])
    def test_bad_grid_flag_exit_2(self, capsys, n):
        assert cli.main(["fluid", "helicity", "--grid", n, "--field", "0,0,0"]) == 2
        assert capsys.readouterr().err.startswith("error: 'grid' must be an even integer")

    def test_huge_grid_refused_before_allocating(self, capsys, monkeypatch):
        # at n = 100000 one field component would be 8 PB
        def no_grid(n):
            raise AssertionError("a Grid was built")

        monkeypatch.setattr(cli.f3, "Grid", no_grid)
        argv = ["fluid", "helicity", "--field", "sin(2*pi*z),0,0", "--grid", "100000"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: 'grid' must be an even integer from 4 to {cli.MAX_GRID}, got 100000\n")

    def test_out_of_memory_is_one_line(self, capsys, monkeypatch):
        def allocate(sc):
            return np.empty((1 << 16,) * 3)  # 2 PiB

        monkeypatch.setitem(cli._RUNNERS, "fluid-helicity", allocate)
        assert cli.main(["fluid", "helicity", "--field", "0,0,0", "--grid", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    def test_evolve_dump_fields(self, tmp_path, capsys):
        dump = tmp_path / "state.f3rm"
        out = tmp_path / "diag.csv"
        code = cli.main(["fluid", "evolve", "--field", "sin(2*pi*z),cos(2*pi*z),0",
                         "--dt", "1e-2", "--t-final", "0.05",
                         "--out", str(out), "--dump-fields", str(dump)])
        assert code == 0
        state = f3.io.load(str(dump))
        assert isinstance(state, f3.Form1)
        table = np.loadtxt(str(out), delimiter=",", skiprows=1)
        assert table.shape[1] == 3

    def test_evolve_step_beyond_t_final_takes_one_step(self, tmp_path, capsys):
        # t_final / dt = 5e-14 is one step of t_final, not none: the
        # diagnostics end at t_final and the energy moves
        out = tmp_path / "diag.csv"
        assert cli.main(["fluid", "evolve", "--field",
                         "sin(2*pi*z),cos(2*pi*z)+0.1*sin(2*pi*x),0", "--grid", "8",
                         "--dt", "1e13", "--t-final", "0.5", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["energy_drift"] > 0
        assert np.loadtxt(str(out), delimiter=",", skiprows=1)[:, 0].tolist() == [0.0, 0.5]

    def test_run_scenario_rattleback(self, tmp_path, capsys):
        doc = {"kind": "rattleback", "t_final": 1.0, "ic": [0.1, 0.2, 1.0]}
        assert _run_file(tmp_path, doc) == 0

    def test_run_scenario_unknown_kind_exit_2(self, tmp_path, capsys):
        assert _run_file(tmp_path, {"kind": "bogus"}) == 2

    def test_verify_report_written(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = cli.main(["verify", "--suite", "rattleback",
                         "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        assert doc["version"]
        assert doc["grid"] == 32

    @pytest.mark.parametrize("argv", [
        ["fluid", "helicity", "--field", "1e308*sin(2*pi*z),1e308*cos(2*pi*z),0"],
        ["fluid", "helicity", "--field", "1e200*sin(2*pi*z),1e200*cos(2*pi*z),0"],
        ["fluid", "gv", "--profile", "1e300*sin(2*pi*z)"],
    ], ids=["helicity-nan", "helicity-inf", "gv-nan-residual"])
    def test_non_finite_result_exits_1_with_one_line(self, capsys, argv):
        # nothing is printed: NaN and Infinity are not JSON
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv + ["--grid", "8"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["verify", "--suite", "rattleback"],
                                      ["verify", "--suite", "rattleback", "--h", "-1.5"]],
                             ids=["verify", "other-h"])
    def test_nan_check_is_a_failed_record_in_the_report(self, tmp_path, capsys, monkeypatch,
                                                       argv):
        monkeypatch.setattr(verify.rb, "casimir_gradient_check", lambda xi, h: float("nan"))
        path = tmp_path / "r.json"
        assert cli.main(argv + ["--report", str(path)]) == 1
        records = {c["check"]: c for c in json.loads(path.read_text())["checks"]}
        rec = records["rattleback-casimir-gradient-kernel"]
        assert (rec["value"], rec["pass"], rec["note"]) == (None, False, "value is nan")
        assert capsys.readouterr() == ("", f"report written to {path}\n"
                                           "failed checks: rattleback-casimir-gradient-kernel\n")

    @pytest.mark.parametrize("h", ["400", "-400", "1e6", "-1e6", "1e200", "-1e200", "1e308",
                                   "-1e308", "1.7976931348623157e308"])
    def test_extreme_h_fails_in_the_report(self, tmp_path, capsys, h):
        # the Casimir chart's powers overflow to inf, and at +-1e6 the rk4 run
        # blows up at t = 0.002, which fails only its unit's checks; from
        # |h| = 1e308 rattleback_rhs refuses the bracket unit's overflowing
        # states, which stops only that unit too: the report is written, and
        # no traceback
        path = tmp_path / "r.json"
        assert cli.main(["verify", "--suite", "rattleback", f"--h={h}",
                         "--report", str(path)]) == 1
        doc = json.loads(path.read_text())
        records = {c["check"]: c for c in doc["checks"]}
        assert doc["h"] == float(h) and not records["rattleback-casimir-conservation-rk4"]["pass"]
        if abs(float(h)) == 1e6:
            assert records["rattleback-energy-conservation-rk4"]["note"] \
                == "state became non-finite (t = 0.002)"
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"report written to {path}\nfailed checks: ")
        assert err.count("\n") == 2
        # in process, where warnings are errors and the CLI's errstate is not
        # in force, the run writes the same report
        assert report_json(run_suite("rattleback", SuiteConfig(rattleback_h=float(h)))) \
            == path.read_text()

    def test_console_script_entrypoint(self):
        # the child imports the casimir_lab under test, installed or not
        src = str(Path(casimir_lab.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-m", "casimir_lab.cli", "--version"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0


class TestExitPaths:
    @pytest.mark.parametrize("text, message", [
        ("{", "error: config is not valid JSON: "),
        ("[1]", "error: config must be a JSON object\n"),
        ('{"grid": 8}', "error: config is missing the required key 'kind'\n"),
    ], ids=["invalid-json", "array", "no-kind"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "sc.json"
        path.write_text(text)
        assert cli.main(["run", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message) and err.count("\n") == 1

    def test_huge_integer_h_exit_2(self, tmp_path, capsys):
        # an int beyond the float range: math.isfinite raises OverflowError
        assert _run_file(tmp_path, {"kind": "rattleback", "h": 10 ** 400}) == 2
        assert capsys.readouterr().err.startswith("error: 'h' must be a finite number")

    def test_bad_seed_variable_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CASIMIR_LAB_SEED", "abc")
        assert cli.main(["verify", "--suite", "rattleback"]) == 2
        assert capsys.readouterr().err == (
            "error: CASIMIR_LAB_SEED must be an integer, got 'abc'\n")

    @pytest.mark.parametrize("flags, keys, given", [
        (["--t-final", "0.0015"], {"t_final": 0.0015}, "0.0015"),
        (["--t-final", "0.01", "--stride", "7"], {"t_final": 0.01, "stride": 7}, "7"),
        (["--method", "rk45", "--t-final", "1", "--stride", "1000"],
         {"method": "rk45", "t_final": 1, "stride": 1000}, "1000"),
    ], ids=["partial-rk4-step", "partial-stride", "rk45-stride"])
    def test_rattleback_scenario_rules_exit_2(self, tmp_path, capsys, flags, keys, given):
        # the CLI refuses a run with the words of the engine's own refusal,
        # which names the value it refuses
        args = {"h": -2.0, "dt": 1e-3, "method": "rk4", "stride": 1, **keys}
        with pytest.raises(InvalidParameterError) as refusal:
            rb.step_count(args["h"], args["dt"], float(args["t_final"]), args["method"],
                          args["stride"])
        message = f"error: {refusal.value}\n"
        assert message.endswith(f", got {given}\n")
        argv = ["rattleback", "simulate", "--h", "-2", "--ic", "0.1,0.2,1", *flags]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", message)
        doc = {"kind": "rattleback", "h": -2, "ic": [0.1, 0.2, 1.0], **keys}
        assert _run_file(tmp_path, doc) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("argv, message", [
        (["fluid", "helicity", "--field", "1/x,0,0"],
         "error: cannot evaluate field component '1/x': "),
        (["fluid", "gv", "--profile", "1/(z-z)"], "error: cannot evaluate profile '1/(z-z)': "),
        (["fluid", "gv", "--profile", "0.1*sin(2*pi*z)", "--scale", "1/(y-y)"],
         "error: cannot evaluate scale '1/(y-y)': "),
    ], ids=["field", "profile", "scale"])
    def test_non_finite_expression_exit_2(self, capsys, argv, message):
        assert cli.main(argv + ["--grid", "8"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message) and err.count("\n") == 1
        assert err.endswith("expression evaluated to a non-finite value (node (0, 0, 0))\n")

    def test_failing_check_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verify.rb, "jacobi_residual", lambda c: 1.0)
        assert _run_file(tmp_path, {"kind": "verify-all", "suite": "rattleback"}) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["failed_checks"] == ["rattleback-jacobi-identity"]
        assert err == "failed checks: rattleback-jacobi-identity\n"

    def test_unknown_tolerance_key_exit_2(self, tmp_path, capsys):
        # tolerances are fixed in the suites: a file cannot reset one
        doc = {"kind": "verify-all", "suite": "rattleback",
               "tolerances": {"rattleback-jacobi-identity": 0.5}}
        assert _run_file(tmp_path, doc) == 2
        assert capsys.readouterr() == ("", "error: unknown config keys: tolerances\n")

    def test_gate_abort_still_writes_report(self, tmp_path, capsys):
        # at n = 16 the chain pool's states miss their gamma_defining gate: the
        # pool is measured, and only the units reading pool states 1 and 2 stop
        path = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", "godbillon-vey", "--grid", "16",
                         "--report", str(path)]) == 1
        checks = json.loads(path.read_text())["checks"]
        names = [c["check"] for c in checks]
        first_stopped = names.index("gv-chi-gauge-shift-formula")
        stopped = set(names[first_stopped:]) - {"gv-variation-profile-deformation",
                                                 "gv-nonzero-example-gap"}
        measured_misses = {"gv-gamma-defining-residual", "gv-gamma-solvability-certificate",
                           "gv-chi-tangency", "gv-chi-closure"}
        for c in checks:
            if c["check"] in stopped:
                assert c["value"] is None and c["tolerance"] is None and not c["pass"]
                assert c["note"].startswith("defining identity gamma_defining residual ")
                # the gate judged integrability first, so the note names the
                # other cause and carries the residual that rules it out
                integrability = re.fullmatch(
                    r"defining identity gamma_defining residual \S+ exceeds 1e-09 on an "
                    r"integrable state \(integrability (\S+)\): under-resolved", c["note"])[1]
                assert float(integrability) <= fol.INTEGRABILITY_TOL
            elif c["check"] in measured_misses:
                assert c["value"] > c["tolerance"] and not c["pass"]
            else:
                assert c["pass"], c
        assert len(stopped) == 17
        # the integrability controls need no chain: measured as at n = 32
        assert [c["value"] is not None for c in checks[:4]] == [True, True, False, False]
        failed = [n for n in names if n in stopped | measured_misses]
        assert capsys.readouterr().err.endswith("failed checks: " + ", ".join(failed) + "\n")

    def test_failed_gate_record_still_writes_report(self, tmp_path, capsys, monkeypatch):
        # a gv_variation that accepts any variation fails the tangency gate's
        # record and no other; only the units the variation checks read run
        monkeypatch.setitem(verify.SUITES, "godbillon-vey", [
            verify._gv_fixtures, verify._gv_chain_residuals, verify._gv_variations])
        monkeypatch.setattr(verify.fol, "gv_variation",
                            lambda state, adot: f3.integrate3(f3.wedge(adot, state.chi)))
        path = tmp_path / "r.json"
        assert cli.main(["verify", "--suite", "godbillon-vey", "--report", str(path)]) == 1
        doc = json.loads(path.read_text())
        assert doc["failed_checks"] == ["gv-variation-tangency-gate"]
        assert doc["checks"][-1] == {
            "check": "gv-variation-tangency-gate", "value": None, "tolerance": None,
            "pass": False, "note": "a non-tangent variation must be rejected"}
        assert capsys.readouterr().err.endswith("failed checks: gv-variation-tangency-gate\n")

    def test_blow_up_exit_1(self, capsys):
        argv = ["fluid", "evolve", "--field", "1e200*sin(2*pi*z),1e200*cos(2*pi*z),0",
                "--grid", "8"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_spectral_tail_warning(self, capsys):
        assert cli.main(["fluid", "helicity", "--field", "x,0,0", "--grid", "8"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["helicity"] == 0.0
        assert err.startswith("warning: field component 'x' has a spectral tail fraction ")

    def test_vector_field_container_accepted(self, tmp_path, capsys, beltrami):
        path = tmp_path / "u.f3rm"
        f3.io.save(path, f3.sharp(beltrami))
        assert cli.main(["fluid", "helicity", "--field", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["helicity"] == pytest.approx(
            2 * np.pi, abs=1e-10)

    def test_two_form_container_exit_2(self, tmp_path, capsys, beltrami):
        path = tmp_path / "beta.f3rm"
        f3.io.save(path, f3.d(beltrami))
        assert cli.main(["fluid", "helicity", "--field", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: container {path} holds rank 2, need a 1-form\n")

    @pytest.mark.parametrize("header", [
        b"NOPE" + np.array([1, 4, 1, 3], dtype="<u4").tobytes(),
        b"F3RM" + np.array([2, 4, 1, 3], dtype="<u4").tobytes(),
        b"F3RM" + np.array([1, 0, 1, 3], dtype="<u4").tobytes(),
        # 1,539 body bytes: not a whole number of float64 values
        b"F3RM" + np.array([1, 4, 1, 3], dtype="<u4").tobytes() + bytes(1539),
    ], ids=["magic", "version", "grid-0", "odd-body"])
    def test_malformed_container_exit_2(self, tmp_path, capsys, header):
        path = tmp_path / "bad.f3rm"
        path.write_bytes(header)
        assert cli.main(["fluid", "helicity", "--field", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_scenario_flags_carry_no_defaults():
    # a flag left out must leave the Scenario's default in force, and every
    # flag must name a scenario key
    def leaves(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from leaves(sub)
        yield parser

    scenario_parsers = [p for p in leaves(cli.build_parser())
                        if p.get_default("func") is cli.cmd_scenario]
    assert len(scenario_parsers) == 5
    keys = {f.name for f in fields(cli.Scenario)}
    for parser in scenario_parsers:
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert action.default is argparse.SUPPRESS, (parser.prog, action.dest)
            assert action.dest in keys, (parser.prog, action.dest)


def test_field_spec_component_count():
    with pytest.raises(ConfigError, match="three comma-separated"):
        cli.parse_field_spec("sin(2*pi*z),0", 32)


def test_field_spec_nested_commas_ok():
    alpha = cli.parse_field_spec("sin((2)*pi*z),cos(2*pi*z),0", 16)
    assert isinstance(alpha, f3.Form1)


class TestScenarioTypes:
    @pytest.mark.parametrize("doc, key", [
        ({"kind": "rattleback", "ic": [1, 2]}, "'ic'"),
        ({"kind": "rattleback", "ic": [1, 2, float("inf")]}, "'ic'"),
        ({"kind": "rattleback", "ic": [1, True, 2]}, "'ic'"),
        ({"kind": "rattleback", "dt": "a"}, "'dt'"),
        ({"kind": "rattleback", "dt": -1e-3}, "'dt'"),
        ({"kind": "rattleback", "t_final": 0}, "'t_final'"),
        ({"kind": "rattleback", "t_final": 1.7976931348623157e308}, "'t_final'"),
        ({"kind": "rattleback", "t_final": 2**64}, "'t_final'"),
        ({"kind": "rattleback", "t_final": 1e7}, "'t_final'"),
        ({"kind": "rattleback", "dt": 1e-300}, "'t_final'"),
        ({"kind": "fluid-euler", "t_final": 1e300, "dt": 1e-9}, "'t_final'"),
        ({"kind": "rattleback", "h": None}, "'h'"),
        ({"kind": "rattleback", "method": "euler"}, "'method'"),
        ({"kind": "rattleback", "seed": 1.5}, "'seed'"),
        ({"kind": "fluid-helicity", "grid": "32"}, "'grid'"),
        ({"kind": "fluid-helicity", "field": 3}, "'field'"),
        ({"kind": "foliation-gv", "profile": ["z"]}, "'profile'"),
        ({"kind": "foliation-gv", "scale": 2}, "'scale'"),
        ({"kind": "verify-all", "report": False}, "'report'"),
        ({"kind": "verify-all", "h": "-2"}, "'h'"),
        ({"kind": "verify-all", "seed": -1}, "'seed'"),
        ({"kind": "fluid-helicity", "grid": 7, "field": "0,0,0"}, "'grid'"),
        ({"kind": "fluid-helicity", "grid": 2, "field": "0,0,0"}, "'grid'"),
        ({"kind": "fluid-helicity", "grid": 100000, "field": "0,0,0"}, "'grid'"),
        ({"kind": "verify-all", "suite": "bogus"}, "'suite'"),
        ({"kind": "rattleback", "stride": 0}, "'stride'"),
        # the method is checked for every kind, not only where it is used
        ({"kind": "fluid-helicity", "field": "0,0,0", "method": "bogus"}, "'method'"),
    ])
    def test_bad_value_exit_2(self, tmp_path, capsys, doc, key):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=key):
            cli.load_config(str(path))
        assert _run_file(tmp_path, doc) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be")

    def test_rk45_step_count_not_bounded_by_dt(self, tmp_path, capsys):
        doc = {"kind": "rattleback", "method": "rk45", "dt": 1e-300, "t_final": 0.1}
        assert _run_file(tmp_path, doc) == 0

    def test_values_coerced(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text('{"kind":"rattleback","ic":[0,1,2],"h":-2,"dt":1,"t_final":3}')
        sc = cli.load_config(str(path))
        assert sc.ic == (0.0, 1.0, 2.0)
        assert [type(v) for v in (sc.h, sc.dt, sc.t_final)] == [float] * 3


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.dictionaries(st.sampled_from(sorted(cli._SCENARIO_KEYS) + ["bogus"]),
                           _JSON, max_size=6),
       kind=st.one_of(st.sampled_from(cli.SCENARIO_KINDS), _JSON))
def test_load_config_gives_scenario_or_config_error(tmp_path, doc, kind):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({"kind": kind, **doc}))
    try:
        sc = cli.load_config(str(path))
    except ConfigError:
        return
    assert isinstance(sc, cli.Scenario)


# Scenarios that are cheap to run: short rattleback integrations and small
# grids.  Arbitrary JSON is mixed into every value, but numbers come only
# from the cheap ranges, so each example runs in well under a second.
_NOT_NUMERIC = _JSON.filter(lambda v: not cli._is_real(v) and not (
    isinstance(v, list) and all(map(cli._is_real, v))))
_CHEAP_RUN = st.fixed_dictionaries(
    {"kind": st.sampled_from(["rattleback", "fluid-helicity", "foliation-gv"])},
    optional={
        "ic": st.lists(st.floats(-2, 2), min_size=3, max_size=3) | _NOT_NUMERIC,
        "h": st.floats(-3, 3) | _NOT_NUMERIC,
        "dt": st.sampled_from([1e-2, 1e-3, 3e-3]) | _NOT_NUMERIC,
        "t_final": st.floats(1e-3, 1.0) | _NOT_NUMERIC,
        "method": st.sampled_from(["rk4", "rk45"]) | _JSON,
        "grid": st.sampled_from([4, 5, 8, -2]) | _JSON.filter(
            lambda v: not isinstance(v, int) or isinstance(v, bool)),
        "seed": _JSON,
        "field": st.sampled_from(["sin(2*pi*z),cos(2*pi*z),0", "x,y", "1,1,exp(",
                                  "nope.f3rm"]) | _JSON,
        "profile": st.sampled_from(["0.1*sin(2*pi*z)", "0.1*sin(2*pi*y)", "z^", "x"])
        | _JSON,
        "scale": st.sampled_from(["exp(0.1*sin(2*pi*z))", "0", "-1"]) | _JSON,
    })


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.filter_too_much])
@given(doc=_CHEAP_RUN)
def test_run_never_raises(tmp_path, capsys, doc):
    assert _run_file(tmp_path, doc) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def _unparseable(text):
    try:
        fieldexpr.eval_on_grid(text, f3.Grid(4))
    except ParseError:
        return True
    except EvalError:
        pass
    return False


# Text the expression parser refuses, drawn from the grammar's own alphabet
# (plus one stray symbol) so that most draws fail in the grammar rather than
# in the tokenizer.  The grid is small, so each run is cheap.
_MALFORMED = st.text(alphabet="xyz0123456789.e+-*/^(), sincoexpt@", min_size=1,
                     max_size=24).filter(_unparseable)
_EXPR_FLAGS = {
    "gv --profile": lambda text: ["fluid", "gv", "--grid", "8", f"--profile={text}"],
    "gv --scale": lambda text: ["fluid", "gv", "--grid", "8",
                                "--profile=0.1*sin(2*pi*z)", f"--scale={text}"],
    "helicity --field": lambda text: ["fluid", "helicity", "--grid", "8",
                                      f"--field=0,{text},0"],
}


@settings(max_examples=90, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.filter_too_much])
@given(text=_MALFORMED, flag=st.sampled_from(sorted(_EXPR_FLAGS)))
def test_malformed_expression_exits_2(capsys, text, flag):
    assert cli.main(_EXPR_FLAGS[flag](text)) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


def test_verify_all_file_h_matches_rattleback_verify(tmp_path):
    from_flags, from_file = tmp_path / "flags.json", tmp_path / "file.json"
    assert cli.main(["verify", "--suite", "rattleback", "--h", "-1.5",
                     "--report", str(from_flags)]) == 0
    assert _run_file(tmp_path, {"kind": "verify-all", "suite": "rattleback", "h": -1.5,
                                "report": str(from_file)}) == 0
    checks = [json.loads(p.read_text())["checks"] for p in (from_flags, from_file)]
    assert checks[0] == checks[1]
    assert "rattleback-chirality-turning-points" in {c["check"] for c in checks[0]}


@pytest.mark.parametrize("entry", ["fluid gv", "run"])
def test_profile_must_be_z_only(tmp_path, capsys, entry):
    profile = "0.1*sin(2*pi*y)"
    code = (_run_file(tmp_path, {"kind": "foliation-gv", "profile": profile})
            if entry == "run"
            else cli.main(["fluid", "gv", "--profile", profile]))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: profile must be an expression in z only (graph foliation)\n")


@pytest.mark.parametrize("argv, doc", [
    (["rattleback", "simulate", "--h", "-2", "--ic", "0.1,0.2,1.0", "--dt", "1e-3",
      "--t-final", "1.0", "--method", "rk45"],
     {"kind": "rattleback", "h": -2, "ic": [0.1, 0.2, 1.0], "dt": 1e-3, "t_final": 1,
      "method": "rk45"}),
    (["fluid", "helicity", "--field", "sin(2*pi*z),cos(2*pi*z),0", "--grid", "16"],
     {"kind": "fluid-helicity", "field": "sin(2*pi*z),cos(2*pi*z),0", "grid": 16}),
    (["fluid", "evolve", "--field", "sin(2*pi*z),cos(2*pi*y),sin(2*pi*x)",
      "--grid", "16", "--dt", "1e-2", "--t-final", "0.05"],
     {"kind": "fluid-euler", "field": "sin(2*pi*z),cos(2*pi*y),sin(2*pi*x)",
      "grid": 16, "dt": 1e-2, "t_final": 0.05}),
    (["fluid", "evolve", "--field", "sin(2*pi*z),cos(2*pi*y),sin(2*pi*x)",
      "--grid", "16", "--t-final", "0.05"],
     {"kind": "fluid-euler", "field": "sin(2*pi*z),cos(2*pi*y),sin(2*pi*x)",
      "grid": 16, "t_final": 0.05}),
    (["fluid", "gv", "--profile", "0.15*sin(2*pi*z)",
      "--scale", "exp(0.1*sin(2*pi*(x+y)))"],
     {"kind": "foliation-gv", "profile": "0.15*sin(2*pi*z)",
      "scale": "exp(0.1*sin(2*pi*(x+y)))"}),
    (["rattleback", "simulate", "--h", "-2", "--ic", "0.1,0.2,1.0"],
     {"kind": "rattleback", "h": -2, "ic": [0.1, 0.2, 1.0]}),
    (["fluid", "evolve", "--field", "sin(2*pi*z),cos(2*pi*z),0", "--grid", "8"],
     {"kind": "fluid-euler", "field": "sin(2*pi*z),cos(2*pi*z),0", "grid": 8}),
    (["rattleback", "simulate", "--h", "-2", "--ic", "0.1,0.2,1.0", "--t-final", "1",
      "--stride", "10"],
     {"kind": "rattleback", "h": -2, "ic": [0.1, 0.2, 1.0], "t_final": 1, "stride": 10}),
], ids=["rattleback", "fluid-helicity", "fluid-euler", "fluid-euler-default-dt",
        "foliation-gv", "rattleback-defaults", "fluid-euler-defaults", "rattleback-stride"])
def test_subcommand_and_scenario_print_identical_json(tmp_path, capsys, argv, doc):
    assert cli.main(argv) == 0
    from_flags = capsys.readouterr().out
    assert _run_file(tmp_path, doc) == 0
    assert capsys.readouterr().out == from_flags
    assert json.loads(from_flags)["kind"] == doc["kind"]


def test_verify_subcommand_and_scenario_print_identical_json(tmp_path, capsys):
    # the verify report has no "kind"; its suite comes from the file's "suite"
    assert cli.main(["verify", "--suite", "rattleback"]) == 0
    from_flags = capsys.readouterr().out
    assert _run_file(tmp_path, {"kind": "verify-all", "suite": "rattleback"}) == 0
    assert capsys.readouterr().out == from_flags
    assert json.loads(from_flags)["suite"] == "rattleback"


def test_status_lines_on_stderr(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = cli.main(["rattleback", "simulate", "--h", "-2", "--ic", "0.1,0.2,1.0",
                     "--t-final", "0.1", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["samples"] == 101
    assert captured.err == f"wrote 101 samples to {out}\n"


def _whole_run_outputs(tmp_path, t_final, method, stride):
    """The CSV bytes and the JSON line of ``rattleback simulate`` at h = -2
    from (0.1, 0.2, 1.0), formed from the whole trajectory at once: the
    runner as it was before it read its run leg by leg, kept verbatim."""
    tr = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-3, t_final=t_final,
                      method=method, stride=stride)
    path = tmp_path / "whole.csv"
    np.savetxt(path, np.column_stack([tr.times, tr.states, tr.hamiltonians, tr.casimirs]),
               fmt="%.17g", delimiter=",", header="t,p,r,s,H,C", comments="")
    h0 = tr.hamiltonians[0]
    h_drift = float(np.abs(tr.hamiltonians - h0).max())
    doc = {"kind": "rattleback", "samples": len(tr.times), "H0": h0, "H_drift_abs": h_drift,
           "H_drift_rel": h_drift / max(abs(h0), 1e-300), "final": list(tr.states[-1])}
    return path.read_bytes(), report_json(doc) + "\n"


@pytest.mark.parametrize("t_final, method, stride", [
    ("12.345", "rk4", 1),   # 12,345 steps: two whole legs and a part
    ("12.345", "rk4", 3),   # a stride that divides the steps but not LEG_STEPS
    ("20", "rk45", 1),      # one leg
])
def test_simulate_writes_the_whole_runs_bytes(tmp_path, capsys, t_final, method, stride):
    csv, line = _whole_run_outputs(tmp_path, float(t_final), method, stride)
    argv = ["rattleback", "simulate", "--h", "-2", "--ic", "0.1,0.2,1.0", "--t-final",
            t_final, "--method", method, "--stride", str(stride)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == line
    out = tmp_path / "legs.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == line
    assert out.read_bytes() == csv


@pytest.mark.parametrize("flags, bound_mib", [
    ([], 1.5),
    (["--stride", "10", "--out", "traj.csv"], 1.0),
], ids=["summary", "csv"])
def test_simulate_memory_is_bounded_by_its_output(tmp_path, capsys, flags, bound_mib):
    # 2e5 rk4 steps, reduced and written leg by leg, peak at 0.65 MiB for the
    # summary and 0.25 MiB writing every tenth step's row.  Holding the
    # whole run, they read 12.3 and 1.9 MiB
    import tracemalloc

    argv = ["rattleback", "simulate", "--h", "-2", "--ic", "0.1,0.2,1.0",
            *[str(tmp_path / f) if f.endswith(".csv") else f for f in flags]]
    assert cli.main(argv + ["--t-final", "0.01"]) == 0  # first calls' caches
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert cli.main(argv + ["--t-final", "200"]) == 0
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["samples"] == (20001 if flags else 200001)
    assert peak <= bound_mib, f"peaks at {peak:.2f} MiB"


@pytest.mark.parametrize("leg_steps", [rb.LEG_STEPS, 1])
def test_simulate_blowup_leaves_no_csv(tmp_path, capsys, monkeypatch, leg_steps):
    # the run blows up at its second step; with legs of one step the first
    # leg's rows are written before it does, and the part-written file goes
    monkeypatch.setattr(rb, "LEG_STEPS", leg_steps)
    out = tmp_path / "traj.csv"
    assert cli.main(["rattleback", "simulate", "--h", "1e6", "--ic", "0.1,0.2,1.0",
                     "--t-final", "1", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "numerical failure: state became non-finite "
                                       "(t = 0.002)\n")
    assert not out.exists()


def test_unwritable_output_exit_2(tmp_path, capsys):
    assert _run_file(tmp_path, {"kind": "rattleback", "t_final": 0.01,
                                "out": str(tmp_path / "missing" / "traj.csv")}) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_import_leaves_out_scipy_and_sympy():
    # each costs start-up time and memory on every CLI run
    src = str(Path(casimir_lab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import casimir_lab.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'sympy'}))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_report_does_not_depend_on_blas_threads(tmp_path):
    # the box transforms are BLAS matrix products: the report must not move
    # with the number of threads BLAS splits them over, for Euler
    # (lie-poisson), for 1-form transport (forms) or for the foliation
    # chain's residual norms (godbillon-vey), whose sums a BLAS dot would
    # split over its threads
    src = str(Path(casimir_lab.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for suite, grid in (("lie-poisson", "8"), ("forms", "16"), ("godbillon-vey", "32")):
        reports = []
        for threads in ("1", "2"):
            path = tmp_path / f"{suite}-{threads}.json"
            subprocess.run([sys.executable, "-m", "casimir_lab.cli", "verify", "--suite",
                            suite, "--grid", grid, "--report", str(path)],
                           env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True,
                           check=True)
            reports.append(path.read_bytes())
        assert reports[0] == reports[1], suite
