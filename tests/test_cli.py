from __future__ import annotations

import json
import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from kolwave import cli
from kolwave.cli import main
from kolwave.errors import PreconditionError


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_roots_discrete_two_negative(tmp_path):
    code = run(tmp_path, "roots", "--gamma", "9", "--tau", "3",
               "--kernel", "discrete", "--c", "1e6")
    assert code == 0
    doc = json.loads((tmp_path / "roots.json").read_text())
    assert doc["real_negative_count"] == 2
    assert doc["critical_delays"]["discrete"] == pytest.approx(10.0 / math.e)
    assert (tmp_path / "roots.csv").exists()
    assert (tmp_path / "roots.manifest.json").exists()


def test_roots_just_below_the_discrete_boundary_finds_the_close_pair(tmp_path):
    # tau = (1 + gamma)/e * (1 - 1e-4): a 512-point sign scan saw no roots here
    assert run(tmp_path, "roots", "--gamma", "9", "--tau", "3.678426532273252",
               "--kernel", "discrete", "--c", "1e6") == 0
    doc = json.loads((tmp_path / "roots.json").read_text())
    assert doc["real_negative_count"] == 2 and doc["class"] is None
    zs = [r["re"] for r in doc["roots"]]
    assert zs == [pytest.approx(-0.268029, abs=1e-6), pytest.approx(-0.275718, abs=1e-6)]


def test_long_table_front_runs_with_warnings_as_errors(tmp_path):
    # at the root window's lam = -20, exp(-lam*s) overflows past s = 35 and
    # the zero density at the end would turn it into a NaN
    x = np.linspace(0.0, 1.0, 2000)
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"s": (-2.0 + 42.0 * x).tolist(),
                                 "density": (x ** 1.5 * (1.0 - x) ** 2.2).tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check-asymptotics", "--model", "kpp", "--c", "2.6",
                     "--kernel", f"table:{table}", "--out", str(tmp_path / "out")]) == 0


def test_roots_weak_focus(tmp_path):
    code = run(tmp_path, "roots", "--gamma", "40", "--tau", "11",
               "--kernel", "weak", "--c", "1e6")
    assert code == 0
    doc = json.loads((tmp_path / "roots.json").read_text())
    assert doc["class"] == "focus"


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(tmp_path, "iterate", "--json", str(bad))
    assert code == 2
    assert (tmp_path / "iterate.manifest.json").exists()  # manifest even on failure


def test_model_json_missing_field_exits_2(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"growth": {"kind": "food-limited"},
                                 "kernel": {"kind": "dirac-spatial"}, "c": 2.5}))
    assert run(tmp_path, "iterate", "--json", str(model)) == 2
    assert "'gamma'" in capsys.readouterr().err
    assert (tmp_path / "iterate.manifest.json").exists()


def test_kernel_table_mistyped_field_exits_2(tmp_path, capsys):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"s": [0.0, 1.0], "density": "flat"}))
    assert run(tmp_path, "iterate", "--kernel", f"table:{table}") == 2
    assert "'density'" in capsys.readouterr().err
    assert (tmp_path / "iterate.manifest.json").exists()


def test_config_json_missing_field_exits_2(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"b": 1.0}))
    assert run(tmp_path, "iterate", "--model", "kpp", "--config", str(config)) == 2
    assert "'grid'" in capsys.readouterr().err
    assert (tmp_path / "iterate.manifest.json").exists()


def test_heteroclinic_outputs(tmp_path):
    code = run(tmp_path, "heteroclinic", "--gamma", "40", "--tau", "10")
    assert code == 0
    doc = json.loads((tmp_path / "phi.json").read_text())
    assert doc["shape"] == "non-monotone-non-oscillating"
    assert doc["phi_max"] > 1.0
    svg = (tmp_path / "phi.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert (tmp_path / "psi.csv").exists()


@pytest.mark.parametrize("command", ["heteroclinic", "weak-profile"])
def test_psi_csv_shares_the_phi_grid_under_its_own_header(tmp_path, command):
    argv = ["--gamma", "40", "--tau", "10"] + (["--eps", "0.02"] if command == "weak-profile" else [])
    assert run(tmp_path, command, *argv) == 0
    phi = (tmp_path / "phi.csv").read_text().splitlines()
    psi = (tmp_path / "psi.csv").read_text().splitlines()
    assert psi[0] == "t,psi"
    assert len(psi) == len(phi) > 1000
    assert [r.split(",")[0] for r in psi[1:]] == [r.split(",")[0] for r in phi[1:]]
    vals = [float(r.split(",")[1]) for r in psi[1:]]
    assert vals[0] < 1e-5 and vals[-1] == pytest.approx(1.0, abs=1e-5)
    assert "psi.csv" in json.loads((tmp_path / f"{command}.manifest.json").read_text())["outputs"]


def test_limit_profile_outputs(tmp_path):
    code = run(tmp_path, "limit-profile", "--gamma", "9", "--tau", "3")
    assert code == 0
    doc = json.loads((tmp_path / "phi.json").read_text())
    assert doc["shape"] == "non-monotone-non-oscillating"
    header = (tmp_path / "phi.csv").read_text().splitlines()[0]
    assert header == "t,phi"


def test_overshoot_and_test_function(tmp_path):
    assert run(tmp_path, "overshoot", "--gamma", "9", "--tau", "3") == 0
    doc = json.loads((tmp_path / "overshoot.json").read_text())
    assert doc["value"] > 1.0
    assert run(tmp_path, "test-function", "--gamma", "40", "--tau", "10",
               "--a", "0.12") == 0
    doc = json.loads((tmp_path / "test-function.json").read_text())
    assert doc["holds"] is True


def test_overshoot_gamma_zero_exit_code(tmp_path):
    code = run(tmp_path, "overshoot", "--gamma", "0", "--tau", "1")
    assert code == 2


def test_iterate_preset_kpp(tmp_path):
    code = run(tmp_path, "iterate", "--model", "kpp", "--c", "2.5",
               "--dt", "0.02")
    assert code == 0
    doc = json.loads((tmp_path / "front.json").read_text())
    assert doc["converged"] is True
    assert doc["residual"] < 1e-4
    assert doc["bound"]["U"] == 1.0


def test_iterate_subcritical_exits_2(tmp_path):
    code = run(tmp_path, "iterate", "--model", "kpp", "--c", "1.0")
    assert code == 2


def test_iterate_with_config_json(tmp_path):
    from kolwave.models import GrowthModel, Kernel, WaveParams
    from kolwave.semiwavefront import config_to_json, default_config

    params = WaveParams(GrowthModel.kpp(), Kernel.dirac(), 2.5)
    config = default_config(params, dt=0.05, tol=1e-8)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_json(config)))
    code = run(tmp_path, "iterate", "--model", "kpp", "--c", "2.5",
               "--config", str(cfg_path))
    assert code == 0
    doc = json.loads((tmp_path / "front.json").read_text())
    assert doc["converged"] is True
    assert doc["b"] == pytest.approx(config.b)


def test_check_asymptotics(tmp_path):
    code = run(tmp_path, "check-asymptotics", "--model", "kpp", "--c", "2.5",
               "--dt", "0.02")
    assert code == 0
    doc = json.loads((tmp_path / "asymptotics.json").read_text())
    assert doc["rel_err_minus"] < 0.05
    assert doc["rel_err_plus"] < 0.10


def test_check_asymptotics_records_its_iteration(tmp_path):
    argv = ("--model", "food", "--gamma", "2", "--kernel", "dirac", "--c", "2.5",
            "--dt", "0.05")
    assert run(tmp_path / "ca", "check-asymptotics", *argv) == 0
    assert run(tmp_path / "it", "iterate", *argv) == 0
    doc = json.loads((tmp_path / "ca" / "asymptotics.json").read_text())
    front = json.loads((tmp_path / "it" / "front.json").read_text())
    for key in ("iterations", "converged", "b"):
        assert doc[key] == front[key]
    assert doc["converged"] is True and doc["iterations"] >= 1


def test_region_overshoot_curve(tmp_path):
    code = run(tmp_path, "region", "overshoot", "--gamma", "6:10:2")
    assert code == 0
    lines = (tmp_path / "region-overshoot.csv").read_text().splitlines()
    assert lines[0] == "gamma,tau_lower,tau_upper"
    assert len(lines) == 4


def test_region_overshoot_leaves_a_gap_where_the_bound_rejects_gamma(tmp_path):
    # the bound needs gamma > 0: gamma = 0 is a NaN gap, as a failed point
    # of the tau-sharp and tau-star sweeps is
    assert run(tmp_path / "a", "region", "overshoot", "--gamma", "0:2:1") == 0
    assert run(tmp_path / "b", "region", "overshoot", "--gamma", "1:2:1") == 0
    head, gap, *rows = (tmp_path / "a" / "region-overshoot.csv").read_text().splitlines()
    assert head == "gamma,tau_lower,tau_upper"
    assert gap == "0,nan,0.36787944117144233"
    assert rows == (tmp_path / "b" / "region-overshoot.csv").read_text().splitlines()[1:]


def test_iterate_with_kernel_table_file(tmp_path):
    import numpy as np

    s = np.linspace(-0.5, 2.1, 131)
    dens = np.exp(-((s - 0.8) ** 2) / 0.18)
    table = tmp_path / "kernel.json"
    table.write_text(json.dumps({"s": list(s), "density": list(dens)}))
    code = run(tmp_path, "iterate", "--model", "food", "--gamma", "1",
               "--kernel", f"table:{table}", "--c", "2.5")
    assert code == 0
    doc = json.loads((tmp_path / "front.json").read_text())
    assert doc["converged"] is True


def test_region_tau_star_with_jobs(tmp_path):
    code = run(tmp_path, "region", "tau-star", "--gamma", "30:40:10",
               "--tol", "0.1", "--jobs", "2")
    assert code == 0
    rows = (tmp_path / "region-tau-star.csv").read_text().splitlines()
    assert rows[0] == "gamma,tau_sharp,tau_star,tau_upper"
    star = [float(r.split(",")[2]) for r in rows[1:]]
    upper = [float(r.split(",")[3]) for r in rows[1:]]
    assert all(s < u for s, u in zip(star, upper))


def test_region_tau_star_ignores_the_bisection_tol(tmp_path):
    csvs = []
    for tol in ("0.05", "0.5"):
        assert run(tmp_path / tol, "region", "tau-star", "--gamma", "8:40:8", "--tol", tol) == 0
        csvs.append((tmp_path / tol / "region-tau-star.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("kind", ["tau-sharp", "tau-star"])
def test_region_threads_repeat_the_serial_csv_byte_for_byte(tmp_path, kind):
    csvs = []
    for jobs in ("1", "2"):
        assert run(tmp_path / jobs, "region", kind, "--gamma", "30:40:10", "--tol", "0.1",
                   "--jobs", jobs) == 0
        csvs.append((tmp_path / jobs / f"region-{kind}.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_region_sweep_starts_no_thread_whatever_jobs_says(tmp_path, monkeypatch):
    started = []
    start = threading.Thread.start

    def counting_start(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    assert run(tmp_path, "region", "tau-star", "--gamma", "8:9:1", "--jobs", "1000000") == 0
    assert started == []
    assert len((tmp_path / "region-tau-star.csv").read_text().splitlines()) == 3


def test_region_range_past_the_point_cap_exits_2_before_allocating(tmp_path):
    tracemalloc.start()
    try:
        code = run(tmp_path, "region", "overshoot", "--gamma", "1:1e12:1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 10 ** 7
    assert not (tmp_path / "region-overshoot.csv").exists()
    # 10^7 + 1 points: one past the cap
    with pytest.raises(PreconditionError):
        cli._parse_range("0:1e7:1")

@pytest.mark.parametrize("kind", ["tau-star", "overshoot"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_region_rejects_fewer_than_one_job(tmp_path, kind, jobs):
    code = run(tmp_path, "region", kind, "--gamma", "9:9:1", "--jobs", jobs)
    assert code == 2
    assert not (tmp_path / f"region-{kind}.csv").exists()


def test_jobs_flag_belongs_to_region_only(tmp_path):
    code = run(tmp_path, "roots", "--gamma", "9", "--tau", "3", "--jobs", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("roots", "--gamma", "9", "--tau", "3"),
    ("overshoot", "--gamma", "9", "--tau", "1"),
    ("test-function", "--gamma", "9", "--tau", "1", "--a", "0.5"),
], ids=lambda argv: argv[0])
def test_tol_flag_belongs_to_commands_that_read_it(tmp_path, argv):
    # these three evaluate closed forms or root polynomials with no tolerance
    assert run(tmp_path, *argv) == 0
    assert run(tmp_path, *argv, "--tol", "1e-3") == 2


@pytest.mark.parametrize("argv", [
    ("iterate", "--preset", "kpp", "--c", "2.5"),
    ("heteroclinic", "--gamma", "40", "--tau", "10", "--eps", "0.01"),
    ("limit-profile", "--gamma", "9", "--tau", "3", "--eps", "0.01"),
], ids=lambda argv: argv[0])
def test_flags_that_duplicated_another_command_are_gone(tmp_path, argv):
    # --model kpp, weak-profile and finite-profile run these jobs
    assert run(tmp_path, *argv) == 2


@pytest.mark.parametrize("argv", [
    ("iterate", "--model", "food", "--gamma", "nan", "--c", "2.5"),
    ("iterate", "--c", "nan"),
    ("region", "overshoot", "--gamma", "nan:1:1"),
    ("region", "overshoot", "--gamma", "1:inf:1"),
    ("region", "overshoot", "--gamma", "0:1e300:1e-300"),
    ("overshoot", "--gamma", "nan", "--tau", "1"),
    ("roots", "--gamma", "nan", "--tau", "1"),
    ("iterate", "--json", "MODEL"),
], ids=" ".join)
def test_non_finite_input_exits_2(tmp_path, argv):
    model = tmp_path / "model.json"
    model.write_text('{"growth": {"kind": "kpp"}, "kernel": {"kind": "dirac-spatial"}, '
                     '"c": NaN}')
    argv = [str(model) if a == "MODEL" else a for a in argv]
    assert run(tmp_path / "out", *argv) == 2


@pytest.mark.parametrize("argv", [
    ("limit-profile", "--gamma", "9", "--tau", "3", "--span", "0"),
    ("finite-profile", "--gamma", "9", "--tau", "3", "--eps", "0.01", "--span", "-5"),
    ("roots", "--gamma", "9", "--tau", "3", "--c", "0", "--kernel", "discrete"),
    ("roots", "--gamma", "9", "--tau", "3", "--c", "0", "--kernel", "weak"),
    ("roots", "--gamma", "9", "--tau", "3", "--c", "-3", "--kernel", "discrete"),
    ("roots", "--gamma", "2", "--tau", "0.5", "--c", "1e-200", "--kernel", "discrete"),
    ("roots", "--gamma", "2", "--tau", "0.5", "--c", "1e-200", "--kernel", "weak"),
    ("test-function", "--gamma", "2", "--tau", "0", "--a", "0.1"),
    ("test-function", "--gamma", "2", "--tau", "-1", "--a", "0.1"),
    ("overshoot", "--gamma", "9", "--tau", "710"),
], ids=" ".join)
def test_input_outside_the_domain_exits_2(tmp_path, argv):
    assert run(tmp_path, *argv) == 2


@pytest.mark.parametrize("gamma", ["2000", "100000"])
def test_region_overshoot_at_large_gamma_clips_its_window(tmp_path, gamma):
    assert run(tmp_path, "region", "overshoot", "--gamma", f"{gamma}:{gamma}:1") == 0
    header, row = (tmp_path / "region-overshoot.csv").read_text().splitlines()
    cols = dict(zip(header.split(","), map(float, row.split(","))))
    assert math.isfinite(cols["tau_lower"])
    assert cols["tau_lower"] < cols["tau_upper"]


@pytest.mark.parametrize("kind", ["tau-star", "tau-sharp", "overshoot"])
@pytest.mark.parametrize("tol", ["0", "-1"])
def test_region_rejects_a_tolerance_that_is_not_positive(tmp_path, kind, tol):
    # checked before the sweep, which turns each point's error into a NaN row
    assert run(tmp_path, "region", kind, "--gamma", "9:9:1", "--tol", tol) == 2
    assert not (tmp_path / f"region-{kind}.csv").exists()


def test_iterate_rejects_a_grid_past_the_node_cap(tmp_path):
    assert run(tmp_path / "dt", "iterate", "--model", "kpp", "--dt", "1e-12") == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"b": 2.0, "beta": 3.0,
                                  "grid": {"t0": -10.0, "dt": 1e-12, "n": 10 ** 13}}))
    assert run(tmp_path / "json", "iterate", "--model", "kpp", "--config", str(config)) == 2


@pytest.mark.parametrize("argv", [
    "iterate --model kpp --kernel discrete --c 4990 --tau 0.5",
    "check-asymptotics --model food --gamma 0.0067 --kernel dirac --c 4255",
])
def test_front_past_the_work_budget_exits_2_at_once(tmp_path, capsys, argv):
    t0 = time.perf_counter()
    assert run(tmp_path, *argv.split()) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "budget" in err and "c=" in err and "n=" in err


@pytest.mark.parametrize("argv", [
    "heteroclinic --gamma 1e300 --tau 75050",
    "heteroclinic --gamma 1e308 --tau 1",
    "heteroclinic --gamma 7970 --tau 1.37e-8",
    "heteroclinic --gamma 3.46e7 --tau 0.0845",
])
def test_stiff_planar_connection_exits_2_at_once(tmp_path, capsys, argv):
    # w_fast/w_slow at (1, 1) is 4e8 and more: the stepper would spend its
    # whole step budget before exiting 3
    t0 = time.perf_counter()
    assert run(tmp_path, *argv.split()) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "stiffness ratio" in capsys.readouterr().err
    assert _manifest(tmp_path, "heteroclinic")["error"] == "UnsupportedError"


def test_planar_connection_just_past_the_step_budget_exits_2_at_once(tmp_path, capsys):
    # w_fast/w_slow at (1, 1) is 2.5e5: the stepper spent its whole step
    # budget (about 18 s) here before exiting 3
    t0 = time.perf_counter()
    assert run(tmp_path, "heteroclinic", "--gamma", "10", "--tau", "4.4e-5") == 2
    assert time.perf_counter() - t0 < 2.0
    assert "stiffness ratio" in capsys.readouterr().err
    assert _manifest(tmp_path, "heteroclinic")["error"] == "UnsupportedError"


def test_mildly_stiff_planar_connection_still_runs(tmp_path):
    assert run(tmp_path, "heteroclinic", "--gamma", "10", "--tau", "1e-2") == 0
    assert _manifest(tmp_path, "heteroclinic")["error"] is None


@pytest.mark.parametrize("tau, code, says", [("12", 0, "converged="), ("16", 2, "z1*h"),
                                             ("1e300", 3, "moment")])
def test_iterate_with_a_long_discrete_delay_ends_without_nan(tmp_path, capsys, tau, code, says):
    # the bound grows like e^(lam c tau), and the shift b with it
    assert run(tmp_path, "iterate", "--model", "kpp", "--kernel", "discrete", "--c", "2.5",
               "--tau", tau) == code
    out, err = capsys.readouterr()
    assert says in out + err
    assert "nan" not in (out + err).lower() and "Traceback" not in err
    for path in tmp_path.iterdir():
        assert "nan" not in path.read_text().lower(), path.name


def test_delay_run_whose_state_overflows_exits_3(tmp_path, capsys):
    # the stage states overflow to inf long before the span ends; under the
    # test suite's RuntimeWarning-as-error this also checks that no numpy
    # overflow warning escapes first
    assert run(tmp_path, "limit-profile", "--gamma", "9.0e-6", "--tau", "1e300",
               "--span", "1e300") == 3
    assert "non-finite" in capsys.readouterr().err
    assert _manifest(tmp_path, "limit-profile")["error"] == "FieldEvaluationError"


def test_outputs_are_byte_reproducible(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    for d in (d1, d2):
        assert main(["limit-profile", "--gamma", "9", "--tau", "3",
                     "--out", str(d)]) == 0
        assert main(["roots", "--gamma", "9", "--tau", "3", "--kernel",
                     "discrete", "--out", str(d)]) == 0
    for name in ("phi.csv", "phi.json", "phi.svg", "roots.csv", "roots.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_weak_and_finite_profile_commands(tmp_path):
    d1 = tmp_path / "w"
    assert main(["weak-profile", "--gamma", "40", "--tau", "10", "--eps", "0.02",
                 "--out", str(d1)]) == 0
    doc = json.loads((d1 / "phi.json").read_text())
    assert doc["shape"] == "non-monotone-non-oscillating"
    d2 = tmp_path / "f"
    assert main(["finite-profile", "--gamma", "9", "--tau", "3", "--eps", "0.02",
                 "--out", str(d2)]) == 0
    doc = json.loads((d2 / "phi.json").read_text())
    assert doc["sup"] > 1.0


def _manifest(tmp_path, command):
    return json.loads((tmp_path / f"{command}.manifest.json").read_text())


def test_manifest_records_python_and_numpy_versions(tmp_path):
    import platform

    import numpy as np

    assert run(tmp_path, "overshoot", "--gamma", "2", "--tau", "1") == 0
    versions = _manifest(tmp_path, "overshoot")["versions"]
    assert versions["python"] == platform.python_version()
    assert versions["numpy"] == np.__version__


def test_manifest_params_leave_out_the_output_path(tmp_path):
    assert run(tmp_path, "overshoot", "--gamma", "2", "--tau", "1") == 0
    params = _manifest(tmp_path, "overshoot")["params"]
    assert "out" not in params
    assert params["gamma"] == 2.0
    assert str(tmp_path) not in (tmp_path / "overshoot.manifest.json").read_text()


def test_manifest_records_the_error_class(tmp_path):
    assert run(tmp_path / "ok", "overshoot", "--gamma", "2", "--tau", "1") == 0
    assert _manifest(tmp_path / "ok", "overshoot")["error"] is None
    assert run(tmp_path / "two", "overshoot", "--gamma", "0", "--tau", "1") == 2
    assert _manifest(tmp_path / "two", "overshoot")["error"] == "UnsupportedError"

    from kolwave.models import GrowthModel, Kernel, WaveParams
    from kolwave.semiwavefront import config_to_json, default_config

    config = default_config(WaveParams(GrowthModel.kpp(), Kernel.dirac(), 2.5), dt=0.05)
    doc = config_to_json(config)
    doc["b"] = 1e-3  # too weak a shift: the first sweep leaves the sandwich
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    three = tmp_path / "three"
    assert run(three, "iterate", "--model", "kpp", "--c", "2.5", "--config", str(cfg_path)) == 3
    assert _manifest(three, "iterate")["error"] == "InvarianceBreachError"


@pytest.mark.parametrize("field, value", [("max_iters", 0), ("tol", -1.0)])
def test_iteration_config_that_cannot_run_exits_2(tmp_path, capsys, field, value):
    from kolwave.models import GrowthModel, Kernel, WaveParams
    from kolwave.semiwavefront import config_to_json, default_config

    config = default_config(WaveParams(GrowthModel.kpp(), Kernel.dirac(), 2.5), dt=0.05)
    doc = config_to_json(config)
    doc[field] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(out, "iterate", "--model", "kpp", "--c", "2.5", "--config", str(cfg_path)) == 2
    assert _manifest(out, "iterate")["error"] == "PreconditionError"
    assert field in capsys.readouterr().err
    assert not (out / "front.json").exists()


@pytest.mark.parametrize("out", ["existing-file", "existing-file/sub"])
def test_out_that_cannot_be_created_exits_2(tmp_path, capsys, out):
    (tmp_path / "existing-file").write_text("")
    assert main(["overshoot", "--gamma", "2", "--tau", "0.5", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create --out") and "Traceback" not in err
    assert (tmp_path / "existing-file").read_text() == ""


SAMPLE_ARGV = {
    "roots": ["--gamma", "9", "--tau", "3", "--kernel", "weak", "--c", "4"],
    "heteroclinic": ["--gamma", "40", "--tau", "10", "--amplitude", "1e-5"],
    "weak-profile": ["--gamma", "40", "--tau", "10", "--eps", "0.02", "--tol", "1e-8"],
    "limit-profile": ["--gamma", "9", "--tau", "3", "--span", "100"],
    "finite-profile": ["--gamma", "9", "--tau", "3", "--eps", "0.02"],
    "overshoot": ["--gamma", "9", "--tau", "3", "--out", "x"],
    "test-function": ["--gamma", "40", "--tau", "10", "--a", "0.12"],
    "region": ["tau-star", "--gamma", "8:9:0.5", "--jobs", "2"],
    "iterate": ["--model", "kpp", "--kernel", "table:k.json", "--c", "2.7", "--dt", "0.01"],
    "check-asymptotics": ["--json", "m.json", "--config", "c.json"],
}


@pytest.mark.parametrize("command", list(SAMPLE_ARGV))
def test_one_command_parser_parses_as_the_full_parser(command):
    argv = [command, *SAMPLE_ARGV[command]]
    full = cli.build_parser()
    assert cli.build_parser(command).parse_args(argv) == full.parse_args(argv)
    assert cli.build_parser(command).format_usage() == full.format_usage()


def test_help_lists_every_command_and_an_unknown_one_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    listed = capsys.readouterr().out
    assert list(SAMPLE_ARGV) == list(cli._COMMANDS)
    assert all(f"    {name}" in listed for name in SAMPLE_ARGV)
    assert main(["--help"]) == 0
    assert main(["bogus", "--gamma", "1"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_a_rebound_command_function_is_the_one_that_runs(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "cmd_roots", lambda args, out, manifest: ran.append(args.gamma) or 0)
    assert run(tmp_path, "roots", "--gamma", "9", "--tau", "3") == 0
    assert ran == [9.0]
    assert not (tmp_path / "roots.json").exists()


@pytest.mark.parametrize("argv", [
    "heteroclinic --gamma 3 --tau 1e-170",
    "weak-profile --gamma 3 --tau 1e-170 --eps 0.01",
    "roots --kernel weak --gamma 1 --tau 1e-300 --c 2",
])
def test_weak_kernel_delay_whose_square_underflows_ends_without_a_crash(tmp_path, capsys, argv):
    # tau^2 is 0.0 here: the rates at (1, 1) come from a form without 1/tau^2
    assert run(tmp_path, *argv.split()) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, error", [
    ("check-asymptotics --model kpp --kernel discrete --tau 1e300 --c 2", 3, "MomentError"),
    ("iterate --model kpp --kernel discrete --tau 1e300 --c 1e10", 2, "PreconditionError"),
])
def test_point_mass_past_the_float_range_is_a_typed_error(tmp_path, argv, code, error):
    # c*tau = 2e300 overflows the moment (c*tau)^3; c*tau = 1e310 is not a float
    command = argv.split()[0]
    assert run(tmp_path, *argv.split()) == code
    assert _manifest(tmp_path, command)["error"] == error


def test_kernel_mass_far_left_of_every_window_exits_3(tmp_path, capsys):
    # all of N_c lies on [-20050, -20000], beyond the look-back windows of the bound
    x = np.linspace(0.0, 1.0, 51)
    table = tmp_path / "far.json"
    table.write_text(json.dumps({"s": list(-20050.0 + 50.0 * x), "density": list(x * (1.0 - x))}))
    assert run(tmp_path / "out", "iterate", "--model", "kpp", "--c", "2.5",
               "--kernel", f"table:{table}") == 3
    assert "finite window" in capsys.readouterr().err
    assert _manifest(tmp_path / "out", "iterate")["error"] == "MomentError"


@pytest.mark.parametrize("argv", [
    "roots --kernel weak --gamma 1 --tau 1e-320 --c 2",
    "roots --kernel weak --gamma 1 --tau 1 --c 1e-154",
    "roots --kernel weak --gamma 1 --tau 1e-300 --c 1e-150",
])
def test_weak_quartic_whose_fast_roots_are_not_floats_exits_2(tmp_path, argv):
    # the fast rate is about 1/tau and the fast roots about sqrt(w/eps), eps = c^-2:
    # past the float range they would be written as NaN
    assert run(tmp_path, *argv.split()) == 2
    assert _manifest(tmp_path, "roots")["error"] == "PreconditionError"
    assert not (tmp_path / "roots.json").exists()
