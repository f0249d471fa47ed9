import contextlib
import io
import math
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import closed_form_period
from suslov import cli
from suslov.cli import MAX_OUTPUT_INTERVALS, ConfigError, load_config, main
from suslov.cases import build_field
from suslov.integrate import IntegratorStats, integrate

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
GAMMA3 = f"0.3 0.2 {float(np.sqrt(1.0 - 0.13))!r}"


def kharlamova_cfg(output_dir, t_end=60.0):
    return f"""
# linear-potential scenario, n = 3
n = 3
case.kind = KharlamovaND
case.inertia = 1.0 2.0 1.5
case.b = 2.0 1.0 0.0
initial.omega_1_3 = 0.4
initial.omega_2_3 = 0.3
initial.gamma = 0.2 -0.1 {float(np.sqrt(1.0 - 0.05))!r}
integrator.method = rk45
integrator.rel_tol = 1e-10
integrator.abs_tol = 1e-12
run.t_end = {t_end}
run.output_dt = 0.1
run.analyses = verify_integrals measure_check
run.output_dir = {output_dir}
"""


def clebsch_cfg(output_dir, t_end=120.0):
    return f"""
n = 3
case.kind = ClebschTisserandND
case.inertia = 1.0 2.0 3.0
case.b = 5.0 4.0 3.0
initial.omega_1_3 = 0.3
initial.omega_2_3 = 0.2
initial.gamma = {GAMMA3}
integrator.rel_tol = 1e-11
integrator.abs_tol = 1e-13
run.t_end = {t_end}
run.output_dt = 0.02
run.output_dir = {output_dir}
"""


def asymptotic_cfg(output_dir, t_end=150.0):
    # constraint axis (1,1,1); vector velocity (0.6, -0.1, -0.5) is admissible
    return f"""
n = 3
case.kind = SuslovFree
case.inertia = 1.0 2.0 3.0
case.constraint_axis = 1.0 1.0 1.0
initial.omega_1_2 = 0.5
initial.omega_1_3 = -0.1
initial.omega_2_3 = -0.6
initial.gamma = 0.0 0.6 0.8
run.t_end = {t_end}
run.output_dt = 0.1
run.output_dir = {output_dir}
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def report_dict(path):
    out = {}
    section = ""
    for line in open(path):
        line = line.strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]")
        else:
            key, value = line.split(" = ", 1)
            out[f"{section}.{key}"] = value
    return out


STATS_KEYS = ("accepted", "rejected", "rhs_evals", "h_min", "h_max", "h_last")


def report_stats(rep, section):
    """The step counters of ``section`` of a report, as ``IntegratorStats``;
    the report's 17 digits give each float back exactly."""
    return IntegratorStats(*(
        (int if key in STATS_KEYS[:3] else float)(rep[f"{section}.{key}"])
        for key in STATS_KEYS
    ))


def with_values(text, values):
    """Scenario text with the line of each key in ``values`` replaced by
    ``key = value``; a value of None drops the key."""
    lines = [line for line in text.splitlines()
             if line.split("=", 1)[0].strip() not in values]
    lines += [f"{key} = {value}" for key, value in values.items()
              if value is not None]
    return "\n".join(lines) + "\n"


class TestDgjFunctions:
    """The fixtures take ``math`` on Python floats (a field's point path)
    and numpy on arrays (its block path, which DOP853's dense-output stages
    use); each gives the same bits both ways."""

    @staticmethod
    def columns(out, size):
        parts = out if isinstance(out, tuple) else (out,)
        return np.array([np.broadcast_to(p, size) for p in parts], dtype=float)

    def test_floats_have_the_bits_of_arrays(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.uniform(-1.0, 1.0, 20_000),
                            rng.uniform(-40.0, 40.0, 10_000)])
        y = rng.uniform(0.0, 2.0, x.size)
        for name, fns in cli.DGJ_FUNCTIONS.items():
            for fn in fns:
                block = self.columns(fn(x, y), x.size)
                points = np.array([self.columns(fn(a, b), 1)[:, 0]
                                   for a, b in zip(x.tolist(), y.tolist())]).T
                assert np.array_equal(block.view(np.uint64), points.view(np.uint64)), name

    def test_dgj_field_blocks_have_the_bits_of_list_calls(self, tmp_path):
        text = (SCENARIO_DIR / "dgj_3d.cfg").read_text()
        for v1, v2 in (("sin", "quadratic"), ("cos", "sin")):
            path = tmp_path / f"{v1}_{v2}.cfg"
            path.write_text(with_values(text, {"case.v1": v1, "case.v2": v2}))
            config = load_config(path)
            field, _ = build_field(config.case_spec)
            ys = np.random.default_rng(9).normal(size=(20_000, 6))
            ys[:, 3:] /= np.linalg.norm(ys[:, 3:], axis=1)[:, None]
            block = field(ys)
            rows = np.array([field(y) for y in ys.tolist()])
            assert np.array_equal(block.view(np.uint64), rows.view(np.uint64))


class TestConfigParsing:
    def test_missing_mass_tensor(self, tmp_path):
        text = kharlamova_cfg(tmp_path).replace("case.inertia = 1.0 2.0 1.5\n", "")
        path = write(tmp_path, "bad.cfg", text)
        with pytest.raises(ConfigError, match="case.inertia"):
            load_config(path)

    def test_malformed_line_has_line_number(self, tmp_path):
        text = kharlamova_cfg(tmp_path) + "\nnot a key value pair\n"
        path = write(tmp_path, "bad.cfg", text)
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        text = kharlamova_cfg(tmp_path) + "\ncase.unknown_thing = 3\n"
        path = write(tmp_path, "bad.cfg", text)
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_unknown_kind_lists_options(self, tmp_path):
        text = kharlamova_cfg(tmp_path).replace("KharlamovaND", "Nonsense")
        path = write(tmp_path, "bad.cfg", text)
        with pytest.raises(ConfigError, match="one of"):
            load_config(path)

    def test_gamma_normalized_or_rejected(self, tmp_path):
        text = kharlamova_cfg(tmp_path).replace(
            f"0.2 -0.1 {float(np.sqrt(1.0 - 0.05))!r}", "0.4 0.3 1.2"
        )
        path = write(tmp_path, "bad.cfg", text)
        with pytest.raises(ConfigError, match="norm"):
            load_config(path)
        # tiny mismatch is silently normalized
        gamma = np.array([0.2, -0.1, np.sqrt(1.0 - 0.05)]) * (1.0 + 5e-7)
        text = kharlamova_cfg(tmp_path).replace(
            f"0.2 -0.1 {float(np.sqrt(1.0 - 0.05))!r}",
            " ".join(repr(float(g)) for g in gamma),
        )
        cfg = load_config(write(tmp_path, "ok.cfg", text))
        assert np.linalg.norm(cfg.initial_state.gamma) == pytest.approx(1.0, abs=1e-15)

    def test_block_entries_rejected_for_canonical_cases(self, tmp_path):
        text = kharlamova_cfg(tmp_path) + "\ninitial.omega_1_2 = 0.5\n"
        path = write(tmp_path, "bad.cfg", text)
        with pytest.raises(ConfigError, match="admissibility"):
            load_config(path)

    def test_case_hypotheses_checked(self, tmp_path):
        text = kharlamova_cfg(tmp_path).replace(
            "case.b = 2.0 1.0 0.0", "case.b = 2.0 1.0 0.7"
        )
        path = write(tmp_path, "bad.cfg", text)
        with pytest.raises(ConfigError, match="B_n"):
            load_config(path)

    @pytest.mark.parametrize("alias", ["initial.omega_01_03",
                                       "initial.omega_\u0661_\u0663"],
                             ids=["leading_zeros", "arabic_indic_digits"])
    def test_two_keys_for_one_omega_entry_exit_2(self, tmp_path, capsys, alias):
        # both keys parse to (1, 3); neither value may win silently
        text = kharlamova_cfg(tmp_path / "out") + f"{alias} = 0.9\n"
        lines = text.splitlines()
        first = lines.index("initial.omega_1_3 = 0.4") + 1
        assert main(["simulate", write(tmp_path, "bad.cfg", text)]) == 2
        err = capsys.readouterr().err
        assert err.count("[error]") == 1 and "[error]\nkind = config\n" in err
        assert (f"lines {first} and {len(lines)}: 'initial.omega_1_3' and "
                f"{alias!r} both set Omega_1_3") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_digit_that_int_cannot_parse_is_a_malformed_key(self, tmp_path):
        # a superscript three passes str.isdigit but not int()
        text = kharlamova_cfg(tmp_path).replace("initial.omega_1_3",
                                                "initial.omega_1_\u00b3")
        with pytest.raises(ConfigError, match="malformed key"):
            load_config(write(tmp_path, "bad.cfg", text))

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.cfg")]) == 2

    def test_config_error_exits_2(self, tmp_path, capsys):
        text = kharlamova_cfg(tmp_path).replace("case.inertia = 1.0 2.0 1.5\n", "")
        path = write(tmp_path, "bad.cfg", text)
        assert main(["simulate", path]) == 2
        err = capsys.readouterr().err
        assert "case.inertia" in err and "[error]" in err


    @pytest.mark.parametrize(
        "edit, flags, message",
        [
            (None, ["--step", "-1"], "step must be positive"),
            (("integrator.rel_tol = 1e-10", "integrator.rel_tol = nan"), [],
             "tolerances must be positive"),
            (("integrator.method = rk45", "integrator.method = foo"), [],
             "unknown method"),
        ],
    )
    def test_bad_integrator_settings_exit_2(self, tmp_path, capsys, edit, flags,
                                            message):
        text = kharlamova_cfg(tmp_path / "out")
        if edit is not None:
            assert edit[0] in text
            text = text.replace(*edit)
        path = write(tmp_path, "bad.cfg", text)
        assert main(["simulate", path, *flags]) == 2
        err = capsys.readouterr().err
        assert "[error]\nkind = config\n" in err and message in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "edit, flags, message",
        [
            (("run.output_dt = 0.1", "run.output_dt = 0"), [], "run.output_dt"),
            (("run.output_dt = 0.1", "run.output_dt = -0.1"), [],
             "run.output_dt"),
            (("run.output_dt = 0.1", "run.output_dt = 80.0"), [],
             "at most run.t_end"),
            (("run.t_end = 60.0", "run.t_end = inf"), [], "run.t_end"),
            (("run.t_end = 60.0", "run.t_end = nan"), [], "run.t_end"),
            (None, ["--t-end", "0"], "--t-end = 0.0 must be positive"),
            (None, ["--t-end", "nan"], "--t-end = nan must be positive"),
            (None, ["--step", "0"], "step must be positive"),
            (("case.inertia = 1.0 2.0 1.5", "case.inertia = 1.0 nan 1.5"), [],
             "case.inertia"),
        ],
    )
    def test_bad_run_settings_exit_2(self, tmp_path, capsys, edit, flags,
                                     message):
        text = kharlamova_cfg(tmp_path / "out")
        if edit is not None:
            assert edit[0] in text
            text = text.replace(*edit)
        path = write(tmp_path, "bad.cfg", text)
        assert main(["simulate", path, *flags]) == 2
        err = capsys.readouterr().err
        assert "[error]\nkind = config\n" in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "values",
        [
            {"initial.gamma": "nan 0 1"},
            {"initial.omega_1_3": "nan"},
            {"initial.omega_1_3": "inf"},
            {"case.b": "nan 1.0 0.0"},
            {"case.b": "inf 1.0 0.0"},
            {"case.kind": "Gyroscopic3D", "case.potential": "quadratic",
             "case.b": "0.5 nan 0.2"},
            {"case.kind": "LagrangeND", "case.inertia": "1.0 1.0 1.5",
             "case.b": None, "case.b_n": "nan"},
            {"case.kind": "LagrangeND", "case.inertia": "1.0 1.0 1.5",
             "case.b": None, "case.b_n": "inf"},
            {"case.kind": "Gyroscopic3D", "case.b": None, "case.gyro_eps": "nan"},
            {"case.kind": "Gyroscopic3D", "case.b": None, "case.gyro_eps": "inf"},
            {"case.kind": "SuslovFree", "case.b": None,
             "case.constraint_axis": "nan 1 1"},
            {"case.kind": "SuslovFree", "case.b": None,
             "case.constraint_axis": "0 0 0"},
        ],
        ids=lambda values: "{}={}".format(*list(values.items())[-1]),
    )
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, values):
        text = with_values(kharlamova_cfg(tmp_path / "out"), values)
        assert main(["simulate", write(tmp_path, "bad.cfg", text)]) == 2
        err = capsys.readouterr().err
        assert "[error]\nkind = config\n" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "values, flags, t_key",
        [
            ({"run.output_dt": "1e-8"}, [], "run.t_end"),
            ({"run.t_end": "100.0", "run.output_dt": "1e-8"}, [], "run.t_end"),
            ({"run.t_end": "125000.125", "run.output_dt": "0.125"}, [],
             "run.t_end"),
            ({}, ["--t-end", "1e6"], "--t-end"),
        ],
        ids=["1e-8", "1e10", "one_above", "t_end_flag"],
    )
    def test_oversized_output_grid_exit_2(self, tmp_path, capsys, values,
                                          flags, t_key):
        # integrate allocates every output row before the first step, so a
        # grid above MAX_OUTPUT_INTERVALS is rejected before anything runs
        text = with_values(kharlamova_cfg(tmp_path / "out"), values)
        assert main(["simulate", write(tmp_path, "big.cfg", text), *flags]) == 2
        err = capsys.readouterr().err
        assert "[error]\nkind = config\n" in err
        assert f"{t_key} = " in err and "run.output_dt = " in err
        assert str(MAX_OUTPUT_INTERVALS) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_output_dt_above_t_end_names_the_flag(self, capsys, tmp_path):
        # the file sets run.t_end = 100.0; the 0.1 came from --t-end
        path = str(SCENARIO_DIR / "dgj_3d.cfg")
        out = tmp_path / "out"
        assert main(["simulate", path, "--t-end", "0.1", "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("[error]\nkind = config\nmessage = run.output_dt = 0.25 must "
                       "be positive and at most --t-end = 0.1\n")
        assert not out.exists()

    def test_output_grid_at_the_bound_loads(self, tmp_path):
        text = with_values(kharlamova_cfg(tmp_path / "out"),
                           {"run.t_end": "125000.0", "run.output_dt": "0.125"})
        cfg = load_config(write(tmp_path, "edge.cfg", text))
        assert cfg.t_end / cfg.output_dt == MAX_OUTPUT_INTERVALS == 10**6

    def test_renormalization_can_be_switched_off(self, tmp_path):
        out = tmp_path / "out"
        text = with_values(clebsch_cfg(out),
                           {"integrator.renormalize_gamma": "off"})
        path = write(tmp_path, "c.cfg", text)
        assert load_config(path).integrator.renormalize_gamma is False
        assert main(["clebsch-tori", path]) == 0
        assert report_dict(out / "report.txt")["clebsch.pass"] == "true"

    def test_renormalization_must_be_a_boolean(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = with_values(clebsch_cfg(out),
                           {"integrator.renormalize_gamma": "maybe"})
        lineno = text.splitlines().index("integrator.renormalize_gamma = maybe")
        assert main(["clebsch-tori", write(tmp_path, "c.cfg", text)]) == 2
        assert capsys.readouterr().err == (
            "[error]\nkind = config\nmessage = line "
            f"{lineno + 1}: integrator.renormalize_gamma = 'maybe' is not a "
            "boolean\n"
        )
        assert not out.exists()


class TestRunAndVerify:
    def test_verify_passes_and_is_deterministic(self, tmp_path):
        out = tmp_path / "out"
        path = write(tmp_path, "k.cfg", kharlamova_cfg(out, t_end=40.0))
        assert main(["verify", path]) == 0
        csv1 = (out / "trajectory.csv").read_bytes()
        rep1 = (out / "report.txt").read_bytes()
        assert main(["verify", path]) == 0
        assert (out / "trajectory.csv").read_bytes() == csv1
        assert (out / "report.txt").read_bytes() == rep1

        rep = report_dict(out / "report.txt")
        assert rep["integrals.pass"] == "true"
        assert float(rep["integrals.max_drift"]) <= 1e-8
        accepted = int(rep["integrator.accepted"])
        attempts = accepted + int(rep["integrator.rejected"])
        assert accepted > 0
        assert int(rep["integrator.rhs_evals"]) == 6 * attempts + 1
        stats = report_stats(rep, "integrator")
        assert 0.0 < stats.h_min <= stats.h_last <= stats.h_max
        assert rep["measure.invariant_measure"] == "yes"
        assert rep["result.pass"] == "true"

    @pytest.mark.parametrize("method, calls", [
        (None, (12, 3)), ("rk45", (6, 0)), ("rk4", (4, 0)),
    ])
    def test_report_names_the_method(self, tmp_path, method, calls):
        # the default is DOP853: 12 calls an attempt, 3 per accepted step
        out = tmp_path / "out"
        text = kharlamova_cfg(out, t_end=5.0).replace(
            "integrator.method = rk45\n",
            "" if method is None else f"integrator.method = {method}\n",
        )
        assert main(["simulate", write(tmp_path, "k.cfg", text)]) == 0
        rep = report_dict(out / "report.txt")
        assert rep["integrator.method"] == (method or "dop853")
        accepted = int(rep["integrator.accepted"])
        attempts = accepted + int(rep["integrator.rejected"])
        per_attempt, per_accepted = calls
        start = 0 if method == "rk4" else 1
        assert int(rep["integrator.rhs_evals"]) == (
            per_attempt * attempts + per_accepted * accepted + start
        )
        stats = report_stats(rep, "integrator")
        assert 0.0 < stats.h_min <= stats.h_last <= stats.h_max

    @staticmethod
    def sloppy_cfg(tmp_path, out):
        text = kharlamova_cfg(out, t_end=40.0).replace(
            "integrator.method = rk45", "integrator.method = rk4"
        )
        text = text.replace("integrator.rel_tol = 1e-10",
                            "integrator.step = 0.4")
        text = text.replace("integrator.abs_tol = 1e-12", "")
        return write(tmp_path, "bad.cfg", text)

    def test_verify_fails_with_sloppy_integrator(self, tmp_path):
        out = tmp_path / "out"
        path = self.sloppy_cfg(tmp_path, out)
        assert main(["verify", path]) == 4
        rep = report_dict(out / "report.txt")
        assert rep["integrals.pass"] == "false"

    def test_verification_failure_names_failing_integrals(self, tmp_path,
                                                          capsys):
        out = tmp_path / "out"
        path = self.sloppy_cfg(tmp_path, out)
        assert main(["verify", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("[error]\nkind = verification\nmessage = ")
        assert "integrals" in err and "measure" not in err
        rep = report_dict(out / "report.txt")
        drifts = {key.removeprefix("integrals.drift."): float(value)
                  for key, value in rep.items()
                  if key.startswith("integrals.drift.")}
        assert any(d > 1e-8 for d in drifts.values())
        for label, drift in drifts.items():
            assert (f" {label} = " in err) == (drift > 1e-8)
        # the record goes to stderr only
        assert "[error]" not in (out / "report.txt").read_text()

    def test_csv_header_and_grid(self, tmp_path):
        out = tmp_path / "out"
        path = write(tmp_path, "k.cfg", kharlamova_cfg(out, t_end=10.0))
        assert main(["simulate", path]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == (
            "t,Omega_1_2,Omega_1_3,Omega_2_3,Gamma_1,Gamma_2,Gamma_3,"
            "E,constraint_residual,gamma_norm_err"
        )
        assert len(lines) == 1 + 101  # t_end / output_dt + initial sample

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUSLOV_OUTPUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        text = kharlamova_cfg("PLACEHOLDER", t_end=5.0).replace(
            "run.output_dir = PLACEHOLDER\n", ""
        )
        path = write(tmp_path, "k.cfg", text)
        assert main(["simulate", path]) == 0
        assert (tmp_path / "envout" / "report.txt").exists()

    def test_t_end_flag_overrides(self, tmp_path):
        out = tmp_path / "out"
        path = write(tmp_path, "k.cfg", kharlamova_cfg(out, t_end=60.0))
        assert main(["simulate", path, "--t-end", "6.0"]) == 0
        rep = report_dict(out / "report.txt")
        assert float(rep["case.t_end"]) == 6.0


class TestAnalyses:
    def test_kharlamova_period_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        path = write(tmp_path, "k.cfg", kharlamova_cfg(out))
        assert main(["kharlamova-period", path]) == 0
        rep = report_dict(out / "report.txt")
        assert rep["kharlamova.asymptotic"] == "false"
        t_quad = float(rep["kharlamova.T_quadrature"])
        t_meas = float(rep["kharlamova.T_measured"])
        assert abs(t_meas - t_quad) <= 1e-6 * t_quad

    @pytest.mark.parametrize("t_end, values, runs", [
        (None, {}, 1),
        ("20", {}, 2),
        (None, {"integrator.method": "rk4"}, 2),
        (None, {"run.output_dt": "4.0"}, 1),
    ], ids=["main_run", "short", "rk4", "coarse_output_dt"])
    def test_kharlamova_period_integrates_again_only_when_needed(
        self, tmp_path, monkeypatch, t_end, values, runs
    ):
        # T = 8.67 here: t_end = 60 spans 5.4 T, so the period is read from
        # the main run's steps, whatever its output grid (samples 4.0 apart
        # too); at 20 or under rk4 (no steps) the analysis integrates over
        # 5.4 T and reports that run's counters in its own section
        trajs = []

        def counted(*args, **kwargs):
            trajs.append(integrate(*args, **kwargs))
            return trajs[-1]

        monkeypatch.setattr(cli, "integrate", counted)
        out = tmp_path / "out"
        path = write(tmp_path, "k.cfg", with_values(kharlamova_cfg(out), values))
        extra = [] if t_end is None else ["--t-end", t_end]
        assert main(["kharlamova-period", path, *extra]) == 0
        assert len(trajs) == runs
        rep = report_dict(out / "report.txt")
        t_quad = float(rep["kharlamova.T_quadrature"])
        assert abs(float(rep["kharlamova.T_measured"]) - t_quad) <= 1e-6 * t_quad
        for section, traj in zip(("integrator", "kharlamova"), trajs):
            assert report_stats(rep, section) == traj.stats
        if runs == 1:
            assert not [key for key in rep if key.startswith("kharlamova.")
                        and key.split(".")[1] in STATS_KEYS]

    @pytest.mark.parametrize("scenario, command, extra", [
        ("kharlamova_period_n3", "simulate", []),
        ("lagrange_verify_n4", "simulate", []),
        ("kharlamova_period_n3", "kharlamova-period", ["--t-end", "20"]),
    ], ids=["period_n3", "lagrange_n4", "period_n3_integrated_again"])
    def test_the_report_counts_every_field_call(
        self, tmp_path, monkeypatch, scenario, command, extra
    ):
        # a list is one point and an (m, d) block m points; with --t-end 20
        # the Kharlamova analysis integrates again and counts that run
        points = [0]

        def counting_build_field(spec):
            field, constraints = build_field(spec)

            def counted(y):
                points[0] += 1 if np.ndim(y) == 1 else len(y)
                return field(y)

            return counted, constraints

        monkeypatch.setattr(cli, "build_field", counting_build_field)
        out = tmp_path / "out"
        argv = [command, str(SCENARIO_DIR / f"{scenario}.cfg"),
                "--output-dir", str(out), *extra]
        assert main(argv) == 0
        rep = report_dict(out / "report.txt")
        counted = [int(rep[f"{section}.rhs_evals"])
                   for section in ("integrator", "kharlamova")
                   if f"{section}.rhs_evals" in rep]
        assert len(counted) == (2 if extra else 1)
        assert points[0] == sum(counted) > 0

    @pytest.mark.parametrize("method, output_dt", [
        ("rk4", "0.1"), ("rk45", "60.0"), ("dop853", "4.0"), ("dop853", "9.0"),
    ])
    def test_kharlamova_period_whatever_the_main_run_samples(
        self, tmp_path, method, output_dt
    ):
        # one sample a run, two a period and fewer than one a period
        # (T = 8.67): the adaptive runs are read on their own steps and the
        # rk4 run integrates again on the T/600 grid, each to 1e-9
        out = tmp_path / "out"
        text = with_values(kharlamova_cfg(out), {"integrator.method": method,
                                                 "run.output_dt": output_dt})
        assert main(["kharlamova-period", write(tmp_path, "k.cfg", text)]) == 0
        rep = report_dict(out / "report.txt")
        assert rep["kharlamova.pass"] == "true"
        assert float(rep["kharlamova.rel_diff"]) <= 1e-9

    def test_period_analysis_on_a_grid_that_aliases_the_period(self, tmp_path):
        # kharlamova_period_n3 sampled once a period over 60 periods: every
        # sample reads the same phase, and the period is read on the steps
        scenario = SCENARIO_DIR / "kharlamova_period_n3.cfg"
        t_quad = closed_form_period(load_config(scenario))
        out = tmp_path / "out"
        text = with_values(scenario.read_text(), {
            "run.t_end": repr(60.0 * t_quad), "run.output_dt": repr(t_quad),
            "run.analyses": "period", "run.output_dir": str(out),
        })
        assert main(["simulate", write(tmp_path, "k.cfg", text)]) == 0
        rep = report_dict(out / "report.txt")
        assert rep["period.period"] != "none"
        assert abs(float(rep["period.period"]) - t_quad) <= 1e-10 * t_quad

    def test_clebsch_tori_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        path = write(tmp_path, "c.cfg", clebsch_cfg(out))
        assert main(["clebsch-tori", path]) == 0
        rep = report_dict(out / "report.txt")
        assert rep["clebsch.classification"] == "two_disjoint_tori"
        assert rep["clebsch.gamma_n_sign_invariant"] == "true"
        assert float(rep["clebsch.frequencies_max_abs_err"]) < 1e-4
        assert rep["clebsch.energy_offset_matches"] == "half_Bn"
        exact = np.array(
            [float(tok) for tok in rep["clebsch.frequencies_exact"].split()]
        )
        assert np.allclose(exact, [math.sqrt(0.5), math.sqrt(0.2)], atol=1e-12)

    def test_clebsch_tori_outside_hypotheses_passes_unmeasured(self, tmp_path):
        out = tmp_path / "out"
        text = with_values(clebsch_cfg(out, t_end=10.0),
                           {"case.b": "3.0 4.0 5.0"})
        assert main(["clebsch-tori", write(tmp_path, "c.cfg", text)]) == 0
        rep = report_dict(out / "report.txt")
        assert rep["clebsch.classification"] == "outside_hypotheses"
        assert rep["clebsch.pass"] == "true"
        assert "clebsch.frequencies_measured" not in rep

    def test_clebsch_tori_on_a_branched_covering_skips_measuring(self,
                                                                 tmp_path):
        out = tmp_path / "out"
        text = with_values(clebsch_cfg(out, t_end=10.0),
                           {"initial.omega_1_3": "1.5",
                            "initial.omega_2_3": "1.2"})
        assert main(["clebsch-tori", write(tmp_path, "c.cfg", text)]) == 0
        rep = report_dict(out / "report.txt")
        assert rep["clebsch.classification"] == "branched_covering"
        assert (rep["clebsch.frequencies_measured"]
                == "skipped_branched_or_degenerate")
        assert rep["clebsch.pass"] == "true"

    def test_asymptotic_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        path = write(tmp_path, "a.cfg", asymptotic_cfg(out))
        assert main(["suslov-asymptotic", path]) == 0
        rep = report_dict(out / "report.txt")
        assert rep["asymptotic.converged"] == "true"
        assert float(rep["asymptotic.final_distance"]) < 1e-6

    def test_asymptotic_needs_axis(self, tmp_path):
        out = tmp_path / "out"
        path = write(tmp_path, "k.cfg", kharlamova_cfg(out, t_end=5.0))
        assert main(["suslov-asymptotic", path]) == 2

    def test_measure_check_flags_missing_measure(self, tmp_path):
        out = tmp_path / "out"
        text = asymptotic_cfg(out, t_end=10.0).replace(
            "run.output_dir", "run.analyses = measure_check\nrun.output_dir"
        )
        path = write(tmp_path, "a.cfg", text)
        assert main(["simulate", path]) == 0
        rep = report_dict(out / "report.txt")
        assert rep["measure.invariant_measure"] == "no"
        assert float(rep["measure.max_abs_divergence"]) > 1e-3
        assert "no invariant measure" in rep["measure.note"]

    def test_measure_check_evaluates_one_block(self, tmp_path, monkeypatch):
        # the 100 samples' central differences go to the field as one block;
        # the divergence is the one the per-point loop gave
        calls = []
        packed = cli.packed_suslov3d_field

        def counted(*args, **kwargs):
            f, dim, basis = packed(*args, **kwargs)

            def field(x):
                calls.append(np.shape(x))
                return f(x)

            return field, dim, basis

        monkeypatch.setattr("suslov.cli.packed_suslov3d_field", counted)
        out = tmp_path / "out"
        text = with_values(asymptotic_cfg(out, t_end=1.0),
                           {"run.analyses": "measure_check"})
        path = write(tmp_path, "a.cfg", text)
        assert main(["simulate", path]) == 0
        assert len(calls) <= 2
        rep = report_dict(out / "report.txt")
        assert rep["measure.max_abs_divergence"] == "0.59173273676688121"

    @pytest.mark.parametrize(
        "cfg, command, analyses, message",
        [
            (clebsch_cfg, "simulate", "verify_integrals kharlamova_quadrature",
             "kharlamova_quadrature needs a Kharlamova case"),
            (kharlamova_cfg, "clebsch-tori", None,
             "clebsch_tori needs a quadratic-potential case"),
            (kharlamova_cfg, "simulate", "asymptotic",
             "asymptotic analysis needs the free 3D case with "
             "case.constraint_axis"),
        ],
        ids=["kharlamova_quadrature", "clebsch_tori", "asymptotic"],
    )
    def test_unsupported_analysis_exits_2_before_writing(
            self, tmp_path, capsys, cfg, command, analyses, message):
        out = tmp_path / "out"
        text = cfg(out)
        if analyses is not None:
            text = with_values(text, {"run.analyses": analyses})
        path = write(tmp_path, "x.cfg", text)
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert f"[error]\nkind = config\nmessage = {message}\n" == err
        assert not out.exists()

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"case.constraint_axis": "0 0 1", "initial.omega_1_2": "0.0"},
             "no asymptotic line; solutions are constants"),
            ({"initial.omega_1_2": "0.0", "initial.omega_1_3": "0.0",
              "initial.omega_2_3": "0.0"},
             "energy level must be positive and finite: 0.0"),
        ],
        ids=["eigenvector_axis", "at_rest"],
    )
    def test_asymptotic_without_a_line_exits_2_before_writing(
            self, tmp_path, capsys, values, message):
        out = tmp_path / "out"
        path = write(tmp_path, "a.cfg", with_values(asymptotic_cfg(out), values))
        assert main(["suslov-asymptotic", path]) == 2
        err = capsys.readouterr().err
        assert f"[error]\nkind = config\nmessage = asymptotic: {message}\n" == err
        assert not out.exists()

    def test_an_analysis_that_raises_still_writes_its_report(self, tmp_path, capsys):
        # a sampling too coarse for the torus angles: the run's report holds
        # what was gathered and the error, never a previous run's report
        out = tmp_path / "out"
        scenario = (SCENARIO_DIR / "clebsch_tori_n3.cfg").read_text()
        path = write(tmp_path, "c.cfg", scenario)
        assert main(["clebsch-tori", path, "--output-dir", str(out)]) == 0
        capsys.readouterr()
        coarse = write(tmp_path, "coarse.cfg",
                       with_values(scenario, {"run.output_dt": "3.0"}))
        assert main(["clebsch-tori", coarse, "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("[error]\nkind = numerical\nmessage = clebsch_tori: "
                              "angle advances too fast")
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 41
        rep = report_dict(out / "report.txt")
        assert rep["case.output_dt"] == "3"
        assert rep["clebsch.classification"] == "two_disjoint_tori"
        assert rep["result.pass"] == "false"
        assert f"[error]\nkind = numerical\nmessage = {rep['result.error']}\n" == err


class TestOutputLocation:
    @pytest.mark.parametrize("below", [(), ("out",)], ids=["is", "under"])
    def test_output_dir_at_a_file_exits_2(self, tmp_path, capsys, below):
        (tmp_path / "taken").write_text("not a directory\n")
        out = tmp_path.joinpath("taken", *below)
        path = write(tmp_path, "k.cfg", kharlamova_cfg(out, t_end=1.0))
        assert main(["simulate", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[error]\nkind = config\n")
        assert str(out) in err and "Traceback" not in err
        assert (tmp_path / "taken").read_text() == "not a directory\n"

    def test_failed_write_leaves_no_partial_file(self, tmp_path, capsys):
        # a directory where trajectory.csv goes: the move onto it fails
        out = tmp_path / "out"
        (out / "trajectory.csv").mkdir(parents=True)
        path = write(tmp_path, "k.cfg", kharlamova_cfg(out, t_end=1.0))
        assert main(["simulate", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[error]\nkind = config\n")
        assert str(out / "trajectory.csv") in err and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["trajectory.csv"]

    def test_both_outputs_get_the_same_mode(self, tmp_path):
        out = tmp_path / "out"
        path = write(tmp_path, "k.cfg", kharlamova_cfg(out, t_end=1.0))
        assert main(["simulate", path]) == 0
        umask = os.umask(0)
        os.umask(umask)
        modes = {name: (out / name).stat().st_mode & 0o777
                 for name in ("trajectory.csv", "report.txt")}
        assert modes == dict.fromkeys(modes, 0o666 & ~umask)
        assert sorted(p.name for p in out.iterdir()) == sorted(modes)


# one line of scenario text: no control characters or line separators
_LINE = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12
)
_METHODS = st.sampled_from(["dop853", "rk45", "rk4"])
_POSITIVE = st.floats(min_value=0.0, max_value=1e3, exclude_min=True).map(repr)
_NUMBER_TEXT = st.one_of(
    _POSITIVE,
    st.floats().map(repr),
    st.sampled_from(["5e-324", "1e308", "0", "-1e-3", "1_0", ""]),
    _LINE,
)


def run_with_values(values, t_end=None, step=None, output_tail=""):
    """``suslov simulate`` on a short Kharlamova run (``max_steps`` 2000,
    no measure check) with ``values`` set by ``with_values`` and the given
    ``--t-end``/``--step`` flags; returns the exit status.

    ``run.output_dir`` is ``output_tail`` appended to a directory five
    levels below a temporary root, which holds a regular file ``f``.  Each
    ``..`` and its separator take three of a fuzzed tail's at most 12
    characters, so no tail reaches above the root, and the run writes
    nowhere else.

    Examples whose output grid would exceed 10^4 intervals are skipped:
    ``integrate`` allocates every output row up front."""
    flags = [f"--{name}={value!r}" for name, value
             in (("t-end", t_end), ("step", step)) if value is not None]
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "out", "1", "2", "3", "4")
        os.makedirs(root)
        open(os.path.join(root, "f"), "w").close()
        text = kharlamova_cfg(root + "/" + output_tail, t_end=0.5)
        text = with_values(text, {"integrator.max_steps": "2000",
                                  "run.analyses": "verify_integrals", **values})
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            cfg = load_config(path, {"t_end": t_end, "step": step})
        except ConfigError:
            pass
        else:
            assume(cfg.t_end / cfg.output_dt <= 1e4)
            resolved = os.path.normpath(cfg.output_dir)
            assert os.path.commonpath([tmp, resolved]) == tmp
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(["simulate", path, *flags])
    err = err.getvalue()
    assert status in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert ("[error]\n" in err) == (status != 0)
    return status


def run_with_settings(method, rel_tol, abs_tol, step):
    """``run_with_values`` with the given integrator texts."""
    return run_with_values({
        "integrator.method": method,
        "integrator.rel_tol": rel_tol,
        "integrator.abs_tol": abs_tol,
        "integrator.step": step,
    })


# every case.*, initial.* and run.* key of the Kharlamova scenario except
# run.output_dir, which names where the run writes (fuzzed on its own)
_KEYS = st.sampled_from([
    "case.kind", "case.inertia", "case.b", "initial.omega_1_3",
    "initial.omega_2_3", "initial.gamma", "run.t_end", "run.output_dt",
    "run.analyses",
])
_VALUE = st.one_of(
    _NUMBER_TEXT,
    st.lists(_POSITIVE, max_size=4).map(" ".join),
    st.sampled_from(["KharlamovaND", "ClebschTisserandND", "LagrangeND",
                     "SuslovFree", "Gyroscopic3D", "period", "clebsch_tori",
                     "kharlamova_quadrature measure_check"]),
)
# --t-end and --step values; up to 1e3, so the 0.1 output grid stays small
_FLAG = st.one_of(
    st.none(),
    st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324]),
)


class TestFuzz:
    # max_steps = 2000 and at most 10^4 output intervals keep every
    # example short

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(method=st.one_of(_METHODS, _LINE), rel_tol=_NUMBER_TEXT,
           abs_tol=_NUMBER_TEXT, step=_NUMBER_TEXT)
    def test_any_integrator_text_exits_cleanly(self, method, rel_tol,
                                                abs_tol, step):
        run_with_settings(method, rel_tol, abs_tol, step)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(method=_METHODS, rel_tol=_POSITIVE, abs_tol=_POSITIVE,
           step=_POSITIVE)
    def test_any_positive_settings_run_or_fail_cleanly(self, method, rel_tol,
                                                       abs_tol, step):
        # from subnormal to loose tolerances and steps: a result, a
        # numerical failure or a failed verification, never a crash
        assert run_with_settings(method, rel_tol, abs_tol, step) != 2

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(key=_KEYS, value=_VALUE, t_end=_FLAG, step=_FLAG)
    def test_any_key_text_and_flags_exit_cleanly(self, key, value, t_end,
                                                 step):
        run_with_values({key: value}, t_end=t_end, step=step)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tail=st.one_of(_LINE, st.text(st.sampled_from("./#~ \\f"),
                                         max_size=12)))
    @example(tail="f")  # a file where the directory goes: exit 2
    @example(tail="f/a")
    @example(tail="../../../..")
    def test_any_output_dir_text_exits_cleanly(self, tail):
        run_with_values({}, output_tail=tail)
