import math
import os

import numpy as np
import pytest

from suslov.cli import ConfigError, load_config, main

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
        assert rep["measure.invariant_measure"] == "yes"
        assert rep["result.pass"] == "true"

    def test_verify_fails_with_sloppy_integrator(self, tmp_path):
        out = tmp_path / "out"
        text = kharlamova_cfg(out, t_end=40.0).replace(
            "integrator.method = rk45", "integrator.method = rk4"
        )
        text = text.replace("integrator.rel_tol = 1e-10",
                            "integrator.step = 0.4")
        text = text.replace("integrator.abs_tol = 1e-12", "")
        path = write(tmp_path, "bad.cfg", text)
        assert main(["verify", path]) == 4
        rep = report_dict(out / "report.txt")
        assert rep["integrals.pass"] == "false"

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
