import json

import numpy as np
import pytest

from steintail import pearson, stein
from steintail.cli import run
from steintail.pearson import PearsonCoefficients, build_law


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_prints_case(capsys):
    code, out, _ = run_cli(capsys, "classify", "--alpha", "0", "--beta", "0", "--gamma", "1")
    assert code == 0
    assert out.strip() == "Normal"


def test_classify_invalid_coefficients(capsys):
    code, _, err = run_cli(capsys, "classify", "--alpha", "0", "--beta", "0", "--gamma", "-1")
    assert code == 1
    assert err.strip().count("\n") == 0  # one-line diagnosis


def test_usage_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "classify", "--alpha", "0")
    assert code == 1
    assert "required" in err
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1


def test_unknown_flag_rejected(capsys):
    code, _, _ = run_cli(capsys, "classify", "--alpha", "0", "--beta", "0",
                         "--gamma", "1", "--bogus", "3")
    assert code == 1


def test_law_json_round_trip(capsys, tmp_path):
    out_path = tmp_path / "law.json"
    code, _, _ = run_cli(capsys, "law", "--alpha", "0", "--beta", "2", "--gamma", "2",
                         "--output", str(out_path))
    assert code == 0
    law2 = pearson.law_from_json(out_path.read_text())
    law = build_law(PearsonCoefficients(0.0, 2.0, 2.0))
    for z in [-0.5, 0.0, 1.5]:
        assert pearson.tail(law2, z) == pearson.tail(law, z)
        assert pearson.density(law2, z) == pearson.density(law, z)


def test_tail_grid_csv(capsys):
    code, out, _ = run_cli(capsys, "tail", "--alpha", "0", "--beta", "0", "--gamma", "1",
                           "--grid", "0:2:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,tail"
    assert len(lines) == 4
    x, t = lines[1].split(",")
    assert float(x) == 0.0 and float(t) == 0.5
    # round-trip-exact formatting
    assert float(lines[2].split(",")[1]) == pearson.tail(build_law(PearsonCoefficients(0, 0, 1)), 1.0)


def test_quantile_at(capsys):
    code, out, _ = run_cli(capsys, "quantile", "--alpha", "0", "--beta", "0", "--gamma", "1",
                           "--at", "0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["quantile"] == pytest.approx(0.0, abs=1e-12)


def test_moments_table(capsys):
    code, out, _ = run_cli(capsys, "moments", "--alpha", "0.25", "--beta", "0", "--gamma", "0.25",
                           "--max-order", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "order,moment"
    assert float(lines[3].split(",")[1]) == pytest.approx(1.0 / 3.0)  # second moment
    assert lines[6].split(",")[1] == ""  # fifth moment does not exist
    assert lines[7].split(",")[1] == ""


def test_stein_csv_and_certificate(capsys):
    code, out, err = run_cli(capsys, "stein", "--alpha", "0", "--beta", "0", "--gamma", "1",
                             "--z", "1", "--grid=-3:3:101")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,f,fprime,residual"
    assert all(abs(float(line.split(",")[3])) < 1e-8 for line in lines[1:])
    assert "passed=True" in err


def test_stein_json_certificate(capsys):
    code, out, _ = run_cli(capsys, "stein", "--alpha", "0", "--beta", "2", "--gamma", "2",
                           "--z", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["sign_violations"] == 0
    assert payload["certificate"]["residual_max"] < 1e-8


def test_stein_rows_and_certificate_come_from_the_one_grid(capsys):
    # the rows are stein.evaluate on the grid and the certificate is stein.certify_fprime on it
    code, out, _ = run_cli(capsys, "stein", "--alpha", "0", "--beta", "2", "--gamma", "2",
                           "--z", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    sol = stein.solve_indicator(build_law(PearsonCoefficients(0.0, 2.0, 2.0)), 2.0)
    grid = np.array([row["x"] for row in payload["rows"]])
    f, fp, res = stein.evaluate(sol, grid)
    assert [(row["f"], row["fprime"], row["residual"]) for row in payload["rows"]] == list(zip(f, fp, res))
    assert payload["certificate"] == json.loads(stein.certify_fprime(sol, grid).to_json())


NORMAL_ARGS = ("--alpha", "0", "--beta", "0", "--gamma", "1")


def test_stein_past_the_doubles_exits_1_with_a_message(capsys):
    # the Normal at z = 40: rho(z) underflows to 0, so the uniform bound has no double to hold it
    code, out, err = run_cli(capsys, "stein", *NORMAL_ARGS, "--z", "40")
    assert code == 1 and out == ""
    assert err.startswith("steintail stein: ") and "underflowed" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("tail", *NORMAL_ARGS, "--grid", "-1:1:3"),
    ("stein", *NORMAL_ARGS, "--z", "0.5", "--grid", "-1:1:3"),
    ("chaos-g", "--coeffs", "0,1", "--grid", "-1:1:3"),
    ("chaos-g", "--coeffs", "0,1", "--density-grid", "-1:1:3"),
    ("chaos-g", "--coeffs", "0,1", "--density-grid=-1:1:3"),
])
def test_grids_may_start_with_a_minus_sign(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert [line.split(",")[0] for line in out.strip().splitlines()[-3:]] == ["-1.0", "0.0", "1.0"]


def test_points_may_start_with_a_minus_sign(capsys):
    for at, row in (("-1e-300", "-1e-300,0.5"), ("-inf", "-inf,1.0"), ("-Infinity", "-inf,1.0")):
        code, out, err = run_cli(capsys, "tail", *NORMAL_ARGS, "--at", at)
        assert code == 0, err
        assert out.split() == ["x,tail", row]


def test_z_grid_starting_with_a_minus_sign_reaches_the_command(capsys):
    # the grid is read, and the command refuses its negative thresholds
    code, _, err = run_cli(capsys, "bounds", *NORMAL_ARGS, "--z-grid", "-1:1:3")
    assert code == 1
    assert "requires z > 0, got -1.0" in err


def test_envelope_brackets(capsys):
    code, out, _ = run_cli(capsys, "envelope", "--alpha", "0", "--beta", "0", "--gamma", "1",
                           "--grid", "1:4:7")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        _, lo, t, hi = map(float, line.split(","))
        assert lo <= t <= hi


def test_envelope_reads_the_cdf_left_of_0(capsys):
    # for z < 0 the envelope brackets P[Z <= z], which 1 - tail loses to cancellation
    code, out, _ = run_cli(capsys, "envelope", "--alpha", "0", "--beta", "0", "--gamma", "1",
                           "--grid=-10:-8:2")
    assert code == 0
    normal = build_law(PearsonCoefficients(0.0, 0.0, 1.0))
    for line in out.strip().splitlines()[1:]:
        z, lo, t, hi = map(float, line.split(","))
        assert t == pearson.cdf(normal, z)
        assert lo <= t <= hi
    assert t == pytest.approx(6.220960574271829e-16, rel=1e-14)  # Phi(-8)


def test_bounds_table(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--alpha", "0", "--beta", "0", "--gamma", "1",
                           "--z-grid", "1:5:5", "--c", "4", "--K", "1.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("z,phi_star")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["pearson_lower"]) <= float(row["phi_star"]) <= float(row["k_phi_star"])


def test_chaos_g_constant(capsys):
    code, out, _ = run_cli(capsys, "chaos-g", "--coeffs", "0,1")
    assert code == 0
    assert out.strip() == "1"


def test_chaos_g_prints_G_in_monomial_form(capsys):
    # G of H1 + c H2 is (1 + 2c N)(1 + c N) = 1 + 3c N + 2c^2 N^2: c = -1/3 gives the -N term
    for coeffs, want in (("0,1", "1"), ("0,0,1", "2*N^2"), ("0,1,-0.3333333333333333", "1 - N + 0.222222*N^2")):
        code, out, _ = run_cli(capsys, "chaos-g", "--coeffs", coeffs)
        assert code == 0
        assert out.strip() == want


def test_chaos_g_needs_all_three_reference_flags(capsys):
    for flags in (["--alpha", "0"], ["--alpha", "0", "--beta", "2"], ["--gamma", "2"]):
        code, out, err = run_cli(capsys, "chaos-g", "--coeffs", "0,0,1", *flags)
        assert code == 1
        assert "--alpha, --beta and --gamma" in err


def test_chaos_g_density_export(capsys):
    code, out, _ = run_cli(capsys, "chaos-g", "--coeffs", "0,0,1", "--density-grid", "0:3:4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2*N^2"
    assert lines[1] == "x,rho"
    gamma = build_law(PearsonCoefficients(0.0, 2.0, 2.0))
    x, rho = map(float, lines[2].split(","))
    assert rho == pytest.approx(pearson.density(gamma, x), rel=1e-10)


def test_chaos_g_h2_with_dominance(capsys):
    code, out, _ = run_cli(capsys, "chaos-g", "--coeffs", "0,0,1",
                           "--alpha", "0", "--beta", "2", "--gamma", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2*N^2"
    assert "dominance_margin=0.0" in lines[1]


def test_verify_scenario_file(capsys, tmp_path):
    scenario = {
        "x_model": {"type": "hermite", "coeffs": [0, 0, 1]},
        "reference": {"alpha": 0, "beta": 2, "gamma": 2},
        "hypothesis": "Sandwich",
        "z_grid": [1, 2, 3],
        "n_samples": 20000,
        "seed": 42,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "verify", "--scenario", str(path), "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "z,phi_star,lower,upper,empirical,ci,verdict"
    assert all(line.endswith("pass") for line in lines[1:])


def test_verify_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify", "--scenario", "/nonexistent.json")
    assert code == 1
    assert err


def test_verify_determinism_bytes(capsys, tmp_path):
    scenario = {
        "x_model": {"type": "pearson", "alpha": 0, "beta": 2, "gamma": 2},
        "reference": {"alpha": 0, "beta": 2, "gamma": 2},
        "hypothesis": "DominatesLower",
        "z_grid": [1, 2],
        "n_samples": 20000,
        "seed": 7,
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    outputs = []
    for name in ("a.csv", "b.csv"):
        out_path = tmp_path / name
        code, _, _ = run_cli(capsys, "verify", "--scenario", str(path), "--output", str(out_path))
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_verify_has_no_workers_option(capsys, tmp_path):
    # blocks are counted on the calling thread; the retired flag is refused as an unknown argument
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "x_model": {"type": "hermite", "coeffs": [0, 0, 1]},
        "reference": {"alpha": 0, "beta": 2, "gamma": 2},
        "hypothesis": "Sandwich", "z_grid": [1, 2], "n_samples": 20000, "seed": 7,
    }))
    code, out, err = run_cli(capsys, "verify", "--scenario", str(path), "--workers", "2")
    assert code == 1
    assert out == "" and "unrecognized arguments: --workers 2" in err


def test_asym_loglinear(capsys):
    code, out, _ = run_cli(capsys, "asym", "--alpha", "0", "--beta", "2", "--gamma", "2",
                           "--mode", "loglinear", "--z-grid", "20:200:25", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] == pytest.approx(-0.5, abs=0.01)


def test_asym_insufficient_range(capsys):
    code, _, err = run_cli(capsys, "asym", "--alpha", "0", "--beta", "2", "--gamma", "2",
                           "--mode", "loglog", "--z-grid", "20:100:10")
    assert code == 1
    assert "decade" in err
