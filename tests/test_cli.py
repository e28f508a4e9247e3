import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icaprobe
from icaprobe.cli import build_parser, main
from icaprobe.manifest import read_config, sha256_file


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "points.csv"
    assert run("generate", "--n", 600, "--seed", 42, "--out", path) == 0
    return path


def test_generate_format(tmp_path):
    out = tmp_path / "d.csv"
    assert run("generate", "--n", 50, "--seed", 1, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 51
    assert all(len(line.split(",")) == 2 for line in lines[1:])
    manifest = out.with_suffix(".csv.manifest")
    assert manifest.exists()
    text = manifest.read_text()
    assert "command=generate" in text
    assert "rng=" in text and "band_check_frame=" in text


def test_generate_empty_bands(tmp_path):
    out = tmp_path / "g.csv"
    assert run("generate", "--n", 40, "--seed", 2, "--bands", "", "--out", out) == 0
    vals = np.loadtxt(out, delimiter=",", skiprows=1)
    assert vals.shape == (40, 2)


def test_generate_rerun_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("generate", "--n", 80, "--seed", 9, "--out", a)
    run("generate", "--n", 80, "--seed", 9, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_manifest_replay(tmp_path):
    first = tmp_path / "first.csv"
    run("generate", "--n", 120, "--seed", 4, "--out", first)
    manifest = first.with_suffix(".csv.manifest")
    replay = tmp_path / "replay.csv"
    assert run("generate", "--config", manifest, "--out", replay) == 0
    assert first.read_bytes() == replay.read_bytes()


def test_sweep_small_grid(tmp_path, data_csv):
    out = tmp_path / "sweep.csv"
    svg = tmp_path / "sweep.svg"
    assert run("sweep", "--data", data_csv, "--grid", 8, "--out", out, "--svg", svg) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,j_mspacing,j_f0,j_hat_star,j_kurtosis,f0_failed"
    assert len(lines) == 9
    assert svg.read_text().startswith("<svg")
    cfg = read_config(out.with_suffix(".csv.manifest"))
    assert cfg["grid"] == "8"


def test_sweep_manifest_replay(tmp_path, data_csv):
    first = tmp_path / "first.csv"
    assert run("sweep", "--data", data_csv, "--grid", 8, "--out", first) == 0
    manifest = first.with_suffix(".csv.manifest")
    assert "version=0.1.5" in manifest.read_text().splitlines()
    replay = tmp_path / "replay.csv"
    assert run("sweep", "--config", manifest, "--out", replay) == 0
    assert first.read_bytes() == replay.read_bytes()


def test_sweep_flags_beat_config(tmp_path, data_csv):
    out1 = tmp_path / "s1.csv"
    run("sweep", "--data", data_csv, "--grid", 8, "--out", out1)
    out2 = tmp_path / "s2.csv"
    assert (
        run(
            "sweep",
            "--config",
            out1.with_suffix(".csv.manifest"),
            "--grid",
            10,
            "--out",
            out2,
        )
        == 0
    )
    assert len(out2.read_text().splitlines()) == 11


def test_densities_fixed_angle(tmp_path, data_csv):
    out = tmp_path / "dens.csv"
    assert run("densities", "--data", data_csv, "--direction", "0.7853981633974483", "--out", out) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    x = rows[:, 0]
    assert x[0] == -4.0 and x[-1] == 4.0
    assert np.max(np.diff(x)) <= 0.01 + 1e-12
    assert rows.shape[1] == 5
    # mass of the kde column on the grid is near 1
    assert np.trapezoid(rows[:, 1], x) == pytest.approx(1.0, abs=0.02)
    assert rows[:, 4].max() == 0  # solver succeeded


def test_densities_reports_the_violated_bound(tmp_path, capsys):
    # heavy-tail injections along x1 put c far above logcosh's upper bound
    # at theta = pi/2; the warning names c and the bound, and f0 is flagged
    from icaprobe.rng import ReproducibleStream

    base = ReproducibleStream(93).normals(1000).reshape(500, 2)
    base[:6, 0] = np.array([8.0, -8.0, 9.0, -9.0, 10.0, -10.0])
    data = tmp_path / "heavy.csv"
    np.savetxt(data, base, fmt="%.17g", delimiter=",", header="x1,x2", comments="")
    out = tmp_path / "heavy_dens.csv"
    assert run("densities", "--data", data, "--direction", repr(math.pi / 2), "--out", out) == 0
    err = capsys.readouterr().err
    assert "warning: surrogate solver failed (constraint value 1.19" in err
    assert "upper bound 0.213932" in err
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[:, 4].min() == 1 and np.isnan(rows[:, 2]).all()


def test_densities_optimized_directions(tmp_path, data_csv):
    for choice in ("mspacing-opt", "fastica-opt"):
        out = tmp_path / f"dens_{choice}.csv"
        assert run("densities", "--data", data_csv, "--direction", choice, "--out", out) == 0
        cfg = read_config(out.with_suffix(".csv.manifest"))
        assert 0.0 <= float(cfg["resolved_direction"]) < math.pi


def test_ica_fastica(tmp_path, data_csv):
    out = tmp_path / "load.csv"
    assert run("ica", "--data", data_csv, "--method", "fastica", "--components", 2, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "component,w1,w2,converged,iterations,contrast"
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    W = rows[:, 1:3]
    assert np.abs(W @ W.T - np.eye(2)).max() < 1e-8


def test_ica_mspacing(tmp_path, data_csv):
    out = tmp_path / "loadm.csv"
    assert run("ica", "--data", data_csv, "--method", "mspacing", "--components", 2, "--out", out) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    W = rows[:, 1:3]
    assert np.abs(W @ W.T - np.eye(2)).max() < 1e-8


@pytest.mark.parametrize("method", ["fastica", "mspacing"])
@pytest.mark.parametrize(
    "components, message",
    [(0, "n_components must be >= 1"), (3, "asked for 3 components in 2 dimensions")],
)
def test_ica_components_out_of_range(tmp_path, data_csv, capsys, method, components, message):
    out = tmp_path / "bad.csv"
    code = run("ica", "--data", data_csv, "--method", method, "--components", components, "--out", out)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_ica_takes_no_svg_flag(tmp_path, data_csv):
    # loadings have no figure, so the flag is rejected rather than ignored
    with pytest.raises(SystemExit) as exit_info:
        run("ica", "--data", data_csv, "--out", tmp_path / "l.csv", "--svg", tmp_path / "l.svg")
    assert exit_info.value.code == 2


@pytest.mark.parametrize("p", [1, 3])
def test_densities_beyond_the_plane(tmp_path, capsys, p):
    # optimized directions work at any p; an angle needs p = 2, and only
    # there does resolved_direction name a direction
    from icaprobe.rng import ReproducibleStream

    values = ReproducibleStream(31).uniforms(600 * p).reshape(600, p)
    data = tmp_path / "cols.csv"
    header = ",".join(f"x{j + 1}" for j in range(p))
    np.savetxt(data, values, fmt="%.17g", delimiter=",", header=header, comments="")
    out = tmp_path / "dens.csv"
    assert run("densities", "--data", data, "--direction", "mspacing-opt", "--out", out) == 0
    assert "resolved_direction" not in read_config(out.with_suffix(".csv.manifest"))
    capsys.readouterr()
    assert run("densities", "--data", data, "--direction", "0.5", "--out", out) == 2
    assert capsys.readouterr().err == f"error: an angle direction needs data with 2 columns, got {p}\n"


def test_main_calls_a_command_rebound_after_import(tmp_path, monkeypatch):
    # the benchmark tracer rebinds cli.cmd_* at module level after import
    import icaprobe.cli as cli

    calls = []

    def traced(cfg, out, svg):
        calls.append(cfg["c_grid"])
        out.write_text("c\n")
        return [out]

    monkeypatch.setattr(cli, "cmd_rates", traced)
    assert run("rates", "--c-grid", "0.1", "--out", tmp_path / "r.csv") == 0
    assert calls == ["0.1"]
    assert "c_grid=0.1" in (tmp_path / "r.csv.manifest").read_text().splitlines()


def test_rates_outputs(tmp_path):
    out = tmp_path / "rates.csv"
    svg = tmp_path / "rates.svg"
    assert run("rates", "--g", "logcosh", "--out", out, "--svg", svg) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,sup_error,err_amplitude,err_kappa,err_zeta,err_a,entropy_remainder"
    assert len(lines) == 5
    slopes = dict(
        line.split(",") for line in (tmp_path / "rates_slopes.csv").read_text().splitlines()[1:]
    )
    assert 1.7 <= float(slopes["sup_error"]) <= 2.3
    assert float(slopes["entropy_remainder"]) >= 2.5
    assert svg.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_rates_rejects_a_non_finite_c_as_invalid_input(tmp_path, value, capsys):
    # a non-finite c is bad input (exit 2), not a solver failure (exit 3)
    assert run("rates", "--c-grid", f"0.1,{value}", "--out", tmp_path / "r.csv") == 2
    assert capsys.readouterr().err == "error: c must be finite\n"


@pytest.mark.parametrize("grid", ["0.1,0.05", "0.1,0.05,-0.02,0.01", "0.1,0.05,0,0.01"])
def test_rates_rejects_a_short_or_non_positive_grid_before_writing(tmp_path, grid, capsys):
    # the grid is checked before the first solve: no rates.csv is left behind
    assert run("rates", "--c-grid", grid, "--out", tmp_path / "r.csv") == 2
    assert capsys.readouterr().err == f"error: --c-grid needs 4 or more values c > 0, got {grid}\n"
    assert list(tmp_path.iterdir()) == []


def test_rates_rejects_an_infeasible_c_as_invalid_input(tmp_path, capsys):
    # logcosh's E[K] stays below 0.213932, so c = 0.4 is bad input, rejected
    # before any Newton run; sweep and densities flag the same error instead
    assert run("rates", "--c-grid", "0.4,0.3,0.2,0.1", "--out", tmp_path / "r.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: constraint value 0.4 lies past the upper bound 0.213932")


@pytest.mark.parametrize("delta", ["0.7", "0.5", "0", "-0.1", "nan", "inf"])
def test_rates_checks_delta_before_the_first_solve(tmp_path, monkeypatch, capsys, delta):
    import icaprobe.cli as cli

    solves = []
    monkeypatch.setattr(cli, "solve_f0", lambda *args: solves.append(args))
    assert run("rates", "--delta", delta, "--out", tmp_path / "r.csv") == 2
    assert capsys.readouterr().err == f"error: --delta must be in (0, 1/2), got {float(delta)}\n"
    assert solves == []
    assert list(tmp_path.iterdir()) == []


def test_exit_code_invalid_args(tmp_path):
    assert run("sweep", "--out", tmp_path / "x.csv") == 2  # no data


def test_zero_variance_data_is_invalid_input(tmp_path, capsys):
    data = tmp_path / "flat.csv"
    data.write_text("x1,x2\n1,2\n1,2\n1,2\n")
    assert run("sweep", "--data", data, "--out", tmp_path / "s.csv") == 2
    assert capsys.readouterr().err == "error: input has zero variance in every direction\n"


@pytest.mark.parametrize("command", ["sweep", "densities", "ica"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_data_is_invalid_input(tmp_path, capsys, command, value):
    data = tmp_path / "bad.csv"
    data.write_text(f"x1,x2\n0.1,2\n{value},1\n1.5,-3\n0.4,0.2\n")
    out = tmp_path / "o.csv"
    assert run(command, "--data", data, "--out", out) == 2
    assert capsys.readouterr().err == "error: values must be finite\n"
    assert not out.exists()


def test_nearly_collinear_data_is_invalid_input(tmp_path, capsys):
    # columns x and x + 1e-5 N(0, 1): the error names the input, not the output
    gen = np.random.default_rng(3)
    x = gen.standard_normal(2000)
    data = tmp_path / "collinear.csv"
    np.savetxt(data, np.column_stack([x, x + 1e-5 * gen.standard_normal(2000)]),
               delimiter=",", header="x1,x2", comments="", fmt="%.17g")
    out = tmp_path / "s.csv"
    assert run("sweep", "--data", data, "--out", out) == 2
    assert "columns are nearly collinear" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m", [2, 2000])
def test_sweep_rejects_m_outside_its_range(tmp_path, capsys, m):
    data = tmp_path / "points.csv"
    assert run("generate", "--n", 2000, "--out", data) == 0
    out = tmp_path / "s.csv"
    assert run("sweep", "--data", data, "--m", m, "--out", out) == 2
    assert capsys.readouterr().err == f"error: m={m} outside valid range [3, 1999] for n=2000\n"
    assert not out.exists()


def test_config_with_a_repeated_key_is_rejected(tmp_path, data_csv, capsys):
    # a repeated key is ambiguous, except file=, which every manifest repeats
    config = tmp_path / "twice.cfg"
    config.write_text(f"data={data_csv}\ngrid=8\nfile=a.csv:00\nfile=b.svg:11\ngrid=16\n")
    out = tmp_path / "s.csv"
    assert run("sweep", "--config", config, "--out", out) == 2
    assert capsys.readouterr().err == "error: --config key grid appears more than once\n"
    assert not out.exists()
    config.write_text(f"data={data_csv}\ngrid=8\nfile=a.csv:00\nfile=b.svg:11\n")
    assert run("sweep", "--config", config, "--out", out) == 0
    assert len(out.read_text().splitlines()) == 1 + 8


def test_config_with_an_unknown_key_is_rejected(tmp_path, data_csv, capsys):
    # a typo must not run the default 360 directions; every unknown key is named
    config = tmp_path / "typo.cfg"
    config.write_text(f"data={data_csv}\ngrd=8\ncolour=red\n")
    out = tmp_path / "s.csv"
    assert run("sweep", "--config", config, "--out", out) == 2
    assert capsys.readouterr().err == "error: sweep takes no --config key colour, grd\n"
    assert not out.exists()


def test_every_option_has_help(capsys):
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    for name, parser in commands.items():
        for action in parser._actions:
            assert action.help, (name, action.dest)
        with pytest.raises(SystemExit) as exit_info:
            main([name, "--help"])
        assert exit_info.value.code == 0
        assert "usage: icaprobe " + name in capsys.readouterr().out


def test_exit_code_numerical_failure(tmp_path):
    out = tmp_path / "y.csv"
    code = run(
        "generate", "--n", 2000, "--seed", 5, "--max-rounds", 1, "--out", out
    )
    assert code == 3


def test_exit_code_io_failure(tmp_path):
    code = run("generate", "--n", 50, "--seed", 1, "--out", tmp_path / "nodir" / "x.csv")
    assert code == 4


@pytest.fixture(scope="module")
def counterexample_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("ce") / "counterexample.csv"
    assert run("generate", "--n", 2000, "--seed", 42, "--out", path) == 0
    return path


def test_densities_counterexample_diverges(tmp_path, counterexample_csv):
    # at the m-spacing direction the projected density is multimodal while
    # the surrogate stays near-Gaussian; L1 distance is large
    out = tmp_path / "ce_dens.csv"
    assert run(
        "densities", "--data", counterexample_csv, "--direction", "mspacing-opt", "--out", out
    ) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    x, kde_col, f0_col = rows[:, 0], rows[:, 1], rows[:, 2]
    assert rows[:, 4].max() == 0
    l1 = np.trapezoid(np.abs(kde_col - f0_col), x)
    assert l1 > 0.2


def test_densities_gaussian_close(tmp_path):
    data = tmp_path / "gauss.csv"
    assert run("generate", "--n", 10000, "--seed", 8, "--bands", "", "--out", data) == 0
    out = tmp_path / "gauss_dens.csv"
    assert run("densities", "--data", data, "--direction", "0.7", "--out", out) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    l1 = np.trapezoid(np.abs(rows[:, 1] - rows[:, 2]), rows[:, 0])
    assert l1 < 0.05


def test_ica_cross_command_consistency(tmp_path, counterexample_csv):
    # loadings from both methods agree with the sweep argmaxes within 5 deg
    sweep_out = tmp_path / "sw.csv"
    assert run("sweep", "--data", counterexample_csv, "--grid", 360, "--out", sweep_out) == 0
    rows = np.loadtxt(sweep_out, delimiter=",", skiprows=1)
    thetas = rows[:, 0]
    argmax = {
        "mspacing": thetas[np.nanargmax(rows[:, 1])],
        "fastica": thetas[np.nanargmax(rows[:, 3])],
    }
    for method in ("fastica", "mspacing"):
        out = tmp_path / f"ica_{method}.csv"
        assert run(
            "ica", "--data", counterexample_csv, "--method", method, "--components", 1,
            "--out", out,
        ) == 0
        w = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)[0, 1:3]
        theta = math.atan2(w[0], w[1]) % math.pi
        diff = abs(theta - argmax[method])
        diff = min(diff, math.pi - diff)
        assert diff < math.radians(5.0), method


def test_csv_full_precision(tmp_path, data_csv):
    # values round-trip exactly through the 17-significant-digit format
    vals = np.loadtxt(data_csv, delimiter=",", skiprows=1)
    text_again = "\n".join(
        ",".join(format(v, ".17g") for v in row) for row in vals
    )
    reparsed = np.loadtxt(text_again.splitlines(), delimiter=",")
    assert np.array_equal(vals, reparsed)
    digest = sha256_file(data_csv)
    assert len(digest) == 64


def test_sweep_tiny_input(tmp_path):
    # n = 50 still yields a valid CSV at grid 8 (m-spacing falls back to m=7)
    data = tmp_path / "tiny.csv"
    assert run("generate", "--n", 50, "--seed", 3, "--bands", "", "--out", data) == 0
    out = tmp_path / "tiny_sweep.csv"
    assert run("sweep", "--data", data, "--grid", 8, "--out", out) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (8, 6)


def test_svg_outputs_deterministic(tmp_path, data_csv):
    svgs = []
    for tag in ("a", "b"):
        out = tmp_path / f"s_{tag}.csv"
        svg = tmp_path / f"s_{tag}.svg"
        assert run("sweep", "--data", data_csv, "--grid", 8, "--out", out, "--svg", svg) == 0
        svgs.append(svg.read_bytes())
    assert svgs[0] == svgs[1]


def test_cli_import_loads_no_scipy_until_a_stream_samples():
    # scipy.special costs more to import than a typical command's work;
    # only sampling (ndtri) may load it, and only when it samples.  Both
    # Gauss-Hermite rules are built first, so a rule build that reaches
    # for scipy (eigh_tridiagonal, roots_hermite) fails here too
    probe = (
        "import sys, icaprobe.cli\n"
        "from icaprobe.quadrature import gaussian_weighted_rule\n"
        "gaussian_weighted_rule(200), gaussian_weighted_rule(400)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "from icaprobe.rng import ReproducibleStream\n"
        "ReproducibleStream(0).normals(1)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    src = str(Path(icaprobe.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out == ["[]", "True"]


def test_sweep_manifest_records_solver_work(tmp_path, data_csv):
    # deterministic totals over the sweep's J[f0] solves, kept out of the CSV
    from icaprobe.projsearch import sweep
    from icaprobe.whiten import whiten

    out = tmp_path / "s.csv"
    assert run("sweep", "--data", data_csv, "--grid", 16, "--out", out) == 0
    cfg = read_config(out.with_suffix(".csv.manifest"))
    result = sweep(whiten(np.loadtxt(data_csv, delimiter=",", skiprows=1))[0], grid_size=16)
    assert cfg["f0_failed"] == str(result.f0_failed.sum()) == "0"
    assert cfg["f0_newton_iterations"] == str(result.f0_iterations.sum())
    assert int(cfg["f0_newton_iterations"]) >= 16
    header = out.read_text().splitlines()[0]
    assert header == "theta,j_mspacing,j_f0,j_hat_star,j_kurtosis,f0_failed"


@pytest.mark.parametrize(
    "order, code, message",
    [
        (("ok", "diverged", "infeasible"), 3, "numerical failure: diverged\n"),
        (("ok", "infeasible", "diverged"), 2, "error: constraint value 0.4 lies past the upper"),
    ],
)
def test_rates_raises_the_first_failure_in_grid_order(
    tmp_path, monkeypatch, capsys, order, code, message
):
    # one solve_f0 call takes the whole grid; the first failed entry decides
    # the exit: an infeasible c is bad input (2), any other failure is 3
    import icaprobe.cli as cli
    from icaprobe.errors import ConvergenceError, InfeasibleConstraintError

    entries = {
        "ok": object(),
        "diverged": ConvergenceError("diverged"),
        "infeasible": InfeasibleConstraintError(0.4, 0.213932, "upper", 1e-4),
    }
    calls = []

    def solves(c, k):
        calls.append(list(c))
        return [entries[name] for name in order] + [entries["ok"]]

    monkeypatch.setattr(cli, "solve_f0", solves)
    assert run("rates", "--c-grid", "0.1,0.2,0.4,0.05", "--out", tmp_path / "r.csv") == code
    assert capsys.readouterr().err.startswith(message)
    assert calls == [[0.1, 0.2, 0.4, 0.05]]
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def three_column_csv(tmp_path_factory):
    from icaprobe.datagen import gen_mixed_sources

    mixing = np.array([[1.0, 0.3, 0.1], [0.2, 1.0, -0.2], [0.1, 0.4, 1.0]])
    raw, _ = gen_mixed_sources(600, ("uniform", "uniform", "gaussian"), mixing, seed=5)
    path = tmp_path_factory.mktemp("three") / "three.csv"
    np.savetxt(path, raw, fmt="%.17g", delimiter=",", header="x1,x2,x3", comments="")
    return path


#: one run of every command, with settings away from the defaults; "{2}"
#: and "{3}" stand for 2- and 3-column data
_REPLAYS = {
    "generate": ("generate", "--n", 300, "--seed", 7, "--bands", "0.2:0.6,1:1.5"),
    "sweep": ("sweep", "--data", "{2}", "--grid", 12, "--g", "negexp", "--m", 20),
    "densities angle": ("densities", "--data", "{2}", "--direction", "0.5", "--alpha", 1.5),
    "densities mspacing-opt": ("densities", "--data", "{2}", "--direction", "mspacing-opt"),
    "densities fastica-opt": (
        "densities", "--data", "{2}", "--direction", "fastica-opt", "--seed", 3
    ),
    "ica fastica p=2": (
        "ica", "--data", "{2}", "--method", "fastica", "--components", 2, "--seed", 1
    ),
    "ica mspacing p=2": ("ica", "--data", "{2}", "--method", "mspacing", "--components", 2),
    "ica fastica p=3": ("ica", "--data", "{3}", "--method", "fastica", "--components", 3),
    "ica mspacing p=3": ("ica", "--data", "{3}", "--method", "mspacing", "--components", 3),
    "rates": ("rates", "--g", "negexp", "--c-grid", "0.1,0.05,0.03,0.02", "--delta", 0.1),
}


@pytest.mark.parametrize("name", list(_REPLAYS))
def test_every_command_replays_from_its_manifest(tmp_path, data_csv, three_column_csv, name):
    # the manifest fed back through --config rewrites every output byte for
    # byte, the manifest itself included; record keys are skipped on the way in
    argv = [{"{2}": data_csv, "{3}": three_column_csv}.get(a, a) for a in _REPLAYS[name]]
    first, replay = tmp_path / "first", tmp_path / "replay"

    def run_in(d, *args):
        d.mkdir()
        figure = () if argv[0] == "ica" else ("--svg", d / "out.svg")
        return run(*args, "--out", d / "out.csv", *figure)

    assert run_in(first, *argv) == 0
    assert run_in(replay, argv[0], "--config", first / "out.csv.manifest") == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in replay.iterdir())
    assert len(names) >= 2
    for f in names:
        assert (first / f).read_bytes() == (replay / f).read_bytes(), f
