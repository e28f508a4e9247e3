"""Command-line front end.

Subcommands cover the full study: ``generate`` (banded-Gaussian data),
``sweep`` (contrast curves over the half circle), ``densities`` (projected
density against its surrogate), ``ica`` (fastICA or m-spacing loadings),
and ``rates`` (convergence-rate study of the surrogate linearization).

Every command writes CSV data plus a plain-text manifest of resolved
configuration and output digests; a manifest can be fed back through
``--config`` to replay the run byte for byte.  Explicit flags win over
config-file values.  Exit codes: 0 success (including flagged partial
results), 2 invalid arguments, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import datagen, manifest, svgplot
from .contrast import GFAMILIES, build_k, c_value, fastica_contrast, logcosh
from .entropy import MSpacingConfig, kde, mspacing_negentropy
from .errors import (
    AccuracyError,
    ConvergenceError,
    DegenerateDataError,
    DegenerateSampleError,
    GenerationError,
    OptimizationError,
)
from .fastica import FastIcaConfig, deflation
from .maxent import (
    LinearizedDensity,
    entropy_by_quadrature,
    hat_entropy,
    rate_fit,
    solve_f0,
    sup_error,
)
from .projsearch import optimize_direction, sweep
from .whiten import RawData, whiten

_NUMERIC_ERRORS = (
    ConvergenceError,
    OptimizationError,
    GenerationError,
    AccuracyError,
    DegenerateDataError,
    DegenerateSampleError,
)

FASTICA_SEED_HELP = "fastICA restart seed; the m-spacing search is deterministic and ignores it"


def _g17(v) -> str:
    return format(float(v), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_g17(v) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _read_data_csv(path) -> RawData:
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return RawData(values)


def _parse_bands(text: str) -> datagen.BandSpec:
    text = text.strip()
    if not text:
        return datagen.BandSpec(intervals=())
    intervals = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        intervals.append((float(lo), float(hi)))
    return datagen.BandSpec(intervals=tuple(intervals))


def _bands_str(bands: datagen.BandSpec) -> str:
    return ",".join(f"{lo:g}:{hi:g}" for lo, hi in bands.intervals)


def _merge_config(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags, all as strings."""
    cfg = {k: str(v) for k, v in defaults.items()}
    if getattr(args, "config", None):
        fromfile = manifest.read_config(args.config)
        cfg.update({k: v for k, v in fromfile.items() if k in defaults})
    for key in defaults:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = str(val)
    return cfg


def _g_function(cfg):
    name = cfg["g"]
    if name not in GFAMILIES:
        raise ValueError(f"unknown G family {name!r}")
    if name == "logcosh":
        return logcosh(float(cfg.get("alpha", 1.0)))
    return GFAMILIES[name]()


def _add_common(sub, out_required=True):
    sub.add_argument("--config", help="key=value file merged under explicit flags")
    sub.add_argument("--out", required=out_required, help="output CSV path")
    sub.add_argument("--svg", help="optional SVG figure path")


def cmd_generate(args) -> int:
    defaults = {
        "n": 2000,
        "bands": _bands_str(datagen.BandSpec()),
        "seed": 42,
        "max_rounds": 100,
    }
    cfg = _merge_config(args, defaults)
    gen_cfg = datagen.GenConfig(
        n=int(cfg["n"]),
        bands=_parse_bands(cfg["bands"]),
        seed=int(cfg["seed"]),
        max_rounds=int(cfg["max_rounds"]),
    )
    data = datagen.gen_banded_gaussian(gen_cfg)
    out = Path(args.out)
    _write_csv(out, ["x1", "x2"], [(float(a), float(b)) for a, b in data.values])
    files = [out]
    if args.svg:
        Path(args.svg).write_text(
            svgplot.scatter(data.values[:, 0], data.values[:, 1], xlabel="x1", ylabel="x2"),
            encoding="utf-8",
        )
        files.append(Path(args.svg))
    cfg["rng"] = datagen.RNG_ALGORITHM
    cfg["band_check_frame"] = datagen.BAND_CHECK_FRAME
    manifest.write_manifest(out.with_suffix(out.suffix + ".manifest"), "generate", cfg, files)
    return 0


def cmd_sweep(args) -> int:
    defaults = {"data": "", "grid": 360, "g": "logcosh", "alpha": 1.0, "m": "auto"}
    cfg = _merge_config(args, defaults)
    if not cfg["data"]:
        raise ValueError("--data is required")
    data = whiten(_read_data_csv(cfg["data"]))
    g = _g_function(cfg)
    mcfg = MSpacingConfig(m=None if cfg["m"] == "auto" else int(cfg["m"]))
    result = sweep(data, grid_size=int(cfg["grid"]), g=g, mspacing=mcfg)
    out = Path(args.out)
    rows = [
        (
            float(t),
            float(result.values["j_mspacing"][i]),
            float(result.values["j_f0"][i]),
            float(result.values["j_hat_star"][i]),
            float(result.values["j_kurtosis"][i]),
            int(result.f0_failed[i]),
        )
        for i, t in enumerate(result.thetas)
    ]
    _write_csv(out, ["theta", "j_mspacing", "j_f0", "j_hat_star", "j_kurtosis", "f0_failed"], rows)
    files = [out]
    if args.svg:
        theta_m, _ = result.argmax("j_mspacing")
        theta_f, _ = result.argmax("j_hat_star")
        panels = [
            ("J m-spacing", result.thetas, result.values["j_mspacing"], "solid"),
            ("J[f0]", result.thetas, result.values["j_f0"], "dashed"),
            ("Jhat*", result.thetas, result.values["j_hat_star"], "dotted"),
        ]
        vlines = [(theta_m, "solid"), (theta_f, "dotted")]
        Path(args.svg).write_text(
            svgplot.stacked_panels(panels, xlabel="theta (radians)", vlines=vlines),
            encoding="utf-8",
        )
        files.append(Path(args.svg))
    manifest.write_manifest(out.with_suffix(out.suffix + ".manifest"), "sweep", cfg, files)
    return 0


DENSITY_GRID = np.round(np.arange(-400, 401) * 0.01, 2)


def cmd_densities(args) -> int:
    defaults = {
        "data": "",
        "direction": "mspacing-opt",
        "g": "logcosh",
        "alpha": 1.0,
        "seed": 0,
    }
    cfg = _merge_config(args, defaults)
    if not cfg["data"]:
        raise ValueError("--data is required")
    data = whiten(_read_data_csv(cfg["data"]))
    g = _g_function(cfg)
    k = build_k(g)
    choice = cfg["direction"]
    if choice == "mspacing-opt":
        w = optimize_direction(data, lambda w: mspacing_negentropy(data.values @ w)).w
    elif choice == "fastica-opt":
        loadings = deflation(data, FastIcaConfig(n_components=1, g=g, seed=int(cfg["seed"])))
        w = loadings.W[0]
    else:
        theta = float(choice)
        w = np.array([math.sin(theta), math.cos(theta)])
    y = data.values @ w
    grid = DENSITY_GRID
    kde_vals = kde(y, grid)
    c = c_value(y, k)
    failed = 0
    try:
        d = solve_f0(c, k)
        f0_vals = d.pdf(grid)
        hat_vals = LinearizedDensity(c=c, k=k).pdf(grid)
    except ConvergenceError as err:
        print(f"warning: surrogate solver failed ({err}); emitting KDE only", file=sys.stderr)
        failed = 1
        f0_vals = np.full_like(grid, math.nan)
        hat_vals = np.full_like(grid, math.nan)
    rows = [
        (float(grid[i]), float(kde_vals[i]), float(f0_vals[i]), float(hat_vals[i]), failed)
        for i in range(len(grid))
    ]
    out = Path(args.out)
    _write_csv(out, ["x", "kde_f", "f0", "hat_f0", "f0_failed"], rows)
    files = [out]
    if args.svg:
        curves = [("density of projection", grid, kde_vals, "solid")]
        if not failed:
            curves.append(("surrogate f0", grid, f0_vals, "dotted"))
        Path(args.svg).write_text(
            svgplot.overlay(curves, xlabel="x", ylabel="density"), encoding="utf-8"
        )
        files.append(Path(args.svg))
    cfg["resolved_direction"] = _g17(math.atan2(w[0], w[1]) % math.pi)
    manifest.write_manifest(out.with_suffix(out.suffix + ".manifest"), "densities", cfg, files)
    return 0


def _mspacing_deflation(data, components: int):
    """Sequential m-spacing directions, each in the orthogonal complement."""
    p = data.n_components
    if components < 1:
        raise ValueError("n_components must be >= 1")
    if components > p:
        raise ValueError(f"asked for {components} components in {p} dimensions")
    rows = []
    for _ in range(components):
        if rows:
            basis = np.linalg.svd(np.vstack(rows))[2][len(rows):].T  # (p, p-k)
        else:
            basis = np.eye(p)
        if basis.shape[1] == 1:
            w = basis[:, 0]
        else:
            reduced = data.values @ basis
            sub = whiten(reduced)  # complement projections are already white
            direction = optimize_direction(sub, lambda u: mspacing_negentropy(sub.values @ u))
            w = basis @ (sub.transform @ direction.w)
            w = w / np.linalg.norm(w)
        rows.append(w)
    return np.vstack(rows)


def cmd_ica(args) -> int:
    defaults = {
        "data": "",
        "method": "fastica",
        "components": 1,
        "g": "logcosh",
        "alpha": 1.0,
        "seed": 0,
    }
    cfg = _merge_config(args, defaults)
    if not cfg["data"]:
        raise ValueError("--data is required")
    data = whiten(_read_data_csv(cfg["data"]))
    g = _g_function(cfg)
    components = int(cfg["components"])
    if cfg["method"] == "fastica":
        loadings = deflation(
            data, FastIcaConfig(n_components=components, g=g, seed=int(cfg["seed"]))
        )
        W = loadings.W
        converged = loadings.converged
        iterations = loadings.iterations
        contrast_vals = [fastica_contrast(data.values @ w, g) for w in W]
    elif cfg["method"] == "mspacing":
        W = _mspacing_deflation(data, components)
        converged = np.ones(components, dtype=bool)
        iterations = np.zeros(components, dtype=int)
        contrast_vals = [mspacing_negentropy(data.values @ w) for w in W]
    else:
        raise ValueError(f"unknown method {cfg['method']!r}")
    out = Path(args.out)
    header = (
        ["component"]
        + [f"w{j + 1}" for j in range(data.n_components)]
        + ["converged", "iterations", "contrast"]
    )
    rows = [
        [i] + [float(v) for v in W[i]] + [int(converged[i]), int(iterations[i]), float(contrast_vals[i])]
        for i in range(components)
    ]
    _write_csv(out, header, rows)
    manifest.write_manifest(out.with_suffix(out.suffix + ".manifest"), "ica", cfg, [out])
    return 0


def cmd_rates(args) -> int:
    defaults = {
        "g": "logcosh",
        "alpha": 1.0,
        "c_grid": "0.16,0.08,0.04,0.02",
        "delta": 0.05,
    }
    cfg = _merge_config(args, defaults)
    g = _g_function(cfg)
    k = build_k(g)
    delta = float(cfg["delta"])
    c_grid = [float(v) for v in cfg["c_grid"].split(",")]
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    rows = []
    for c in c_grid:
        d = solve_f0(c, k)
        lin = LinearizedDensity(c=c, k=k)
        h_remainder = abs(entropy_by_quadrature(lin) - hat_entropy(c))
        rows.append(
            (
                c,
                sup_error(d, lin, delta),
                abs(d.amplitude - inv_sqrt_2pi),
                abs(d.kappa),
                abs(d.zeta + 0.5),
                abs(d.a - c),
                h_remainder,
            )
        )
    header = [
        "c",
        "sup_error",
        "err_amplitude",
        "err_kappa",
        "err_zeta",
        "err_a",
        "entropy_remainder",
    ]
    out = Path(args.out)
    _write_csv(out, header, rows)
    cs = np.array([r[0] for r in rows])
    slope_rows = []
    for j, name in enumerate(header[1:], start=1):
        vals = np.array([r[j] for r in rows])
        if np.all(vals > 0):
            slope_rows.append((name, rate_fit(cs, vals)))
        else:
            slope_rows.append((name, math.nan))  # column at exact zero
    slopes_path = out.with_name(out.stem + "_slopes" + out.suffix)
    _write_csv(slopes_path, ["metric", "slope"], slope_rows)
    files = [out, slopes_path]
    if args.svg:
        series = [
            ("sup_error", cs, np.array([r[1] for r in rows]), "solid"),
            ("entropy_remainder", cs, np.array([r[6] for r in rows]), "dashed"),
            ("|a - c|", cs, np.array([r[5] for r in rows]), "dotted"),
        ]
        Path(args.svg).write_text(
            svgplot.loglog(series, xlabel="c", ylabel="error"), encoding="utf-8"
        )
        files.append(Path(args.svg))
    manifest.write_manifest(out.with_suffix(out.suffix + ".manifest"), "rates", cfg, files)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icaprobe",
        description="fastICA approximation ladder, m-spacing ICA, and the banded counterexample",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="banded-Gaussian counterexample data")
    p.add_argument("--n", type=int)
    p.add_argument("--bands", help='vertical bands "lo:hi,lo:hi"; empty for none')
    p.add_argument("--seed", type=int)
    p.add_argument("--max-rounds", dest="max_rounds", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="contrast curves over the half circle")
    p.add_argument("--data", help="input CSV with two columns")
    p.add_argument("--grid", type=int)
    p.add_argument("--g", choices=sorted(GFAMILIES))
    p.add_argument("--alpha", type=float)
    p.add_argument("--m", help='spacing parameter or "auto" for the sqrt rule')
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("densities", help="projected density vs surrogate")
    p.add_argument("--data")
    p.add_argument("--direction", help="angle in radians, mspacing-opt, or fastica-opt")
    p.add_argument("--g", choices=sorted(GFAMILIES))
    p.add_argument("--alpha", type=float)
    p.add_argument("--seed", type=int, help=FASTICA_SEED_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_densities)

    p = sub.add_parser("ica", help="extract loadings")
    p.add_argument("--data")
    p.add_argument("--method", choices=("fastica", "mspacing"))
    p.add_argument("--components", type=int)
    p.add_argument("--g", choices=sorted(GFAMILIES))
    p.add_argument("--alpha", type=float)
    p.add_argument("--seed", type=int, help=FASTICA_SEED_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_ica)

    p = sub.add_parser("rates", help="surrogate linearization rate study")
    p.add_argument("--g", choices=sorted(GFAMILIES))
    p.add_argument("--alpha", type=float)
    p.add_argument("--c-grid", dest="c_grid")
    p.add_argument("--delta", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_rates)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
