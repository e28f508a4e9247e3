"""Command-line front end.

Subcommands cover the full study: ``generate`` (banded-Gaussian data),
``sweep`` (contrast curves over the half circle), ``densities`` (projected
density against its surrogate), ``ica`` (fastICA or m-spacing loadings),
and ``rates`` (convergence-rate study of the surrogate linearization).

Every setting is declared once, in :data:`OPTIONS`, which makes it both a
flag and a manifest key.  Every command writes CSV data plus a plain-text
manifest of resolved configuration and output digests; a manifest can be
fed back through ``--config`` to replay the run byte for byte.  Explicit
flags win over config-file values.  Exit codes: 0 success (including
flagged partial results), 2 invalid arguments, 3 numerical failure, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import datagen, manifest, svgplot
from .contrast import GFAMILIES, build_k, c_value, fastica_contrast, logcosh
from .entropy import kde, mspacing_negentropy
from .errors import (
    AccuracyError,
    ConvergenceError,
    GenerationError,
    InfeasibleConstraintError,
    OptimizationError,
)
from .fastica import deflation
from .maxent import (
    LinearizedDensity,
    entropy_by_quadrature,
    hat_entropy,
    rate_fit,
    solve_f0,
    sup_error,
)
from .projsearch import ALL_CONTRASTS, mspacing_components, optimize_direction, sweep
from .whiten import whiten

_NUMERIC_ERRORS = (ConvergenceError, OptimizationError, GenerationError, AccuracyError)

FASTICA_SEED_HELP = "fastICA restart seed; the m-spacing search is deterministic and ignores it"


def _g17(v) -> str:
    return format(float(v), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_g17(v) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _parse_bands(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    intervals = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        intervals.append((float(lo), float(hi)))
    return tuple(intervals)


def _bands_str(bands) -> str:
    return ",".join(f"{lo:g}:{hi:g}" for lo, hi in bands)


_DATA = ("", {"help": "input CSV, one column per coordinate"})
_G = ("logcosh", {"choices": sorted(GFAMILIES), "help": "contrast nonlinearity G"})
_ALPHA = (1.0, {"help": "logcosh scale, in [1, 2]; the other G families ignore it"})
_SEED = (0, {"help": FASTICA_SEED_HELP})

#: command -> {key: (default, extra add_argument keywords)}.  Each key is
#: the flag ``--key`` (``_`` written as ``-``), typed like its default, and
#: the manifest key; values merge as defaults < --config file < flags.
OPTIONS = {
    "generate": {
        "n": (2000, {"help": "points to keep, at least 10"}),
        "bands": (
            _bands_str(datagen.DEFAULT_BANDS),
            {"help": 'vertical bands "lo:hi,lo:hi"; empty for none'},
        ),
        "seed": (42, {"help": "seed of the reproducible sample stream"}),
        "max_rounds": (100, {"help": "sampling rounds, at least 1, before giving up with exit 3"}),
    },
    "sweep": {
        "data": _DATA,
        "grid": (360, {"help": "number of directions over [0, pi), at least 8"}),
        "g": _G,
        "alpha": _ALPHA,
        "m": ("auto", {"help": 'spacing parameter or "auto" for the sqrt rule'}),
    },
    "densities": {
        "data": _DATA,
        "direction": ("mspacing-opt", {"help": "angle in radians, mspacing-opt, or fastica-opt"}),
        "g": _G,
        "alpha": _ALPHA,
        "seed": _SEED,
    },
    "ica": {
        "data": _DATA,
        "method": ("fastica", {"choices": ("fastica", "mspacing"), "help": "ICA algorithm"}),
        "components": (1, {"help": "loadings to extract, 1 to the number of data columns"}),
        "g": _G,
        "alpha": _ALPHA,
        "seed": _SEED,
    },
    "rates": {
        "g": _G,
        "alpha": _ALPHA,
        "c_grid": ("0.16,0.08,0.04,0.02", {"help": "4 or more comma-separated values c > 0"}),
        "delta": (0.05, {"help": "sup-norm weight exp(delta x^2), delta in (0, 1/2)"}),
    },
}


def _g_function(cfg):
    name = cfg["g"]
    if name not in GFAMILIES:
        raise ValueError(f"unknown G family {name!r}")
    if name == "logcosh":
        return logcosh(float(cfg.get("alpha", 1.0)))
    return GFAMILIES[name]()


def _whitened_data(cfg) -> np.ndarray:
    if not cfg["data"]:
        raise ValueError("--data is required")
    return whiten(np.loadtxt(cfg["data"], delimiter=",", skiprows=1, ndmin=2))[0]


def _svg(path, figure, files) -> None:
    """Write ``figure()`` to ``path`` and list it in ``files``; no path, no figure."""
    if path:
        Path(path).write_text(figure(), encoding="utf-8")
        files.append(Path(path))


def cmd_generate(cfg, out, svg):
    """Banded-Gaussian counterexample data."""
    gen_cfg = datagen.GenConfig(
        n=int(cfg["n"]),
        bands=_parse_bands(cfg["bands"]),
        seed=int(cfg["seed"]),
        max_rounds=int(cfg["max_rounds"]),
    )
    data = datagen.gen_banded_gaussian(gen_cfg)
    _write_csv(out, ["x1", "x2"], [(float(a), float(b)) for a, b in data])
    files = [out]
    _svg(svg, lambda: svgplot.scatter(data[:, 0], data[:, 1], xlabel="x1", ylabel="x2"), files)
    cfg["rng"] = datagen.RNG_ALGORITHM
    cfg["band_check_frame"] = datagen.BAND_CHECK_FRAME
    return files


def cmd_sweep(cfg, out, svg):
    """Contrast curves over the half circle."""
    data = _whitened_data(cfg)
    g = _g_function(cfg)
    m = None if cfg["m"] == "auto" else int(cfg["m"])
    result = sweep(data, grid_size=int(cfg["grid"]), g=g, m=m)
    failed = result.f0_failed.astype(int)
    cfg["f0_failed"] = str(failed.sum())
    cfg["f0_newton_iterations"] = str(result.f0_iterations.sum())
    rows = zip(result.thetas, *(result.values[name] for name in ALL_CONTRASTS), failed)
    _write_csv(out, ["theta", *ALL_CONTRASTS, "f0_failed"], rows)

    def figure():
        theta_m, _ = result.argmax("j_mspacing")
        theta_f, _ = result.argmax("j_hat_star")
        panels = [
            ("J m-spacing", result.thetas, result.values["j_mspacing"], "solid"),
            ("J[f0]", result.thetas, result.values["j_f0"], "dashed"),
            ("Jhat*", result.thetas, result.values["j_hat_star"], "dotted"),
        ]
        vlines = [(theta_m, "solid"), (theta_f, "dotted")]
        return svgplot.stacked_panels(panels, xlabel="theta (radians)", vlines=vlines)

    files = [out]
    _svg(svg, figure, files)
    return files


DENSITY_GRID = np.round(np.arange(-400, 401) * 0.01, 2)


def cmd_densities(cfg, out, svg):
    """Projected density vs surrogate."""
    data = _whitened_data(cfg)
    g = _g_function(cfg)
    k = build_k(g)
    p = data.shape[1]
    choice = cfg["direction"]
    if choice == "mspacing-opt":
        w = optimize_direction(data, lambda w: mspacing_negentropy(data @ w))
    elif choice == "fastica-opt":
        w = deflation(data, 1, g, int(cfg["seed"])).W[0]
    else:
        theta = float(choice)
        if p != 2:
            raise ValueError(f"an angle direction needs data with 2 columns, got {p}")
        w = np.array([math.sin(theta), math.cos(theta)])
    y = data @ w
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
    rows = zip(grid, kde_vals, f0_vals, hat_vals, [failed] * len(grid))
    _write_csv(out, ["x", "kde_f", "f0", "hat_f0", "f0_failed"], rows)
    curves = [("density of projection", grid, kde_vals, "solid")]
    if not failed:
        curves.append(("surrogate f0", grid, f0_vals, "dotted"))
    files = [out]
    _svg(svg, lambda: svgplot.overlay(curves, xlabel="x", ylabel="density"), files)
    if p == 2:  # an angle names a direction only in the plane
        cfg["resolved_direction"] = _g17(math.atan2(w[0], w[1]) % math.pi)
    return files


def cmd_ica(cfg, out, svg):
    """Extract loadings."""
    data = _whitened_data(cfg)
    g = _g_function(cfg)
    components = int(cfg["components"])
    if cfg["method"] == "fastica":
        loadings = deflation(data, components, g, int(cfg["seed"]))
        W = loadings.W
        converged = loadings.converged
        iterations = loadings.iterations
        contrast_vals = [fastica_contrast(data @ w, g) for w in W]
    elif cfg["method"] == "mspacing":
        W = mspacing_components(data, components)
        converged = np.ones(components, dtype=bool)
        iterations = np.zeros(components, dtype=int)
        contrast_vals = [mspacing_negentropy(data @ w) for w in W]
    else:
        raise ValueError(f"unknown method {cfg['method']!r}")
    header = (
        ["component"]
        + [f"w{j + 1}" for j in range(data.shape[1])]
        + ["converged", "iterations", "contrast"]
    )
    rows = [
        [i] + [float(v) for v in W[i]] + [int(converged[i]), int(iterations[i]), float(contrast_vals[i])]
        for i in range(components)
    ]
    _write_csv(out, header, rows)
    return [out]


def cmd_rates(cfg, out, svg):
    """Surrogate linearization rate study."""
    g = _g_function(cfg)
    k = build_k(g)
    delta = float(cfg["delta"])
    c_grid = [float(v) for v in cfg["c_grid"].split(",")]
    # checked before the first solve, so that bad input writes no file
    if not all(math.isfinite(c) for c in c_grid):
        raise ValueError("c must be finite")
    if len(c_grid) < 4 or min(c_grid) <= 0:
        raise ValueError(f"--c-grid needs 4 or more values c > 0, got {cfg['c_grid']}")
    if not 0.0 < delta < 0.5:  # false for nan and inf too
        raise ValueError(f"--delta must be in (0, 1/2), got {cfg['delta']}")
    solves = solve_f0(c_grid, k)
    for d in solves:  # the first failure in grid order decides the exit
        if isinstance(d, InfeasibleConstraintError):  # the c-grid is input, not a solver gap
            raise ValueError(str(d)) from d
        if isinstance(d, ConvergenceError):
            raise d
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    rows = []
    for c, d in zip(c_grid, solves):
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
    header = ["c", "sup_error", "err_amplitude", "err_kappa", "err_zeta", "err_a", "entropy_remainder"]
    _write_csv(out, header, rows)
    cols = dict(zip(header, np.array(rows).T))
    slope_rows = [  # nan marks a column at exact zero
        (name, rate_fit(cols["c"], vals) if np.all(vals > 0) else math.nan)
        for name, vals in list(cols.items())[1:]
    ]
    slopes_path = out.with_name(out.stem + "_slopes" + out.suffix)
    _write_csv(slopes_path, ["metric", "slope"], slope_rows)
    series = [
        ("sup_error", cols["c"], cols["sup_error"], "solid"),
        ("entropy_remainder", cols["c"], cols["entropy_remainder"], "dashed"),
        ("|a - c|", cols["c"], cols["err_a"], "dotted"),
    ]
    files = [out, slopes_path]
    _svg(svg, lambda: svgplot.loglog(series, xlabel="c", ylabel="error"), files)
    return files


#: keys a command adds to its manifest for the record; a replay skips them
_RECORD_KEYS = {
    "rng", "band_check_frame", "resolved_direction", "f0_failed", "f0_newton_iterations",
}


def _command(name: str):
    # looked up when called, not at import, so that a rebinding of cli.cmd_*
    # after import (bench/tracer.py wraps each in a timing span) takes effect
    return globals()[f"cmd_{name}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icaprobe",
        description="fastICA approximation ladder, m-spacing ICA, and the banded counterexample",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in OPTIONS.items():
        p = sub.add_parser(name, help=_command(name).__doc__)
        for key, (default, extra) in options.items():
            p.add_argument("--" + key.replace("_", "-"), type=type(default), **extra)
        p.add_argument("--config", help="key=value file merged under explicit flags")
        p.add_argument("--out", required=True, help="output CSV path")
        if name != "ica":  # loadings have no figure
            p.add_argument("--svg", help="optional SVG figure path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    options = OPTIONS[args.command]
    try:
        cfg = {key: str(default) for key, (default, _) in options.items()}
        if args.config:
            fromfile = manifest.read_config(args.config)
            if unknown := sorted(fromfile.keys() - options.keys() - _RECORD_KEYS):
                raise ValueError(f"{args.command} takes no --config key {', '.join(unknown)}")
            cfg.update({k: v for k, v in fromfile.items() if k in options})
        cfg.update({k: str(v) for k in options if (v := getattr(args, k)) is not None})
        out = Path(args.out)
        files = _command(args.command)(cfg, out, getattr(args, "svg", None))
        manifest.write_manifest(out.with_suffix(out.suffix + ".manifest"), args.command, cfg, files)
        return 0
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
