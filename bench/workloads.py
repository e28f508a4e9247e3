"""The benchmark workloads: inputs, one pass, and the output checks.

Every workload drives ``icaprobe.cli.main`` or the public API in-process.
Functions are looked up on their module at call time (``maxent.solve_f0``,
never a name copied at import), so a traced run sees the same calls as the
tracer's wrappers.  ``run_pass`` is the timed work; ``check`` reads its
outputs afterwards, untimed, and records one operation per checked item.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from icaprobe import cli, contrast, entropy, maxent
from icaprobe.errors import ConvergenceError

#: The CLI's sweep grid over [0, pi): one step is 0.5 degrees.
GRID = 360
STEP_DEG = 180.0 / GRID

#: Vertical bands in the first coordinate make theta = 90 degrees
#: (w = (1, 0)) the structured direction, whatever the seed.
BAND_DIRECTION_DEG = 90.0


@dataclass
class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def _cli(tally: Tally, *argv) -> int:
    """Run one CLI command in-process; a nonzero exit or a raise fails it."""
    try:
        code = cli.main([str(a) for a in argv])
    except Exception as err:  # the CLI maps its own errors to exit codes
        tally.record(False, f"{argv[0]} raised {type(err).__name__}: {err}")
        return -1
    tally.record(code == 0, f"{argv[0]} exited {code}")
    return code


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path):
    header = path.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: rows[:, j] for j, name in enumerate(header)}


def _argmax_deg(cols, name: str) -> float:
    return math.degrees(float(cols["theta"][int(np.nanargmax(cols[name]))]))


class Workload:
    """One workload.  ``observe`` reads what a pass wrote; ``check`` judges it."""

    name = ""
    csv_outputs: tuple = ()

    def __init__(self, seed: int, workdir: Path, refs: dict):
        self.seed = seed
        self.dir = workdir
        self.refs = refs.get(self.name, {})
        self.seed_refs = self.refs.get("seeds", {}).get(str(seed), {})
        self.first_digests: dict = {}
        self.facts: dict = {}

    def prepare(self) -> None:
        """Make the inputs from the seed, outside the timed passes."""

    def run_pass(self, tally: Tally) -> None:
        raise NotImplementedError

    def _digests(self) -> dict:
        return {n: _sha256(self.dir / n) for n in self.csv_outputs}

    def observe(self) -> dict:
        return {"csv_sha256": self._digests()}

    def check(self, tally: Tally) -> None:
        """Outputs repeat byte for byte on every pass of a run.

        A difference from the stored digests of this seed is reported as a
        changed fingerprint, not a failure: a rounding-level change is
        allowed when declared, but must show.
        """
        digests = self._digests()
        first = {n: self.first_digests.setdefault(n, d) for n, d in digests.items()}
        tally.record(digests == first, "CSV digests differ between passes")
        stored = self.seed_refs.get("csv_sha256")
        if stored is not None:
            if any(stored.get(n) != d for n, d in digests.items()):
                self.facts["fingerprints"] = "differ"
            self.facts.setdefault("fingerprints", "match")


class _Banded(Workload):
    """Shared checks of the banded-Gaussian sweep and densities outputs."""

    densities: tuple = ()

    def observe(self) -> dict:
        cols = _read_csv(self.dir / "objectives.csv")
        obs = super().observe()
        obs["sweep"] = cols
        obs["argmax_deg"] = {
            name: _argmax_deg(cols, name) for name in ("j_mspacing", "j_hat_star")
        }
        obs["density_flagged"] = {}
        for direction in self.densities:
            dens = _read_csv(self.dir / f"density_{direction}.csv")
            obs["density_flagged"][direction] = bool(
                dens["f0_failed"].any() or not np.isfinite(dens["f0"]).all()
            )
        return obs

    def check(self, tally: Tally) -> None:
        obs = self.observe()
        cols = obs["sweep"]
        # one J[f0] operation per direction
        for theta, flag, v in zip(cols["theta"], cols["f0_failed"], cols["j_f0"]):
            tally.record(flag == 0 and math.isfinite(v), f"J[f0] flagged at theta={theta:.4f}")
        # the densities command solves J[f0] once
        for direction, flagged in obs["density_flagged"].items():
            tally.record(not flagged, f"{direction} density: flagged surrogate")
        argmax = obs["argmax_deg"]
        self.facts["argmax_deg"] = argmax
        tol = self.refs["band_argmax_tol_deg"]
        tally.record(
            abs(argmax["j_mspacing"] - BAND_DIRECTION_DEG) <= tol,
            f"m-spacing argmax {argmax['j_mspacing']:.1f} deg is not within {tol} deg "
            "of the band direction",
        )
        for name, want in self.seed_refs.get("argmax_deg", {}).items():
            tally.record(
                abs(argmax[name] - want) <= STEP_DEG + 1e-9,
                f"{name} argmax {argmax[name]:.2f} deg, reference {want:.2f} deg",
            )
        super().check(tally)


class Figures(_Banded):
    """The study figures plus two-component ica on n=2000 banded data."""

    name = "figures"
    densities = ("mspacing", "fastica")
    csv_outputs = (
        "points.csv",
        "objectives.csv",
        "density_mspacing.csv",
        "density_fastica.csv",
        "ica_fastica.csv",
        "ica_mspacing.csv",
    )

    def run_pass(self, tally: Tally) -> None:
        d = self.dir
        points = d / "points.csv"
        _cli(tally, "generate", "--n", 2000, "--seed", self.seed,
             "--out", points, "--svg", d / "points.svg")
        _cli(tally, "sweep", "--data", points, "--grid", GRID,
             "--out", d / "objectives.csv", "--svg", d / "objectives.svg")
        for direction in self.densities:
            _cli(tally, "densities", "--data", points, "--direction", f"{direction}-opt",
                 "--out", d / f"density_{direction}.csv",
                 "--svg", d / f"density_{direction}.svg")
        for method in ("fastica", "mspacing"):
            _cli(tally, "ica", "--data", points, "--method", method, "--components", 2,
                 "--out", d / f"ica_{method}.csv")

    def observe(self) -> dict:
        obs = super().observe()
        converged = _read_csv(self.dir / "ica_fastica.csv")["converged"]
        obs["fastica_nonconverged"] = int((converged != 1).sum())
        return obs

    def check(self, tally: Tally) -> None:
        """fastICA rows may fail to converge on the banded counterexample.

        Its contrast is nearly flat by design: 4 of seeds 0-99 leave one
        row unconverged.  The count is reported every run; it fails the
        check only where the seed's stored reference has a different count.
        """
        nonconverged = self.observe()["fastica_nonconverged"]
        self.facts["fastica_nonconverged_rows"] = nonconverged
        if "fastica_nonconverged" in self.seed_refs:
            want = self.seed_refs["fastica_nonconverged"]
            tally.record(
                nonconverged == want,
                f"{nonconverged} fastICA rows did not converge, reference {want}",
            )
        super().check(tally)


class LargeN(_Banded):
    """Sweep and the fastICA density at n=1e5: per-direction work grows with n."""

    name = "large-n"
    n = 100_000
    densities = ("fastica",)
    csv_outputs = ("objectives.csv", "density_fastica.csv")

    def prepare(self) -> None:
        scratch = Tally()
        _cli(scratch, "generate", "--n", self.n, "--seed", self.seed,
             "--out", self.dir / "points.csv")
        if scratch.failed:
            raise RuntimeError(f"input generation failed: {scratch.problems}")

    def run_pass(self, tally: Tally) -> None:
        d = self.dir
        _cli(tally, "sweep", "--data", d / "points.csv", "--grid", GRID,
             "--out", d / "objectives.csv")
        _cli(tally, "densities", "--data", d / "points.csv", "--direction", "fastica-opt",
             "--out", d / "density_fastica.csv")


SCAN_C = tuple(round(0.05 * i, 2) for i in range(-20, 21))
EPSILONS = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
G_FAMILIES = ("logcosh", "negexp")


def _attempt(fn):
    """fn() or the exception it raised; None for ConvergenceError."""
    try:
        return fn()
    except ConvergenceError:
        return None
    except Exception as err:
        return err


class Surrogate(Workload):
    """The surrogate solver with no sample data: the seed plays no part.

    A scan point the reference marks infeasible must raise
    ConvergenceError; that raise is the correct outcome, not a failure.
    """

    name = "surrogate"
    csv_outputs = tuple(f"rates_{g}{suffix}.csv" for g in G_FAMILIES for suffix in ("", "_slopes"))

    def run_pass(self, tally: Tally) -> None:
        self.scan: dict = {}
        self.mixture: dict = {}
        for g in G_FAMILIES:
            k = contrast.build_k(contrast.GFAMILIES[g]())
            self.scan[g] = [
                _attempt(lambda: entropy.ETA_1 - maxent.entropy_by_quadrature(
                    maxent.solve_f0(c, k), tol=1e-9))
                for c in SCAN_C
            ]
            _cli(tally, "rates", "--g", g, "--out", self.dir / f"rates_{g}.csv",
                 "--svg", self.dir / f"rates_{g}.svg")
            self.mixture[g] = [
                _attempt(lambda: maxent.uniform_mixture_case(eps, k).j_f0) for eps in EPSILONS
            ]

    def observe(self) -> dict:
        obs = super().observe()
        obs["scan_j_f0"] = self.scan
        obs["mixture_j_f0"] = self.mixture
        obs["slopes"] = {}
        for g in G_FAMILIES:
            lines = (self.dir / f"rates_{g}_slopes.csv").read_text().splitlines()[1:]
            obs["slopes"][g] = {k: float(v) for k, v in (line.split(",") for line in lines)}
        return obs

    def check(self, tally: Tally) -> None:
        obs = self.observe()
        tol = self.refs["j_abs_tol"]

        def same(got, want):
            if want is None:
                return got is None
            return isinstance(got, float) and abs(got - want) <= tol

        infeasible = 0
        for g in G_FAMILIES:
            for c, got, want in zip(SCAN_C, obs["scan_j_f0"][g], self.refs["scan_j_f0"][g]):
                infeasible += got is None
                tally.record(same(got, want), f"{g} scan c={c}: J[f0] {got!r}, reference {want!r}")
            for eps, got, want in zip(EPSILONS, obs["mixture_j_f0"][g], self.refs["mixture_j_f0"][g]):
                tally.record(
                    same(got, want),
                    f"{g} uniform mixture eps={eps}: J[f0] {got!r}, reference {want!r}",
                )
            for metric, (lo, hi) in self.refs["slope_ranges"].items():
                got = obs["slopes"][g][metric]
                tally.record(lo <= got <= hi, f"{g} {metric} slope {got:.3f} outside [{lo}, {hi}]")
        self.facts["scan_infeasible"] = f"{infeasible} of {len(G_FAMILIES) * len(SCAN_C)}"
        super().check(tally)


WORKLOADS = {w.name: w for w in (Figures, LargeN, Surrogate)}
