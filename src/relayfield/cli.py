"""Command-line sweeps: config parsing, CSV emission, figure presets.

Runs are batch-style: a mode, a parameter grid, a CSV output with a
`.meta` text sidecar recording the fully resolved configuration. Exit
codes: 0 success, 1 validation error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, analytic, metrics, optimize
from .channel import SystemParams
from .geometry import Region, default_truncation_radius
from .simulation import OutageEstimate, Scheme, estimate_outage_both

MODES = ("simulate", "analytic", "asymptotic", "ratio", "diversity",
         "optimize-k", "figure")
FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")


class ValidationError(ValueError):
    """All configuration problems found, not just the first."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class NumericalFailure(RuntimeError):
    pass


@dataclass
class ExperimentConfig:
    mode: str
    scheme: str = "bulk"
    densities: list[float] = field(default_factory=lambda: [1.0])
    snrs: list[float] = field(default_factory=lambda: [100.0])
    region_kind: str = "disc"
    sigma: float = 5.0
    rmax: float | None = None
    rsd: float = 5.0
    subcarriers: int = 4
    alpha: float = 2.0
    threshold: float = 1.0
    trials: int = 100_000
    seed: int = 1
    workers: int = 1
    psi: float | None = None
    epsilons: list[float] = field(default_factory=list)
    output: str = "out.csv"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    figure: str | None = None
    verify: bool = False
    connection: bool = False

    def system_params(self, subcarriers: int | None = None,
                      alpha: float | None = None) -> SystemParams:
        return SystemParams(snr_budget=self.snrs[0],
                            path_loss=self.alpha if alpha is None else alpha,
                            threshold=self.threshold,
                            subcarriers=subcarriers or self.subcarriers,
                            r_sd=self.rsd)

    def region(self, params: SystemParams) -> Region:
        if self.region_kind == "disc":
            return Region.disc(self.sigma)
        rmax = self.rmax
        if rmax is None:
            rmax = default_truncation_radius(params.snr_budget,
                                             params.threshold,
                                             params.path_loss)
        return Region.plane(truncation_radius=rmax)

    def quadrature(self) -> analytic.QuadratureSettings:
        return analytic.QuadratureSettings(abs_tol=self.abs_tol,
                                           rel_tol=self.rel_tol)


def _parse_float_list(text: str) -> list[float]:
    """Comma list, or lo:hi:n for a log-spaced grid."""
    if ":" in text:
        lo, hi, n = text.split(":")
        return list(np.geomspace(float(lo), float(hi), int(n)))
    return [float(x) for x in text.split(",")]


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(
                    [f"{path}:{lineno}: expected 'key = value'"])
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="relayfield",
        description="Outage/throughput sweeps for two-hop OFDM networks "
                    "over Poisson relay fields")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--config", help="key = value config file; flags override")
    p.add_argument("--scheme", choices=("bulk", "ps", "both"))
    p.add_argument("--lambda", dest="densities", metavar="LIST",
                   help="relay densities (comma list or lo:hi:n log grid)")
    p.add_argument("--snr", metavar="LIST",
                   help="P_t/N_0 values, linear (comma list or lo:hi:n)")
    p.add_argument("--snr-db", metavar="LIST",
                   help="P_t/N_0 values in dB (converted to linear)")
    p.add_argument("--region", dest="region_kind", choices=("disc", "plane"))
    p.add_argument("--sigma", type=float, help="disc radius")
    p.add_argument("--rmax", type=float,
                   help="plane truncation radius (simulation only)")
    p.add_argument("--rsd", type=float, help="source-destination distance")
    p.add_argument("--K", dest="subcarriers", type=int)
    p.add_argument("--alpha", type=float, help="path loss exponent (>= 2)")
    p.add_argument("--s", dest="threshold", type=float,
                   help="SNR threshold, linear")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--psi", type=float, help="outage ceiling for optimize-k")
    p.add_argument("--epsilon", dest="epsilons", metavar="LIST",
                   help="ratio targets for mode ratio")
    p.add_argument("--output", help="CSV output path")
    p.add_argument("--abs-tol", type=float)
    p.add_argument("--rel-tol", type=float)
    p.add_argument("--figure", choices=FIGURES)
    p.add_argument("--verify", action="store_true", default=None,
                   help="simulate mode: check 3-sigma agreement vs quadrature")
    p.add_argument("--connection", action="store_true", default=None,
                   help="emit connection probability (1 - outage) columns")
    return p


_BOOL_KEYS = ("verify", "connection")

# config files accept the flag spellings too
_FILE_KEY_ALIASES = {"K": "subcarriers", "s": "threshold",
                     "lambda": "densities", "region": "region_kind",
                     "epsilon": "epsilons"}


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Build a validated config from flags plus an optional config file."""
    ns = _build_parser().parse_args(argv)
    cfg = ExperimentConfig(mode="analytic")
    problems: list[str] = []

    merged: dict[str, str] = {}
    if ns.config:
        try:
            merged.update(_read_config_file(ns.config))
        except OSError as exc:
            raise ValidationError([f"cannot read config file: {exc}"])
    for key in list(merged):
        if key in _FILE_KEY_ALIASES:
            merged[_FILE_KEY_ALIASES[key]] = merged.pop(key)
    known = set(vars(cfg)) | {"snr", "snr_db"}
    for key in list(merged):
        if key not in known:
            problems.append(f"unknown config key {key!r}")
            merged.pop(key)

    def take(name: str, cast, file_key: str | None = None):
        flag_val = getattr(ns, name, None)
        if flag_val is not None:
            return flag_val
        fk = file_key or name
        if fk in merged:
            try:
                return cast(merged[fk])
            except ValueError as exc:
                problems.append(f"config key {fk!r}: {exc}")
        return None

    for name, cast in (("mode", str), ("scheme", str),
                       ("region_kind", str), ("sigma", float),
                       ("rmax", float), ("rsd", float),
                       ("subcarriers", int), ("alpha", float),
                       ("threshold", float), ("trials", int),
                       ("seed", int), ("workers", int), ("psi", float),
                       ("output", str), ("abs_tol", float),
                       ("rel_tol", float), ("figure", str)):
        val = take(name, cast)
        if val is not None:
            setattr(cfg, name, val)

    for flag, attr in (("densities", "densities"), ("epsilons", "epsilons")):
        raw = getattr(ns, flag, None) or merged.get(attr)
        if raw is not None:
            try:
                setattr(cfg, attr, _parse_float_list(raw))
            except ValueError:
                problems.append(f"cannot parse list {flag!r}: {raw!r}")
    snr_raw = ns.snr or merged.get("snr")
    snr_db_raw = ns.snr_db or merged.get("snr_db")
    if snr_raw is not None:
        try:
            cfg.snrs = _parse_float_list(snr_raw)
        except ValueError:
            problems.append(f"cannot parse --snr: {snr_raw!r}")
    elif snr_db_raw is not None:
        try:
            cfg.snrs = [10.0 ** (db / 10.0)
                        for db in _parse_float_list(snr_db_raw)]
        except ValueError:
            problems.append(f"cannot parse --snr-db: {snr_db_raw!r}")
    for name in _BOOL_KEYS:
        flag_val = getattr(ns, name)
        if flag_val is not None:
            setattr(cfg, name, flag_val)
        elif name in merged:
            setattr(cfg, name, merged[name].lower() in ("1", "true", "yes"))

    if ns.mode is None and "mode" not in merged:
        problems.append("--mode is required")
    if cfg.mode not in MODES:
        problems.append(f"unknown mode {cfg.mode!r}")
    if cfg.mode == "figure" and cfg.figure is None:
        problems.append("mode figure requires --figure")
    if cfg.alpha < 2:
        problems.append(f"alpha must be >= 2, got {cfg.alpha}")
    if cfg.subcarriers < 1:
        problems.append("K must be >= 1")
    if cfg.threshold <= 0:
        problems.append("s must be > 0")
    if cfg.sigma <= 0:
        problems.append("sigma must be > 0")
    if cfg.rsd <= 0:
        problems.append("rsd must be > 0")
    if cfg.trials < 1:
        problems.append("trials must be >= 1")
    if cfg.workers < 1:
        problems.append("workers must be >= 1")
    if any(d < 0 for d in cfg.densities):
        problems.append("densities must be >= 0")
    if any(v <= 0 for v in cfg.snrs):
        problems.append("snr values must be > 0")
    if cfg.psi is not None and not 0 < cfg.psi <= 1:
        problems.append("psi must be in (0, 1]")
    if cfg.scheme not in ("bulk", "ps", "both"):
        problems.append(f"unknown scheme {cfg.scheme!r}")

    if problems:
        raise ValidationError(problems)
    return cfg


def connection_probability_view(p_outage: float) -> float:
    """Connection probability 1 - outage (log-friendly at small density)."""
    if not 0 <= p_outage <= 1:
        raise ValueError("p_outage must be in [0, 1]")
    return 1.0 - p_outage


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_meta(path: str, cfg: ExperimentConfig, extra: dict) -> None:
    items = {"tool_version": __version__, **vars(cfg), **extra}
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        for key, val in items.items():
            fh.write(f"{key} = {val}\n")


def _schemes(cfg: ExperimentConfig) -> list[Scheme]:
    if cfg.scheme == "both":
        return [Scheme.BULK, Scheme.PER_SUBCARRIER]
    return [Scheme.BULK if cfg.scheme == "bulk" else Scheme.PER_SUBCARRIER]


def _analytic_outage(params, region, density, scheme, q) -> float:
    if scheme is Scheme.BULK:
        return analytic.outage_bulk(params, region, density, q)
    return analytic.outage_ps(params, region, density, q)


def _within_3_sigma(est: OutageEstimate, ref: float) -> bool:
    """Whether a Monte Carlo estimate agrees with the exact outage ref.

    The standard error is also taken from ref itself: the plug-in one is
    0 whenever no outage was observed, which is common and correct when
    ref is far below 1/trials.
    """
    se = max(est.stderr,
             math.sqrt(max(ref * (1.0 - ref), 0.0) / est.trials), 1e-12)
    return abs(est.p_hat - ref) <= 3.0 * se


def _grid_rows(cfg: ExperimentConfig, simulate: bool,
               asymptotic: bool = False) -> tuple[list[str], list[dict], dict]:
    q = cfg.quadrature()
    rows = []
    meta: dict = {}
    mismatches = 0
    for density in cfg.densities:
        for snr in cfg.snrs:
            params = replace(cfg.system_params(), snr_budget=snr)
            region = cfg.region(params)
            if region.kind == "plane":
                meta["r_max"] = region.truncation_radius
            analytic_region = (Region.plane() if cfg.region_kind == "plane"
                               else region)
            if simulate:
                both = estimate_outage_both(params, region, density,
                                            cfg.trials, cfg.seed,
                                            n_workers=cfg.workers)
            for scheme in _schemes(cfg):
                row = {"lambda": density, "snr": snr,
                       "snr_db": 10.0 * math.log10(snr),
                       "K": params.subcarriers, "alpha": params.path_loss,
                       "s": params.threshold, "scheme": scheme.value}
                if simulate:
                    est = both[scheme]
                    row["p_outage"] = est.p_hat
                    row["stderr"] = est.stderr
                    row["empty_fraction"] = est.empty_fraction
                    if cfg.verify:
                        ref = _analytic_outage(params, analytic_region,
                                               density, scheme, q)
                        row["p_analytic"] = ref
                        ok = _within_3_sigma(est, ref)
                        row["verify_ok"] = ok
                        mismatches += 0 if ok else 1
                elif asymptotic:
                    sigma = cfg.sigma
                    if scheme is Scheme.BULK:
                        row["p_outage"] = analytic.asymptotic_bulk_disc(
                            params, density, sigma)
                    else:
                        row["p_outage"] = analytic.asymptotic_ps_disc(
                            params, density, sigma)
                else:
                    row["p_outage"] = _analytic_outage(
                        params, analytic_region, density, scheme, q)
                if cfg.connection:
                    row["connection"] = connection_probability_view(
                        min(max(row["p_outage"], 0.0), 1.0))
                rows.append(row)
    columns = ["lambda", "snr", "snr_db", "K", "alpha", "s", "scheme",
               "p_outage"]
    if simulate:
        columns += ["stderr", "empty_fraction"]
        if cfg.verify:
            columns += ["p_analytic", "verify_ok"]
            meta["verify_mismatches"] = mismatches
    if cfg.connection:
        columns.append("connection")
    return columns, rows, meta


def _ratio_rows(cfg: ExperimentConfig):
    q = cfg.quadrature()
    params = cfg.system_params()
    region = (Region.plane() if cfg.region_kind == "plane"
              else Region.disc(cfg.sigma))
    rows = []
    for density in cfg.densities:
        res = metrics.outage_ratio(params, region, density, q)
        rows.append({"lambda": density, "phi": res.phi,
                     "phi_approx": res.phi_approx})
    for eps in cfg.epsilons:
        res = metrics.min_density_for_advantage(eps, params, region, q)
        rows.append({"lambda": res.density_exact, "phi": eps,
                     "epsilon": eps,
                     "lambda_exact": res.density_exact,
                     "lambda_approx": res.density_approx})
    columns = ["lambda", "phi", "phi_approx"]
    if cfg.epsilons:
        columns += ["epsilon", "lambda_exact", "lambda_approx"]
    return columns, rows, {}


def _diversity_rows(cfg: ExperimentConfig):
    q = cfg.quadrature()
    rows = []
    if len(cfg.snrs) < 2:
        raise ValidationError(["mode diversity needs at least two --snr points"])
    for density in cfg.densities:
        for lo, hi in zip(cfg.snrs[:-1], cfg.snrs[1:]):
            def log_curve(snr: float) -> float:
                params = replace(cfg.system_params(), snr_budget=snr)
                region = (Region.plane() if cfg.region_kind == "plane"
                          else Region.disc(cfg.sigma))
                return analytic.log_outage_bulk(params, region, density, q)
            est = metrics.diversity_slope(log_curve, lo, hi, log_domain=True)
            rows.append({"lambda": density, "snr_lo": lo, "snr_hi": hi,
                         "slope": est.slope})
    return ["lambda", "snr_lo", "snr_hi", "slope"], rows, {}


def _optimize_rows(cfg: ExperimentConfig):
    q = cfg.quadrature()
    params = cfg.system_params()
    region = (Region.plane() if cfg.region_kind == "plane"
              else Region.disc(cfg.sigma))
    rows = []
    meta = {}
    for density in cfg.densities:
        if cfg.psi is not None:
            res = optimize.optimize_K_constrained(params, region, density,
                                                  cfg.psi, q)
        else:
            res = optimize.optimize_K_unconstrained(params, region, density, q)
        rows.append({"lambda": density, "K_relaxed": res.k_relaxed,
                     "K_opt": res.k_opt, "kappa_opt": res.kappa_opt,
                     "feasible": res.feasible})
    if cfg.psi is not None:
        meta["cutoff_density"] = optimize.cutoff_density(cfg.psi, params,
                                                         region, q)
    return (["lambda", "K_relaxed", "K_opt", "kappa_opt", "feasible"],
            rows, meta)


def _figure_rows(cfg: ExperimentConfig):
    """Figure-reproduction presets; caption parameters are hard-coded,
    abscissa grids are round log/linear grids."""
    base = dict(threshold=1.0, r_sd=5.0)
    sigma = 5.0
    q = cfg.quadrature()
    name = cfg.figure
    rows: list[dict] = []
    meta: dict = {"figure": name}

    if name == "fig2":
        # kappa(K, lambda) surface, bulk, alpha=2, P_t/N_0=100, disc
        for density in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0):
            for k in range(1, 17):
                params = SystemParams(snr_budget=100.0, path_loss=2.0,
                                      subcarriers=k, **base)
                kappa = optimize.throughput(k, params, Region.disc(sigma),
                                            density, q)
                rows.append({"lambda": density, "K": k, "kappa": kappa})
        return ["lambda", "K", "kappa"], rows, meta

    if name in ("fig3", "fig4"):
        # outage vs P_t/N_0; lambda=1, sigma=5, r_SD=5; K in {2,4},
        # alpha in {2,4}; fig3 = bulk, fig4 = per-subcarrier
        scheme = Scheme.BULK if name == "fig3" else Scheme.PER_SUBCARRIER
        density = 1.0
        for alpha in (2.0, 4.0):
            for k in (2, 4):
                params = SystemParams(snr_budget=1.0, path_loss=alpha,
                                      subcarriers=k, **base)
                for snr in np.geomspace(1.0, 1e4, 9):
                    params_i = replace(params, snr_budget=float(snr))
                    region = Region.disc(sigma)
                    p_exact = _analytic_outage(params_i, region, density,
                                               scheme, q)
                    est = estimate_outage_both(params_i, region, density,
                                               cfg.trials, cfg.seed,
                                               n_workers=cfg.workers)[scheme]
                    rows.append({"alpha": alpha, "K": k, "snr": float(snr),
                                 "snr_db": 10.0 * math.log10(snr),
                                 "p_analytic": p_exact,
                                 "p_sim": est.p_hat, "stderr": est.stderr})
        return (["alpha", "K", "snr", "snr_db", "p_analytic", "p_sim",
                 "stderr"], rows, meta)

    if name == "fig5":
        # connection probability vs density; P_t/N_0=100, K=4
        for alpha in (2.0, 4.0):
            params = SystemParams(snr_budget=100.0, path_loss=alpha,
                                  subcarriers=4, **base)
            region = Region.disc(sigma)
            for density in np.geomspace(1e-3, 2.0, 12):
                p_bulk = analytic.outage_bulk(params, region, float(density), q)
                p_ps = analytic.outage_ps(params, region, float(density), q)
                rows.append({"alpha": alpha, "lambda": float(density),
                             "connection_bulk": 1.0 - p_bulk,
                             "connection_ps": 1.0 - p_ps})
        return (["alpha", "lambda", "connection_bulk", "connection_ps"],
                rows, meta)

    if name == "fig6":
        # exact vs approximate minimum density over the advantage target;
        # caption gives sigma=5, r_SD=5, K=4; P_t/N_0=100 assumed (documented)
        params = SystemParams(snr_budget=100.0, path_loss=2.0,
                              subcarriers=4, **base)
        region = Region.disc(sigma)
        meta["assumed_snr"] = 100.0
        for epsbar in np.geomspace(1e-6, 1e-2, 9):
            res = metrics.min_density_for_advantage(1.0 - float(epsbar),
                                                    params, region, q)
            rows.append({"epsbar": float(epsbar),
                         "lambda_exact": res.density_exact,
                         "lambda_approx": res.density_approx})
        return ["epsbar", "lambda_exact", "lambda_approx"], rows, meta

    if name == "fig7":
        # unconstrained K_opt and max throughput vs density
        for alpha in (2.0, 4.0):
            params = SystemParams(snr_budget=100.0, path_loss=alpha,
                                  subcarriers=4, **base)
            region = Region.disc(sigma)
            for density in np.geomspace(0.05, 5.0, 13):
                res = optimize.optimize_K_unconstrained(params, region,
                                                        float(density), q)
                rows.append({"alpha": alpha, "lambda": float(density),
                             "K_relaxed": res.k_relaxed, "K_opt": res.k_opt,
                             "kappa_opt": res.kappa_opt})
        return (["alpha", "lambda", "K_relaxed", "K_opt", "kappa_opt"],
                rows, meta)

    if name == "fig8":
        # constrained K_opt vs density for outage ceilings
        params = SystemParams(snr_budget=100.0, path_loss=2.0,
                              subcarriers=4, **base)
        region = Region.disc(sigma)
        for psi in (1e-2, 1e-3, 1e-5):
            meta[f"cutoff_density_psi_{psi:g}"] = optimize.cutoff_density(
                psi, params, region, q)
            for density in np.geomspace(0.05, 5.0, 13):
                res = optimize.optimize_K_constrained(params, region,
                                                      float(density), psi, q)
                rows.append({"psi": psi, "lambda": float(density),
                             "K_opt": res.k_opt,
                             "feasible": res.feasible})
        return ["psi", "lambda", "K_opt", "feasible"], rows, meta

    raise ValidationError([f"unknown figure preset {name!r}"])


def run_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Execute the configured sweep and write CSV plus .meta sidecar."""
    if cfg.mode == "simulate":
        columns, rows, meta = _grid_rows(cfg, simulate=True)
    elif cfg.mode == "analytic":
        columns, rows, meta = _grid_rows(cfg, simulate=False)
    elif cfg.mode == "asymptotic":
        columns, rows, meta = _grid_rows(cfg, simulate=False, asymptotic=True)
    elif cfg.mode == "ratio":
        columns, rows, meta = _ratio_rows(cfg)
    elif cfg.mode == "diversity":
        columns, rows, meta = _diversity_rows(cfg)
    elif cfg.mode == "optimize-k":
        columns, rows, meta = _optimize_rows(cfg)
    elif cfg.mode == "figure":
        columns, rows, meta = _figure_rows(cfg)
    else:
        raise ValidationError([f"unknown mode {cfg.mode!r}"])
    _write_csv(cfg.output, columns, rows)
    _write_meta(cfg.output, cfg, meta)
    if cfg.mode == "simulate" and cfg.verify and meta.get("verify_mismatches"):
        raise NumericalFailure(
            f"{meta['verify_mismatches']} grid point(s) failed the "
            f"3-sigma agreement check")
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    try:
        rows = run_sweep(cfg)
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except (analytic.QuadratureError, analytic.NumericalInstabilityError,
            NumericalFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
