"""Correctness gates for the CSV rows a workload call writes.

Each gate returns one verdict per row. The gates run outside the timed
region and check the program's outputs against a second route:

* Monte Carlo rows against quadrature (`analytic.outage_bulk` and
  `analytic.outage_ps`) with an exact two-sided binomial test. A row
  fails when either tail probability of its outage count, under the
  reference p, is below TAIL, so a correct program fails a row with
  probability at most 2 * TAIL = 2e-6. The empty-topology count is
  tested the same way against the void probability exp(-lambda * area).
  The normal-approximation z is reported but not gated on: with n * p
  far below 1 a single observed outage gives a huge z although it is an
  ordinary event.
* alpha = 2 plane quadrature rows against the free-space closed forms,
  and every analytic row for ps <= bulk (per-subcarrier selection can
  only avoid outages that bulk selection avoids).
* Ratio rows: phi in (0, 1], and each epsilon row's exact density gives
  outage_ps / outage_bulk = epsilon.
* K-optimum rows: kappa(K_opt) >= kappa(K_opt +- 1) via
  `optimize.throughput`, with the outage ceiling for constrained rows.
"""
from __future__ import annotations

import math
import sys

from scipy import special

from relayfield import analytic, optimize
from relayfield.channel import SystemParams
from relayfield.geometry import Region, default_truncation_radius

from workloads import Call, grid

TAIL = 1e-6
# Closed-form agreement: worst measured abs difference 3.3e-12 and
# relative 2.1e-11 over the quad_grid alpha = 2 rows.
CLOSED_FORM_ABS = 1e-9
CLOSED_FORM_REL = 1e-6
RATIO_REL = 1e-6
# Figure presets: caption parameters, as hard-coded in the CLI.
FIGURE_PARAMS = dict(snr_budget=100.0, threshold=1.0, subcarriers=4, r_sd=5.0)
FIGURE_REGION = Region.disc(5.0)


def _f(row: dict, key: str) -> float:
    return float(row[key])


def _params(opts: dict, snr: float) -> SystemParams:
    return SystemParams(snr_budget=snr, path_loss=float(opts["alpha"]),
                        threshold=float(opts["s"]), subcarriers=int(opts["K"]),
                        r_sd=float(opts["rsd"]))


def _region(opts: dict) -> Region:
    if opts["region"] == "disc":
        return Region.disc(float(opts["sigma"]))
    return Region.plane()


def _report(call: Call, row: dict, reason: str) -> bool:
    print(f"gate: {call.opts['mode']} row {row}: {reason}", file=sys.stderr)
    return False


def binomial_ok(count: int, n: int, p: float) -> bool:
    """Two-sided exact binomial test of `count` successes in n at TAIL per side."""
    below = special.bdtr(count, n, p)                                # P(X <= count)
    above = special.bdtrc(count - 1, n, p) if count > 0 else 1.0     # P(X >= count)
    return min(below, above) >= TAIL


def _count(fraction: float, n: int) -> int | None:
    count = round(fraction * n)
    return count if abs(count / n - fraction) <= 1e-12 else None


def _grid_keys(opts: dict) -> set:
    return {(lam, snr) for lam in grid(opts["lambda"]) for snr in grid(opts["snr"])}


def _on_grid(row: dict, keys: set) -> bool:
    lam, snr = _f(row, "lambda"), _f(row, "snr")
    return any(math.isclose(lam, a, rel_tol=1e-12)
               and math.isclose(snr, b, rel_tol=1e-12) for a, b in keys)


def check_simulate(call: Call, rows: list[dict]) -> list[bool]:
    opts, keys, seen = call.opts, _grid_keys(call.opts), set()
    n = int(opts["trials"])
    region = _region(opts)
    verdicts = []
    for row in rows:
        key = (row["lambda"], row["snr"], row["scheme"])
        if key in seen or not _on_grid(row, keys) or row["scheme"] not in ("bulk", "ps"):
            verdicts.append(_report(call, row, "not an expected grid point"))
            continue
        seen.add(key)
        lam, snr = _f(row, "lambda"), _f(row, "snr")
        params = _params(opts, snr)
        outage = analytic.outage_bulk if row["scheme"] == "bulk" else analytic.outage_ps
        p = outage(params, region, lam)
        outages = _count(_f(row, "p_outage"), n)
        empties = _count(_f(row, "empty_fraction"), n)
        radius = (float(opts["sigma"]) if opts["region"] == "disc"
                  else default_truncation_radius(snr, params.threshold,
                                                 params.path_loss))
        void = math.exp(-lam * math.pi * radius * radius)
        if outages is None or empties is None:
            verdicts.append(_report(call, row, "fractions are not counts of trials"))
        elif not binomial_ok(outages, n, p):
            z = (outages / n - p) / math.sqrt(max(p * (1.0 - p), 1e-300) / n)
            verdicts.append(_report(call, row, f"p_hat vs quadrature p={p!r}, z={z:.2f}"))
        elif not binomial_ok(empties, n, void):
            verdicts.append(_report(call, row, f"empty fraction vs void probability {void!r}"))
        else:
            verdicts.append(True)
    return verdicts


def check_analytic(call: Call, rows: list[dict]) -> list[bool]:
    opts, keys = call.opts, _grid_keys(call.opts)
    closed = opts["region"] == "plane" and float(opts["alpha"]) == 2.0
    by_point: dict = {}
    for row in rows:
        by_point.setdefault((row["lambda"], row["snr"]), {})[row["scheme"]] = row
    verdicts = []
    for row in rows:
        p = _f(row, "p_outage")
        pair = by_point[(row["lambda"], row["snr"])]
        if not _on_grid(row, keys) or set(pair) != {"bulk", "ps"}:
            verdicts.append(_report(call, row, "not an expected grid point"))
            continue
        if not 0.0 <= p <= 1.0:
            verdicts.append(_report(call, row, "outage outside [0, 1]"))
            continue
        if _f(pair["ps"], "p_outage") > _f(pair["bulk"], "p_outage") + CLOSED_FORM_ABS:
            verdicts.append(_report(call, row, "per-subcarrier outage above bulk"))
            continue
        if closed:
            params = _params(opts, _f(row, "snr"))
            form = (analytic.outage_bulk_plane_freespace if row["scheme"] == "bulk"
                    else analytic.outage_ps_plane_freespace)
            ref = form(params, _f(row, "lambda"))
            diff = abs(p - ref)
            if diff > CLOSED_FORM_ABS or diff > CLOSED_FORM_REL * ref + 1e-300:
                verdicts.append(_report(call, row, f"closed form gives {ref!r}"))
                continue
        verdicts.append(True)
    return verdicts


def check_ratio(call: Call, rows: list[dict]) -> list[bool]:
    opts = call.opts
    params = _params(opts, float(opts["snr"]))
    region = _region(opts)
    verdicts = []
    for row in rows:
        if row.get("epsilon"):
            eps, lam = _f(row, "epsilon"), _f(row, "lambda_exact")
            ratio = (analytic.outage_ps(params, region, lam)
                     / analytic.outage_bulk(params, region, lam)) if lam > 0 else math.nan
            ok = math.isclose(ratio, eps, rel_tol=RATIO_REL)
            verdicts.append(ok or _report(call, row, f"phi(lambda_exact) = {ratio!r}"))
        else:
            phi = _f(row, "phi")
            verdicts.append(0.0 < phi <= 1.0 + 1e-12
                            or _report(call, row, "phi outside (0, 1]"))
    return verdicts


def _k_opt_ok(params: SystemParams, region: Region, lam: float, k: int,
              psi: float | None) -> bool:
    def kappa(n: int) -> float:
        return optimize.throughput(n, params, region, lam)

    def phi(n: int) -> float:
        return analytic.outage_bulk(params, region, lam, subcarriers=n)

    best = kappa(k) * (1.0 + 1e-12)
    below_ok = k == 1 or best >= kappa(k - 1)
    above_ok = best >= kappa(k + 1) or (psi is not None and phi(k + 1) > psi)
    return below_ok and above_ok and (psi is None or phi(k) <= psi)


def _infeasible_ok(params: SystemParams, region: Region, lam: float, psi: float) -> bool:
    floor = analytic.outage_floor(lam, region.area) if region.kind == "disc" else 0.0
    return psi < floor or analytic.outage_bulk(params, region, lam, subcarriers=1) > psi


def check_k_opt(call: Call, rows: list[dict]) -> list[bool]:
    opts = call.opts
    verdicts = []
    for row in rows:
        if opts["mode"] == "figure":
            region = FIGURE_REGION
            alpha = _f(row, "alpha") if "alpha" in row else 2.0
            params = SystemParams(path_loss=alpha, **FIGURE_PARAMS)
            psi = _f(row, "psi") if "psi" in row else None
        else:
            region = _region(opts)
            params = _params(opts, float(opts["snr"]))
            psi = float(opts["psi"])
        lam, k = _f(row, "lambda"), int(row["K_opt"])
        feasible = row.get("feasible", "1") == "1"
        if feasible:
            ok = k >= 1 and _k_opt_ok(params, region, lam, k, psi)
        else:
            ok = k == 0 and psi is not None and _infeasible_ok(params, region, lam, psi)
        verdicts.append(ok or _report(call, row, "K_opt is not a local optimum"))
    return verdicts


GATES = {"simulate": check_simulate, "analytic": check_analytic,
         "ratio": check_ratio, "optimize-k": check_k_opt, "figure": check_k_opt}


def check(call: Call, rows: list[dict]) -> list[bool]:
    """One verdict per row of `call`'s CSV output."""
    return GATES[call.opts["mode"]](call, rows)
