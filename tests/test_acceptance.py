"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either a hand-derivable closed form or pinned by
an independent oracle (Monte Carlo, exhaustive search, quadrature of the
defining integral).
"""
import hashlib
import math
import warnings

import pytest

from relayfield import (
    Region,
    Scheme,
    SystemParams,
    appendix_bound_T1,
    asymptotic_bulk_disc,
    asymptotic_ps_disc,
    cutoff_density_freespace,
    delta_k,
    diversity_slope,
    estimate_outage_both,
    log_outage_bulk,
    optimize_K,
    outage_bulk,
    outage_bulk_plane_freespace,
    outage_floor,
    outage_ps,
    outage_ratio,
    throughput,
)
from relayfield.analytic import log_outage_bulk_plane_freespace
from relayfield.cli import main as cli_main

DISC = Region.disc(5.0)


def _params(budget=100.0, alpha=2.0, k=4, s=1.0):
    return SystemParams(snr_budget=budget, path_loss=alpha, threshold=s,
                        subcarriers=k, r_sd=5.0)


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_mc_analytic_agreement():
    trials = 100_000
    failures = total = 0
    for density in (0.1, 1.0):
        for k in (2, 4):
            for alpha in (2.0, 4.0):
                for budget in (10.0, 100.0, 1000.0):
                    p = _params(budget=budget, alpha=alpha, k=k)
                    both = estimate_outage_both(p, DISC, density, trials,
                                                seed=2026)
                    for scheme, phi_fn in ((Scheme.BULK, outage_bulk),
                                           (Scheme.PER_SUBCARRIER, outage_ps)):
                        phi = phi_fn(p, DISC, density)
                        est = both[scheme]
                        # plug-in stderr collapses to 0 where the truth is
                        # far below 1/trials; fall back to the exact
                        # binomial standard error in that regime
                        se = max(est.stderr,
                                 math.sqrt(phi * (1.0 - phi) / trials))
                        total += 1
                        failures += abs(est.p_hat - phi) > 3.0 * se
    ok = failures <= math.floor(0.05 * total)
    _report(1, ok, f"{failures}/{total} points outside 3 sigma")
    assert ok


def test_criterion_2_closed_form_spot_values():
    p = _params()
    checks = [
        ("bulk plane freespace", outage_bulk_plane_freespace(p, 0.1),
         0.09238, 1e-4),
        ("cutoff density", cutoff_density_freespace(0.01, p),
         0.033220, 1e-5),
        ("appendix T1", appendix_bound_T1(p), 0.30629, 1e-4),
        ("outage floor", outage_floor(0.01, math.pi * 25.0),
         0.455938, 1e-6),
    ]
    bad = [name for name, got, want, tol in checks if abs(got - want) > tol]
    _report(2, not bad, "all four spot values" if not bad
            else f"off: {bad}")
    assert not bad


def test_criterion_3_floor_convergence():
    floor = math.exp(-25.0 * math.pi)
    p = _params(budget=1e6)
    rel_bulk = abs(outage_bulk(p, Region.disc(5.0), 1.0) - floor) / floor
    rel_ps = abs(outage_ps(p, Region.disc(5.0), 1.0) - floor) / floor
    # void-probability check: lambda * sigma**2 = 0.25 means lambda = 0.01
    est = estimate_outage_both(_params(), DISC, 0.01, trials=100_000,
                               seed=303)[Scheme.BULK]
    target = 0.455938
    se = math.sqrt(target * (1.0 - target) / est.trials)
    empty_ok = abs(est.empty_fraction - target) <= 3.0 * se
    ok = rel_bulk < 0.02 and rel_ps < 0.02 and empty_ok
    _report(3, ok, f"rel err bulk {rel_bulk:.3g}, ps {rel_ps:.3g}, "
                   f"empty fraction {est.empty_fraction:.4f}")
    assert ok


def test_criterion_4_asymptotic_validity():
    errs_bulk, errs_ps = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for budget in (1e2, 1e4, 1e6):
            p = _params(budget=budget)
            exact_b = outage_bulk(p, Region.disc(5.0), 1.0)
            exact_p = outage_ps(p, Region.disc(5.0), 1.0)
            errs_bulk.append(
                abs(asymptotic_bulk_disc(p, Region.disc(5.0), 1.0) - exact_b)
                / exact_b)
            errs_ps.append(
                abs(asymptotic_ps_disc(p, Region.disc(5.0), 1.0) - exact_p)
                / exact_p)
    ok = (errs_bulk[0] > errs_bulk[1] > errs_bulk[2]
          and errs_ps[0] > errs_ps[1] > errs_ps[2]
          and errs_bulk[2] < 1e-3 and errs_ps[2] < 1e-3)
    _report(4, ok, f"bulk errors {[f'{e:.3g}' for e in errs_bulk]}, "
                   f"ps errors {[f'{e:.3g}' for e in errs_ps]}")
    assert ok


def test_criterion_5_dominance_and_ratio():
    dominance_ok = True
    for density in (0.1, 1.0):
        for k in (2, 4):
            for alpha in (2.0, 4.0):
                for budget in (10.0, 100.0, 1000.0):
                    p = _params(budget=budget, alpha=alpha, k=k)
                    if outage_ps(p, DISC, density) > outage_bulk(
                            p, DISC, density):
                        dominance_ok = False
    p = _params()
    limit_ok = outage_ratio(p, DISC, 1e-4).phi > 1.0 - 1e-4
    res = outage_ratio(p, DISC, 0.02)
    approx_err = abs(res.phi - res.phi_approx) / abs(res.phi - 1.0)
    approx_ok = approx_err <= 0.1
    ok = dominance_ok and limit_ok and approx_ok
    _report(5, ok, f"dominance {dominance_ok}, small-density limit "
                   f"{limit_ok}, approx error ratio {approx_err:.3f} "
                   f"(bound 0.1)")
    assert dominance_ok
    assert limit_ok
    assert approx_ok


def test_criterion_6_appendix_identities():
    exact_ok = all(
        sum(math.comb(k_total, k) * (-1) ** (k + 1)
            for k in range(1, k_total + 1)) == 1
        for k_total in range(2, 65))
    residual_ok = positive_ok = True
    for k_total in (2, 4, 8):
        p = _params(k=k_total)
        deltas = [delta_k(k, p, DISC) for k in range(1, k_total + 1)]
        positive_ok &= all(d > 0 for d in deltas)
        residual = math.fsum(math.comb(k_total, k) * (-1) ** (k + 1)
                             * deltas[k - 1]
                             for k in range(1, k_total + 1))
        bound = sum(math.comb(k_total, k) * (1e-10 + 1e-8 * deltas[k - 1])
                    for k in range(1, k_total + 1))
        residual_ok &= abs(residual) <= 10.0 * bound
    ok = exact_ok and residual_ok and positive_ok
    _report(6, ok, f"binomial identity {exact_ok}, residual within bound "
                   f"{residual_ok}, positivity {positive_ok}")
    assert ok


def test_criterion_7_optimization_correctness():
    match_ok = True
    for alpha in (2.0, 4.0):
        p = _params(alpha=alpha)
        for density in (0.05, 0.2, 1.0, 5.0):
            res = optimize_K(p, DISC, density)
            best = max(range(1, 129),
                       key=lambda k: throughput(float(k), p, DISC, density))
            match_ok &= res.k_opt == best
    p = _params()
    unconstrained = optimize_K(p, DISC, 1.0).k_opt
    constrained = [optimize_K(p, DISC, 1.0, psi).k_opt
                   for psi in (1e-2, 1e-3, 1e-5)]
    constrained_ok = (all(k <= unconstrained for k in constrained)
                      and constrained[0] >= constrained[1] >= constrained[2])
    concave_ok = True
    ks = [0.5 * i for i in range(1, 65)]
    for density in (0.2, 1.0, 5.0):
        vals = [throughput(k, p, DISC, density) for k in ks]
        second = [vals[i - 1] - 2 * vals[i] + vals[i + 1]
                  for i in range(1, len(vals) - 1)]
        concave_ok &= all(s <= 1e-9 for s in second)
    ok = match_ok and constrained_ok and concave_ok
    _report(7, ok, f"exhaustive match {match_ok}, constrained monotone "
                   f"{constrained_ok}, concavity {concave_ok}")
    assert ok


def test_criterion_8_diversity_ternary():
    # the criterion leaves (K, s) open; s = 0.1 puts the stated window
    # squarely in the floor regime of the finite disc
    def disc_curve(snr):
        p = _params(budget=snr, s=0.1)
        return log_outage_bulk(p, DISC, 1.0)

    disc_slope = diversity_slope(disc_curve, 1e5, 1e6).slope

    def plane_curve(snr):
        return log_outage_bulk_plane_freespace(_params(budget=snr), 1.0)

    low = diversity_slope(plane_curve, 1e2, 1e3).slope
    high = diversity_slope(plane_curve, 1e3, 1e4).slope
    ok = disc_slope < 0.01 and high > low
    _report(8, ok, f"disc slope {disc_slope:.4f}, plane slopes "
                   f"{low:.1f} -> {high:.1f}")
    assert ok


def test_criterion_9_reproducibility(tmp_path, pools):
    # the lambda = 1, SNR 10 point (153 blocks) is cut into 5 chunks that
    # run on each multi-worker sweep's pool, so the digests compare
    # split runs with the single-process one
    digests = []
    for workers in (1, 2, 8):
        out = tmp_path / f"rep{workers}.csv"
        rc = cli_main(["--mode", "simulate", "--scheme", "both",
                       "--lambda", "0.1,1", "--snr", "10,100",
                       "--trials", "20000", "--seed", "9",
                       "--workers", str(workers), "--output", str(out)])
        assert rc == 0
        digests.append(hashlib.md5(out.read_bytes()).hexdigest())
    sizes = [pool._max_workers for pool in pools]
    ok = len(set(digests)) == 1 and len(sizes) == 2 and min(sizes) > 1
    _report(9, ok, f"digests {digests}, pools of {sizes} workers")
    assert ok
