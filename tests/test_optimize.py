import math

import numpy as np
import pytest
from scipy import optimize as sopt

import relayfield.analytic
import relayfield.optimize
from relayfield import (
    Region,
    SystemParams,
    cutoff_density,
    cutoff_density_freespace,
    optimize_K_sweep,
    optimize_K,
    outage_bulk,
    outage_floor,
    throughput,
)
from relayfield.analytic import (DEFAULT_QUADRATURE, QuadratureSettings,
                                 _integrate, _store, _u_derivatives,
                                 _u_values)
from relayfield.cli import main
from test_cli import _benchmark_reset

TIGHT = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-13)

# the fig7 caption's disc and densities
FIG7_POINTS = [(alpha, Region.disc(5.0), density)
               for alpha in (2.0, 4.0) for density in (0.05, 1.0, 5.0)]


def _params(alpha=2.0, budget=100.0):
    return SystemParams(snr_budget=budget, path_loss=alpha, threshold=1.0,
                        subcarriers=4, r_sd=5.0)


def test_throughput_examples(params, disc):
    phi = outage_bulk(params, disc, 1.0)
    assert throughput(4.0, params, disc, 1.0) == pytest.approx(
        4.0 * (1.0 - phi), rel=1e-12)
    with pytest.raises(ValueError):
        throughput(0.0, params, disc, 1.0)


@pytest.mark.parametrize("alpha,density,expected", [
    (2.0, 0.2, 8), (2.0, 1.0, 14), (4.0, 0.2, 1), (4.0, 1.0, 2)])
def test_unconstrained_matches_exhaustive(alpha, density, expected, disc):
    p = _params(alpha)
    res = optimize_K(p, disc, density)
    best = max(range(1, 65),
               key=lambda k: throughput(float(k), p, disc, density))
    assert res.k_opt == best == expected
    assert res.feasible is True
    assert res.kappa_opt == pytest.approx(
        throughput(float(best), p, disc, density), rel=1e-12)
    # the relaxed optimum rounds to one of the neighbouring integers
    assert math.floor(res.k_relaxed) <= res.k_opt <= math.ceil(res.k_relaxed)


def test_relaxed_optimum_is_local_max(disc):
    p = _params()
    res = optimize_K(p, disc, 1.0)
    k = res.k_relaxed
    peak = throughput(k, p, disc, 1.0)
    for step in (1e-3, 1e-2, 0.1):
        assert throughput(k - step, p, disc, 1.0) <= peak + 1e-10
        assert throughput(k + step, p, disc, 1.0) <= peak + 1e-10


def _record_passes(monkeypatch) -> list[tuple[float, bool]]:
    """The K of every u, u' and u'' a solve reads, in order, each with
    whether it was cold, that is integrated in its round rather than read
    from the store; the store, the optimiser's one source of u, starts
    empty, and a round integrates its cold Ks in at most one pass."""
    relayfield.analytic._store.cache_clear()
    store, integrate = (relayfield.analytic._u_derivatives,
                        relayfield.analytic._integrate)
    passes, integrated = [], []

    def integrating(region, cs, *args, **kwargs):
        integrated.append(len(cs))
        return integrate(region, cs, *args, **kwargs)

    def recording(region, ks, params, q):
        integrated.clear()
        held = set(relayfield.analytic._store(region, params, q))
        result = store(region, ks, params, q)
        assert len(integrated) <= 1
        cold = {k for k in ks if k not in held}
        assert integrated == ([len(cold)] if cold else [])
        passes.extend((k, k in cold) for k in ks)
        return result

    monkeypatch.setattr(relayfield.analytic, "_integrate", integrating)
    monkeypatch.setattr(relayfield.optimize, "_u_derivatives", recording)
    return passes


def _split_rounding(ks: list[float], k_relaxed: float) -> list[float]:
    """The peak search's passes of an unconstrained solve's ks, which end
    with the rounding's: kappa at the ceiling of k_relaxed, then at its
    floor where that differs."""
    rounding = sorted({max(1, math.floor(k_relaxed)),
                       max(1, math.ceil(k_relaxed))}, reverse=True)
    assert ks[-len(rounding):] == rounding
    return ks[:-len(rounding)]


@pytest.mark.parametrize("alpha,region,density", FIG7_POINTS)
def test_relaxed_optimum_needs_few_kappa_evaluations(monkeypatch, alpha,
                                                     region, density):
    # the bracket doubles K from 2 while kappa' > 0, in at most
    # ceil(log2 K*) + 2 passes; Newton then starts from the
    # bracket's lower end, a cache hit unless it is 0, and takes kappa'
    # and kappa'' from one derivative pass per step; the rounding reads
    # kappa from the same cache
    passes = _record_passes(monkeypatch)
    k_star = optimize_K(_params(alpha), region, density).k_relaxed
    ks = [k for k, _ in passes]
    search = _split_rounding(ks, k_star)
    n_bracket = 1
    while search[n_bracket] == 2.0 * search[n_bracket - 1]:
        n_bracket += 1
    assert search[0] == 2.0
    assert n_bracket <= math.ceil(math.log2(k_star)) + 2
    newton = [k for k in search[n_bracket:] if k not in search[:n_bracket]]
    assert 1 <= len(newton) <= 6
    # no K is integrated twice in the solve; the search repeats only its
    # start at lo > 0, and rounding at a K it visited is a cache hit
    cold = [k for k, is_cold in passes if is_cold]
    assert cold == list(dict.fromkeys(ks))
    assert len(search) - len(set(search)) == (n_bracket > 1)
    if n_bracket > 1:
        assert search[n_bracket] == search[n_bracket - 2]
    assert not any(is_cold for k, is_cold in passes[len(search):]
                   if k in search)


@pytest.mark.parametrize("psi", [1e-2, 1e-3, 1e-5])
def test_constrained_root_needs_few_derivative_passes(monkeypatch, disc,
                                                      psi):
    # the constrained solve reads u(1) for feasibility and runs the
    # unconstrained solve's peak search; u at the peak comes from a
    # Taylor step off the search's last pass, so the peak itself is never
    # integrated. As the ceiling binds, the root search on log u starts
    # from the chord through K = 1 and the peak, and takes at most 6
    # passes, each cold and at a K not seen; the rounding reads kappa at
    # the floor of the root
    p = _params()
    passes = _record_passes(monkeypatch)
    peak = optimize_K(p, disc, 1.0).k_relaxed
    search = _split_rounding([k for k, _ in passes], peak)
    relayfield.analytic._store.cache_clear()
    passes.clear()
    res = optimize_K(p, disc, 1.0, psi)
    ks = [k for k, _ in passes]
    n = len(search)
    assert ks[0] == 1.0 and ks[1:n + 1] == search and ks[-1] == res.k_opt
    assert peak not in ks
    root = ks[n + 1:-1]
    assert 1 <= len(root) <= 6
    assert len(set(root)) == len(root) and not set(root) & set(ks[:n + 1])
    cold = [k for k, is_cold in passes if is_cold]
    assert cold == list(dict.fromkeys(ks))


def test_relaxed_peak_u_is_a_taylor_step_from_the_last_pass(monkeypatch,
                                                            disc):
    # the peak search's last pass lies one accepted step d short of the
    # peak, |d| <= sqrt(1e-9 K), so u + d u' + d**2 u'' / 2 there is u at
    # the peak to O(d**3); a ceiling set just below and just above that
    # value decides whether the root search runs
    p = _params()
    passes = _record_passes(monkeypatch)
    peak = optimize_K(p, disc, 1.0).k_relaxed
    last = _split_rounding([k for k, _ in passes], peak)[-1]
    d = peak - last
    assert 0 < d * d <= 1e-9 * last
    u, du, d2u = relayfield.optimize._u_derivatives(disc, (last,), p,
                                                    DEFAULT_QUADRATURE)[0]
    taylor = u + d * (du + 0.5 * d * d2u)
    exact = _u_derivatives(disc, (peak,), p, DEFAULT_QUADRATURE)[0][0]
    assert taylor == pytest.approx(exact, rel=1e-12, abs=0)
    for scale, binds in ((1.0 - 1e-9, False), (1.0 + 1e-9, True)):
        # Phi <= psi where u >= -log psi / (2 density)
        psi = math.exp(-2.0 * scale * taylor)
        res = optimize_K(p, disc, 1.0, psi)
        assert (res.k_relaxed < peak) is binds
        if not binds:
            assert res.k_relaxed == peak


def test_unconstrained_evaluates_each_k_once(monkeypatch):
    # on the plane at 1e-9 the relaxed optimum lies far below the
    # bracket's start, so kappa'(2) < 0 and Newton works down [0, 2];
    # the floor and the ceiling both round to K = 1. No integrator pass,
    # derivative or value, is repeated.
    _u_values.cache_clear()
    _store.cache_clear()
    calls = []

    def counting(region, cs, *args, moments=0, **kwargs):
        calls.extend((moments, c) for c in cs)
        return _integrate(region, cs, *args, moments=moments, **kwargs)

    monkeypatch.setattr(relayfield.analytic, "_integrate", counting)
    res = optimize_K(_params(), Region.plane(), 1e-9)
    assert res.k_relaxed < 1 and res.k_opt == 1
    assert len(calls) <= 16
    assert len(set(calls)) == len(calls)


def _count_integrals(monkeypatch) -> list[tuple[float, float]]:
    """(alpha, c) of every c a derivative pass integrates, in order; u,
    its derivatives and the store start empty."""
    _u_values.cache_clear()
    _store.cache_clear()
    integrated = []

    def counting(region, cs, params, *args, moments=0, **kwargs):
        assert moments == 2
        integrated.append([(params.path_loss, c) for c in cs])
        return _integrate(region, cs, params, *args, moments=moments,
                          **kwargs)

    monkeypatch.setattr(relayfield.analytic, "_integrate", counting)
    return integrated


# the fig7 and fig8 density grid
FIG_DENSITIES = [float(v) for v in np.geomspace(0.05, 5.0, 13)]


def test_figures_integrate_each_k_at_most_once(monkeypatch, tmp_path):
    # fig7's two sweeps and fig8's three share one store: a K integrated
    # for one density, one ceiling or one figure is read from it by every
    # other, and fig7 takes at most 25 passes for the 109 Ks the
    # one-density solves integrated one pass each
    passes = _count_integrals(monkeypatch)
    for figure in ("fig7", "fig8"):
        assert main(["--mode", "figure", "--figure", figure,
                     "--output", str(tmp_path / f"{figure}.csv")]) == 0
        if figure == "fig7":
            assert len(passes) <= 25
            assert sum(map(len, passes)) <= 109
    ks = [k for batch in passes for k in batch]
    assert len(set(ks)) == len(ks)


def test_each_round_is_one_integrator_pass(monkeypatch):
    # every round of a lockstep solve asks the store once for the Ks of
    # all open solves, and the Ks it lacks are integrated in one pass;
    # the sweep takes as many rounds as its slowest one-density solve
    p, disc = _params(), Region.disc(5.0)
    store = _u_derivatives
    rounds = []

    def recording(*args):
        calls = len(passes)
        values = store(*args)
        rounds.append(len(passes) - calls)
        return values

    passes = _count_integrals(monkeypatch)
    monkeypatch.setattr(relayfield.optimize, "_u_derivatives", recording)
    singles = []
    for density in FIG_DENSITIES:
        _store.cache_clear()
        rounds.clear()
        optimize_K(p, disc, density)
        singles.append(len(rounds))
    _store.cache_clear()
    rounds.clear()
    passes.clear()
    optimize_K_sweep(p, disc, FIG_DENSITIES)
    assert set(rounds) <= {0, 1} and sum(rounds) == len(passes)
    assert len(rounds) == max(singles) and len(passes) < sum(singles) / 4


@pytest.mark.parametrize("alpha,region,densities,psi", [
    (2.0, Region.disc(5.0), FIG_DENSITIES, None),
    (4.0, Region.disc(5.0), FIG_DENSITIES, None),
    (2.0, Region.disc(5.0), FIG_DENSITIES, 1e-5),
    (4.0, Region.plane(), [float(v) for v in np.geomspace(3.0, 30.0, 13)],
     1e-3)])
def test_lockstep_matches_one_density_solves(alpha, region, densities, psi):
    # batching changes only which Ks share an integrator pass, so each
    # density's optimum is the one its own solve finds, from a cold store
    p = _params(alpha)
    _store.cache_clear()
    swept = optimize_K_sweep(p, region, densities, psi)
    for density, res in zip(densities, swept):
        _store.cache_clear()
        one = optimize_K_sweep(p, region, [density], psi)[0]
        assert (res.k_opt, res.feasible) == (one.k_opt, one.feasible)
        assert res.k_relaxed == pytest.approx(
            one.k_relaxed, rel=1e-9, abs=0)
    assert any(res.k_opt > 1 for res in swept)
    if psi == 1e-5:
        assert not swept[0].feasible and swept[-1].feasible


@pytest.mark.parametrize("alpha,region,density",
                         FIG7_POINTS + [(2.0, Region.plane(), 1e-9)])
def test_relaxed_optimum_matches_a_tight_reference(alpha, region, density):
    # reference: the root of a five-point derivative of kappa at tight
    # quadrature, which does not search on kappa's values at all; on the
    # plane at 1e-9 the optimum lies far below the doubling's start K = 2
    p = _params(alpha)
    k_relaxed = optimize_K(p, region, density).k_relaxed

    def slope(k):
        h = 1e-3 * k
        f = [throughput(k + i * h, p, region, density, TIGHT)
             for i in (-2, -1, 1, 2)]
        return (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)

    ref = sopt.brentq(slope, 0.5 * k_relaxed, 2.0 * k_relaxed, xtol=1e-12)
    assert k_relaxed == pytest.approx(ref, abs=1e-6, rel=0)


def test_throughput_is_unimodal_in_relaxed_k(disc):
    # unimodality is what the bracketed Newton search relies on:
    # first differences change sign exactly once over the grid
    p = _params()
    for density in (0.2, 1.0, 5.0):
        ks = [0.5 * i for i in range(1, 65)]
        vals = [throughput(k, p, disc, density) for k in ks]
        first = [b - a for a, b in zip(vals, vals[1:])]
        signs = [d > 0 for d in first]
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        assert flips == 1
        assert signs[0] and not signs[-1]


def test_throughput_concave_up_to_the_optimum(disc):
    # concavity holds through the maximum; the decaying tail turns
    # convex (kappa -> 0 exponentially), so the test stops shortly
    # past the relaxed optimum
    p = _params()
    for density in (0.2, 1.0, 5.0):
        k_star = optimize_K(p, disc, density).k_relaxed
        ks = [0.5 * i for i in range(1, 65) if 0.5 * i <= k_star + 2.0]
        vals = [throughput(k, p, disc, density) for k in ks]
        second = [vals[i - 1] - 2 * vals[i] + vals[i + 1]
                  for i in range(1, len(vals) - 1)]
        assert all(s <= 1e-9 for s in second)


def test_throughput_tail_is_genuinely_convex(disc):
    # regression pin: the far tail of kappa violates concavity by far
    # more than quadrature noise, so the global claim cannot hold
    p = _params()
    ks = [0.5 * i for i in range(29, 36)]
    vals = [throughput(k, p, disc, 0.2) for k in ks]
    second = [vals[i - 1] - 2 * vals[i] + vals[i + 1]
              for i in range(1, len(vals) - 1)]
    assert max(second) > 1e-3


def test_optimum_grows_with_density(disc):
    p = _params()
    opts = [optimize_K(p, disc, lam).k_opt
            for lam in (0.05, 0.2, 1.0, 5.0)]
    assert all(a <= b for a, b in zip(opts, opts[1:]))
    assert opts[0] < opts[-1]


def test_constrained_examples(disc):
    p = _params()
    got = {}
    for psi in (1e-2, 1e-3, 1e-5):
        res = optimize_K(p, disc, 1.0, psi)
        assert res.feasible is True
        assert res.k_opt == math.floor(res.k_relaxed)
        # the integer choice respects the ceiling
        assert outage_bulk(p, disc, 1.0, subcarriers=res.k_opt) <= psi
        got[psi] = res.k_opt
    # tighter ceilings force fewer subcarriers
    assert got[1e-2] >= got[1e-3] >= got[1e-5]
    assert got[1e-2] == 9 and got[1e-5] == 5


@pytest.mark.parametrize("psi", [1e-2, 1e-3, 1e-5])
def test_constrained_root_meets_the_ceiling(disc, psi):
    # the log-domain root puts the relaxed K on Phi = psi
    p = _params()
    res = optimize_K(p, disc, 1.0, psi)
    phi = outage_bulk(p, disc, 1.0, subcarriers=res.k_relaxed)
    assert phi == pytest.approx(psi, rel=1e-6, abs=0)


def test_constrained_inactive_ceiling(disc):
    p = _params()
    res = optimize_K(p, disc, 1.0, 1.0)
    unc = optimize_K(p, disc, 1.0)
    assert res.k_relaxed == pytest.approx(unc.k_relaxed, rel=1e-9)
    assert res.k_opt == math.floor(res.k_relaxed)


def test_constrained_infeasible_below_floor(disc):
    # psi under the void-probability floor can never be met on a disc
    p = _params()
    assert 1e-3 < outage_floor(0.01, disc.area)
    res = optimize_K(p, disc, 0.01, 1e-3)
    assert res.feasible is False
    assert res.k_opt == 0
    assert res.kappa_opt == 0.0


def test_constrained_validation(disc):
    p = _params()
    with pytest.raises(ValueError):
        optimize_K(p, disc, 1.0, 0.0)
    with pytest.raises(ValueError):
        optimize_K(p, disc, 1.0, 1.5)
    with pytest.raises(ValueError):
        optimize_K(p, disc, 0.0, 0.5)


def test_cutoff_density_plane():
    p = _params()
    plane = Region.plane()
    cutoff = cutoff_density(0.01, p, plane)
    assert cutoff == pytest.approx(0.03322099360271326, rel=1e-9)
    # the free-space closed form is exact at alpha = 2
    assert cutoff_density_freespace(0.01, p) == pytest.approx(
        cutoff, rel=1e-10)
    # feasibility flips exactly at the cutoff
    assert optimize_K(p, plane, 1.05 * cutoff, 0.01).feasible
    assert not optimize_K(p, plane, 0.95 * cutoff, 0.01).feasible


@pytest.mark.parametrize("region", [Region.disc(5.0), Region.plane()])
def test_constrained_root_at_the_cutoff_density(region):
    # at the cut-off density K = 1 meets the ceiling with equality, so
    # the root lies on the lower end of the Newton bracket
    p = _params()
    res = optimize_K(p, region, cutoff_density(0.01, p, region), 0.01)
    assert res.feasible and res.k_opt == 1
    assert res.k_relaxed == pytest.approx(1.0, abs=1e-9, rel=0)


def test_cutoff_density_disc(disc):
    p = _params()
    cutoff = cutoff_density(0.01, p, disc)
    assert optimize_K(p, disc, 1.05 * cutoff, 0.01).feasible
    assert not optimize_K(p, disc, 0.95 * cutoff, 0.01).feasible
    # every density meets psi = 1; +0.0, not -0.0, reaches the .meta
    for zero in (cutoff_density(1.0, p, disc),
                 cutoff_density_freespace(1.0, p)):
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    for psi in (0.0, 1.5):
        with pytest.raises(ValueError):
            cutoff_density(psi, p, disc)
        with pytest.raises(ValueError):
            cutoff_density_freespace(psi, p)


def test_cutoff_freespace_rejects_other_exponents():
    from relayfield import DomainError
    with pytest.raises(DomainError):
        cutoff_density_freespace(0.01, _params(alpha=4.0))


@pytest.mark.parametrize("alpha,region,densities", [
    (2.0, Region.disc(5.0), FIG_DENSITIES),
    (4.0, Region.plane(), [float(v) for v in np.geomspace(3.0, 30.0, 5)])])
def test_mixed_ceiling_sweep_matches_each_ceilings_sweep(alpha, region,
                                                         densities):
    # one sweep of every (density, ceiling) pair, no ceiling among them,
    # returns each pair's optimum as its ceiling's own sweep finds it from
    # a cold store; pairs share passes, so K_relaxed agrees to 1e-9
    p = _params(alpha)
    psis = [None, 1e-2, 1e-3, 1e-5]
    pairs = [(density, psi) for psi in psis for density in densities]
    _store.cache_clear()
    mixed = dict(zip(pairs, optimize_K_sweep(
        p, region, [d for d, _ in pairs], [psi for _, psi in pairs])))
    for psi in psis:
        _store.cache_clear()
        own = optimize_K_sweep(p, region, densities, psi)
        for density, one in zip(densities, own):
            res = mixed[density, psi]
            assert (res.k_opt, res.feasible) == (one.k_opt, one.feasible)
            assert res.k_relaxed == pytest.approx(
                one.k_relaxed, rel=1e-9, abs=0)
    assert len({res.k_opt for res in mixed.values()}) > 2
    with pytest.raises(ValueError):
        optimize_K_sweep(p, region, densities, psis)
    with pytest.raises(ValueError):
        optimize_K_sweep(p, region, densities[:2], [1e-2, 0.0])


def test_fig8_solves_its_ceilings_in_one_sweep(monkeypatch, tmp_path):
    # after fig7, as the benchmark runs them, fig8's three ceilings take 7
    # integrator passes (18 as three sweeps) for at most the 92 Ks the
    # three sweeps integrated
    passes = _count_integrals(monkeypatch)
    for figure in ("fig7", "fig8"):
        passes.clear()
        assert main(["--mode", "figure", "--figure", figure,
                     "--output", str(tmp_path / f"{figure}.csv")]) == 0
    assert len(passes) == 7
    assert sum(map(len, passes)) <= 92


def test_store_keeps_the_newest_entries_of_the_last_configurations(
        monkeypatch):
    # the store keeps each configuration's 512 newest (u, u', u'')
    # entries, dropping the oldest integrated first, and a read does not
    # renew an entry; it keeps the 8 configurations used last, so a
    # ninth drops the least recently used one whole; the cache reset
    # empties it
    size, q = 512, DEFAULT_QUADRATURE
    store = _u_derivatives
    _store.cache_clear()
    integrated = []

    def fake(region, cs, params, q, what, moments):
        # the Ks back from c = K s / (P_t/N_0), and rows whose
        # (u, u' n, u'' n**2) are (K, -K**2, alpha K**2)
        ns = np.rint(np.asarray(cs) * params.snr_budget / params.threshold)
        integrated.extend((region, params.path_loss, n) for n in ns.tolist())
        return np.array([ns, -ns * ns, params.path_loss * ns * ns])

    monkeypatch.setattr(relayfield.analytic, "_integrate", fake)
    disc, p = Region.disc(5.0), _params()
    ks = [float(k) for k in range(1, size + 1)]
    assert store(disc, ks, p, q) == [(k, -k, 2.0) for k in ks]
    assert list(_store(disc, p, q)) == ks
    # the oldest entry is read, then a new K drops it all the same
    assert store(disc, [1.0, 9999.0], p, q) == [(1.0, -1.0, 2.0),
                                                (9999.0, -9999.0, 2.0)]
    assert list(_store(disc, p, q)) == ks[1:] + [9999.0]
    assert len(integrated) == size + 1
    # a pass of more new Ks than the store keeps returns them all
    many = [float(k) for k in range(10_000, 10_000 + size + 3)]
    assert store(disc, many, p, q) == [(k, -k, 2.0) for k in many]
    assert list(_store(disc, p, q)) == many[3:]

    def read(config, ks):
        region, params = config
        return store(region, ks, params, q)

    configs = [(region, _params(alpha)) for alpha in (2.0, 3.0, 4.0, 5.0)
               for region in (Region.disc(5.0), Region.plane())]
    configs.append((Region.disc(7.0), _params()))
    _store.cache_clear()
    for config in configs[:8]:
        read(config, [1.0, 2.0])
    # a read makes the first the most recently used, so the ninth
    # configuration drops the second, and only it
    read(configs[0], [2.0])
    read(configs[8], [1.0, 2.0])
    count = len(integrated)
    for config in configs[:1] + configs[2:]:
        read(config, [1.0, 2.0])
    assert len(integrated) == count
    read(configs[1], [1.0, 2.0])
    assert integrated[count:] == [(Region.plane(), 2.0, 1.0),
                                  (Region.plane(), 2.0, 2.0)]
    assert _store.cache_info().currsize == 8

    _benchmark_reset()()
    assert _store.cache_info().currsize == 0
    count = len(integrated)
    store(disc, [2.0], p, q)
    assert len(integrated) == count + 1
