import hashlib
import importlib.util
import math
import platform
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy
import pytest
import scipy

import relayfield.analytic
import relayfield.cli
import relayfield.optimize
from relayfield import (
    OutageEstimate,
    Region,
    Scheme,
    SystemParams,
    outage_bulk,
    throughput,
    u,
)
from relayfield.cli import (
    _OPTIONS,
    FIGURES,
    ExperimentConfig,
    ValidationError,
    _parse_float_list,
    _simulate_rows,
    _within_3_sigma,
    main,
    parse_config,
    run_sweep,
)


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_parse_float_list():
    assert _parse_float_list("1,2,3.5") == [1.0, 2.0, 3.5]
    grid = _parse_float_list("1:100:3")
    assert grid == pytest.approx([1.0, 10.0, 100.0])
    with pytest.raises(ValueError):
        _parse_float_list("a,b")
    with pytest.raises(ValueError):
        _parse_float_list("1:10:0")


def test_snr_db_grid_is_evenly_spaced_in_db():
    # lo:hi:n spaces the linear values geometrically from 10^(lo/10) to
    # 10^(hi/10); either end may be 0 or negative in dB
    def snrs(text):
        return parse_config(["--mode", "analytic", "--snr-db", text]).snrs

    assert snrs("0:40:5") == pytest.approx([1.0, 10.0, 100.0, 1e3, 1e4])
    assert snrs("-10:10:3") == pytest.approx([0.1, 1.0, 10.0])
    assert snrs("10,20") == pytest.approx([10.0, 100.0])


@pytest.mark.parametrize("text, reason", [
    ("1:inf:3", "must be finite"),
    ("1:2:0", "must have lo, hi > 0 and n >= 1 in lo:hi:n"),
    ("0:1:3", "must have lo, hi > 0 and n >= 1 in lo:hi:n"),
    # 10^(dB/10) leaves double range above about 3083 dB, and rounds to
    # 0 below about -3240 dB
    ("--snr-db 0:4000:3", "must be finite"),
    ("--snr-db 4000", "must be finite"),
    ("--snr-db -4000", "must be > 0"),
])
def test_grid_errors_give_their_reason(capsys, text, reason):
    # text is a --lambda value, or another flag and its value. A log grid
    # cannot reach 0, although --lambda may be 0; each grid is checked
    # before numpy spaces it, so no numpy warning comes first
    flag, value = text.split() if " " in text else ("--lambda", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--mode", "analytic", flag, value]) == 1
    assert capsys.readouterr().err == f"error: {flag} {reason}, got {value}\n"
    assert caught == []


def test_output_outside_a_directory_fails_before_the_sweep(tmp_path, capsys,
                                                           monkeypatch):
    # a missing directory, an empty path or a directory gives an error:
    # line from parse_config, before any point is computed
    computed = []
    monkeypatch.setattr(relayfield.analytic, "outage_bulk",
                        lambda *args: computed.append(args))
    for output in (str(tmp_path / "missing" / "x.csv"), "", str(tmp_path)):
        assert main(["--mode", "analytic", "--lambda", "0.1",
                     "--output", output]) == 1
        assert capsys.readouterr().err == (
            f"error: --output must name a file in an existing directory, "
            f"got {output!r}\n")
    assert computed == [] and list(tmp_path.iterdir()) == []


def test_parse_defaults():
    cfg = parse_config(["--mode", "analytic"])
    assert cfg.mode == "analytic"
    assert cfg.scheme == "bulk"
    assert cfg.densities == [1.0]
    assert cfg.snrs == [100.0]
    assert cfg.subcarriers == 4
    assert cfg.trials == 100_000


def test_parse_flags():
    cfg = parse_config(["--mode", "simulate", "--scheme", "both",
                        "--lambda", "0.1,0.5", "--snr-db", "10,20",
                        "--K", "8", "--alpha", "4", "--s", "0.5",
                        "--region", "plane", "--trials", "500",
                        "--seed", "7", "--workers", "2"])
    assert cfg.scheme == "both"
    assert cfg.densities == [0.1, 0.5]
    assert cfg.snrs == pytest.approx([10.0, 100.0])
    assert cfg.subcarriers == 8
    assert cfg.alpha == 4.0
    assert cfg.threshold == 0.5
    assert cfg.region_kind == "plane"
    assert cfg.trials == 500 and cfg.seed == 7 and cfg.workers == 2


def test_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("mode = analytic\n"
                    "K = 4          # subcarriers\n"
                    "lambda = 0.2,0.4\n"
                    "s = 2.0\n"
                    "seed = 11\n")
    cfg = parse_config(["--config", str(conf), "--K", "8"])
    assert cfg.subcarriers == 8      # flag wins
    assert cfg.threshold == 2.0      # file value survives
    assert cfg.densities == [0.2, 0.4]
    assert cfg.seed == 11


def test_config_file_skips_blank_and_comment_lines(tmp_path, capsys):
    # blank lines and whole-line comments are skipped; a line that is
    # neither and has no '=' is reported with its line number, exit 1
    conf = tmp_path / "run.conf"
    conf.write_text("# a sweep\n\nmode = analytic\n   \n  # K = 64\n"
                    "K = 8\n")
    cfg = parse_config(["--config", str(conf)])
    assert (cfg.mode, cfg.subcarriers) == ("analytic", 8)
    conf.write_text("mode = analytic\n\nK 8\n")
    out = tmp_path / "run.csv"
    assert main(["--config", str(conf), "--output", str(out)]) == 1
    assert (f"error: {conf}:3: expected 'key = value'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_validation_collects_all_problems():
    with pytest.raises(ValidationError) as exc:
        parse_config(["--mode", "analytic", "--alpha", "1.5",
                      "--s", "-1", "--trials", "0"])
    text = str(exc.value)
    assert "alpha" in text and "s must" in text and "trials" in text
    assert len(exc.value.problems) == 3
    # the checks of a mode's settings are reported with the others
    with pytest.raises(ValidationError) as exc:
        parse_config(["--mode", "optimize-k", "--lambda", "0",
                      "--snr", "10,100"])
    assert exc.value.problems == [
        "mode optimize-k takes one --snr or --snr-db value",
        "mode optimize-k needs every --lambda > 0"]
    with pytest.raises(ValidationError) as exc:
        parse_config(["--mode", "diversity", "--snr", "100", "--alpha", "1"])
    assert exc.value.problems == [
        "--alpha must be >= 2, got 1",
        "mode diversity needs at least two increasing --snr points"]


def test_argv_is_read_flag_by_flag():
    # a flag takes the next argument whatever it starts with, and the
    # last of a repeated flag wins
    cfg = parse_config(["--mode", "analytic", "--K", "2", "--output",
                        "--K", "--K=8", "--connection", "--connection"])
    assert (cfg.subcarriers, cfg.output, cfg.connection) == (8, "--K", True)
    # arguments that are no flag or its value make one problem, reported
    # with the others; a boolean flag takes no value
    with pytest.raises(ValidationError) as exc:
        parse_config(["--mode", "analytic", "x", "--verify=true", "--K=0",
                      "-K", "2", "--seed"])
    assert exc.value.problems == [
        "unrecognized arguments: x --verify=true -K 2", "--seed needs a value",
        "--K must be >= 1, got 0"]


def test_unknown_config_key(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("mode = analytic\nbogus = 1\n")
    with pytest.raises(ValidationError, match="bogus"):
        parse_config(["--config", str(conf)])


def test_empty_config_path_is_reported(capsys):
    # an empty --config names no file, as an empty --output does
    for argv in (["--config="], ["--config", ""]):
        assert main(["--mode", "analytic", *argv]) == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot read config file: ")


def test_mode_is_required():
    with pytest.raises(ValidationError, match="--mode is required"):
        parse_config([])


def test_connection_column(tmp_path):
    out = tmp_path / "conn.csv"
    assert main(["--mode", "analytic", "--scheme", "both", "--lambda",
                 "0.01,1", "--connection", "--output", str(out)]) == 0
    rows = _read_rows(out)
    assert len(rows) == 4
    for row in rows:
        assert float(row["connection"]) == 1.0 - float(row["p_outage"])


def test_analytic_sweep_csv_roundtrip(tmp_path):
    from relayfield import Region, SystemParams, outage_bulk

    out = tmp_path / "sweep.csv"
    cfg = parse_config(["--mode", "analytic", "--lambda", "0.1:1:2",
                        "--snr", "50,100", "--output", str(out)])
    run_sweep(cfg)
    rows = _read_rows(out)
    assert len(rows) == 4
    # %.17g floats survive the round trip exactly
    for row in rows:
        p = SystemParams(snr_budget=float(row["snr"]), path_loss=2.0,
                         threshold=1.0, subcarriers=4, r_sd=5.0)
        expect = outage_bulk(p, Region.disc(5.0), float(row["lambda"]))
        assert float(row["p_outage"]) == expect
    meta = (tmp_path / "sweep.csv.meta").read_text()
    assert "mode = analytic" in meta
    assert "seed = 1" in meta
    # a lo:hi:n grid is recorded as plain floats
    assert "densities = [0.1, 1.0]" in meta.splitlines()


def test_simulate_verify_and_worker_invariance(tmp_path):
    digests = []
    for workers in (1, 2):
        out = tmp_path / f"sim{workers}.csv"
        rc = main(["--mode", "simulate", "--scheme", "both",
                   "--lambda", "0.1", "--snr", "10", "--trials", "4000",
                   "--seed", "3", "--workers", str(workers),
                   "--verify", "--output", str(out)])
        assert rc == 0
        digests.append(hashlib.md5(out.read_bytes()).hexdigest())
        rows = _read_rows(out)
        assert all(row["verify_ok"] == "1" for row in rows)
    assert digests[0] == digests[1]


def test_verify_mismatch_exits_2_and_keeps_the_csv(tmp_path, capsys,
                                                   monkeypatch):
    # against a reference outage of 0.5, both rows of a point whose
    # estimates lie near 0.1 fail the 3-sigma check: the sweep still
    # writes its CSV and .meta, then exits 2 with the count
    for scheme in Scheme:
        monkeypatch.setitem(relayfield.cli._OUTAGES, ("analytic", scheme),
                            lambda *args: 0.5)
    out = tmp_path / "sim.csv"
    rc = main(["--mode", "simulate", "--scheme", "both",
               "--lambda", "0.1", "--snr", "10", "--trials", "4000",
               "--seed", "3", "--verify", "--output", str(out)])
    assert rc == 2
    assert ("numerical failure: 2 grid point(s) failed the 3-sigma "
            "agreement check" in capsys.readouterr().err)
    rows = _read_rows(out)
    assert [row["verify_ok"] for row in rows] == ["0", "0"]
    assert all(abs(float(row["p_outage"]) - 0.5) > 0.1 for row in rows)
    meta = (tmp_path / "sim.csv.meta").read_text().splitlines()
    assert "verify_mismatches = 2" in meta


def test_one_worker_pool_per_sweep(tmp_path, pools):
    from relayfield import Region, SystemParams, block_length, simulation

    # two points of several blocks each on the plane; at SNR 100 each of
    # 2 workers gets more than the floor of blocks
    out = tmp_path / "plane.csv"
    assert main(["--mode", "simulate", "--scheme", "both",
                 "--region", "plane", "--lambda", "0.1",
                 "--snr", "100,1000", "--trials", "40000", "--workers", "2",
                 "--verify", "--output", str(out)]) == 0
    assert [row["verify_ok"] for row in _read_rows(out)] == ["1"] * 4
    assert len(pools) == 1 and pools[0].stopped
    assert pools[0]._max_workers == 2
    # the sweep's blocks size the pool: at SNR 100 a point of 2.5 floors
    # of blocks, which alone would start 2 workers, and at SNR 1000 a
    # point of more than half a floor (its blocks are the longer) start
    # 3 of 8 workers together
    params = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                          subcarriers=4, r_sd=5.0)
    floor = simulation.MIN_BLOCKS_PER_WORKER
    trials = 5 * floor * block_length(params, Region.plane(), 0.1) // 2
    blocks = [-(-trials // block_length(replace(params, snr_budget=snr),
                                        Region.plane(), 0.1))
              for snr in (100.0, 1000.0)]
    assert blocks[0] == 5 * floor // 2 and 3 * floor <= sum(blocks) < 4 * floor
    assert main(["--mode", "simulate", "--region", "plane",
                 "--lambda", "0.1", "--snr", "100,1000",
                 "--trials", str(trials), "--workers", "8",
                 "--output", str(tmp_path / "three.csv")]) == 0
    assert len(pools) == 2 and pools[1].stopped
    assert pools[1]._max_workers == 3
    # every point fits in one block: no pool is started
    assert main(["--mode", "simulate", "--lambda", "0.1,0.2",
                 "--trials", "500", "--workers", "2",
                 "--output", str(tmp_path / "disc.csv")]) == 0
    assert len(pools) == 2
    # a sweep of too few blocks to pay for a pool: none is started, and
    # the CSV is the one a single worker writes
    assert sum(-(-400 // block_length(replace(params, snr_budget=snr),
                                      Region.plane(), 0.1))
               for snr in (100.0, 1000.0)) < 2 * floor
    dense = ["--mode", "simulate", "--scheme", "both", "--region", "plane",
             "--lambda", "0.1", "--snr", "100,1000", "--trials", "400"]
    for workers in (1, 2):
        assert main([*dense, "--workers", str(workers),
                     "--output", str(tmp_path / f"dense{workers}.csv")]) == 0
    assert len(pools) == 2
    assert ((tmp_path / "dense1.csv").read_bytes()
            == (tmp_path / "dense2.csv").read_bytes())


def test_configs_share_one_pool_sized_by_their_blocks(pools):
    # a figure's configs run as one sweep: its pool is sized by the
    # blocks of all their points, though no point alone has the 2 floors
    # of blocks a pool needs, and they give the rows each gives alone
    from relayfield import Region, SystemParams, block_length, simulation

    small = parse_config(["--mode", "simulate", "--lambda", "0.1",
                          "--trials", "500", "--workers", "2"])
    plane = parse_config(["--mode", "simulate", "--scheme", "both",
                          "--region", "plane", "--lambda", "0.1",
                          "--snr", "100,1000", "--trials", "30000",
                          "--workers", "2"])
    blocks = [-(-30000 // block_length(
        SystemParams(snr_budget=snr, path_loss=2.0, threshold=1.0,
                     subcarriers=4, r_sd=5.0), Region.plane(), 0.1))
        for snr in (100.0, 1000.0)]
    floor = simulation.MIN_BLOCKS_PER_WORKER
    assert max(blocks) < 2 * floor <= sum(blocks)
    rows, meta = _simulate_rows(small, plane)
    assert meta == {"pool_workers": 2}
    assert len(pools) == 1 and pools[0].stopped
    assert pools[0]._max_workers == 2
    assert rows == _simulate_rows(small)[0] + _simulate_rows(plane)[0]


def test_each_point_builds_its_sampler_once(tmp_path):
    # a sweep builds every point's sampler once, before its first chunk
    # runs: one miss of simulation._sampler's cache per point at any
    # --workers, and the CSV the other worker count writes
    from relayfield.simulation import _sampler

    sweep = ["--mode", "simulate", "--sigma", "8", "--alpha", "4",
             "--K", "8", "--snr", "1000", "--lambda", "0.01:1:70",
             "--trials", "50"]
    for workers in ("1", "2"):
        _sampler.cache_clear()
        assert main([*sweep, "--workers", workers,
                     "--output", str(tmp_path / f"sweep{workers}.csv")]) == 0
        assert _sampler.cache_info().misses == 70
    assert ((tmp_path / "sweep1.csv").read_bytes()
            == (tmp_path / "sweep2.csv").read_bytes())


def test_meta_records_the_versions_and_leaves_the_csv_alone(tmp_path):
    # the .meta names the numpy, scipy and Python that ran, and each CSV
    # keeps its pinned bytes: a tail-free disc sweep, a plane point whose
    # inner relays leave about a tenth of the trials open, and a disc
    # point with a tail and the void walk. A tail case checks first that
    # its point still draws a tail, and the plane CSV changes if the tail
    # is left out. The digests began 8e4bd935, 19ece989 and 4a1264af
    # while every inner relay was drawn
    from relayfield.simulation import _sampler

    cases = [
        (["--lambda", "0.05,0.1", "--seed", "4"], None,
         "c58889fcc133edbd57102079abe45447ba41cd8509b19e19763d33ca6fbf1b7a"),
        (["--region", "plane", "--snr", "100", "--lambda", "0.1",
          "--seed", "5"], Region.plane(),
         "1b207002284ded5aa219f405759bbaaea606c0e532d287900cf0390639e15dae"),
        (["--snr", "10", "--lambda", "0.1", "--seed", "4"], Region.disc(5.0),
         "4d0c9e4b132ca3caaa70366bc9519345ca257c1146a4094ed4568dcc4796c8d6"),
    ]
    out = tmp_path / "run.csv"
    for argv, region, digest in cases:
        if region is not None:
            snr = float(argv[argv.index("--snr") + 1])
            s = _sampler(SystemParams(snr_budget=snr, path_loss=2.0,
                                      threshold=1.0, subcarriers=4,
                                      r_sd=5.0), region, 0.1)
            assert s.tail_mean > 0
            assert math.isfinite(s.annulus_mean) == (region.kind == "disc")
        assert main(["--mode", "simulate", "--scheme", "both", *argv,
                     "--trials", "2000", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    meta = (tmp_path / "run.csv.meta").read_text().splitlines()
    assert meta[:4] == [f"tool_version = {relayfield.__version__}",
                        f"numpy_version = {numpy.__version__}",
                        f"scipy_version = {scipy.__version__}",
                        f"python_version = {platform.python_version()}"]


def test_meta_records_pool_workers(tmp_path):
    # pool_workers is the size of the pool a sweep started, 1 if none;
    # the CSV does not depend on it
    def run(*argv):
        out = tmp_path / "run.csv"
        assert main([*argv, "--output", str(out)]) == 0
        meta = (tmp_path / "run.csv.meta").read_text().splitlines()
        return out.read_bytes(), [line for line in meta
                                  if line.startswith("pool_workers")]

    plane = ("--mode", "simulate", "--scheme", "both", "--region", "plane",
             "--lambda", "0.1", "--snr", "100,1000", "--trials", "40000")
    one = run(*plane, "--workers", "1")
    assert one[1] == ["pool_workers = 1"]
    assert run(*plane, "--workers", "2") == (one[0], ["pool_workers = 2"])
    assert run("--mode", "simulate", "--lambda", "0.1,0.2", "--trials", "500",
               "--workers", "2")[1] == ["pool_workers = 1"]
    assert run("--mode", "analytic", "--lambda", "0.1")[1] == []


def test_meta_records_r_max_only_for_truncated_simulation(tmp_path, capsys):
    # the plane is never truncated: --region disc --sigma R replaces --rmax R,
    # so --rmax and the config key rmax are unknown and no .meta has r_max
    def meta(*argv):
        out = tmp_path / "run.csv"
        assert main(["--region", "plane", "--lambda", "0.1", *argv,
                     "--output", str(out)]) == 0
        return (tmp_path / "run.csv.meta").read_text().splitlines()

    for argv in (("--mode", "simulate", "--trials", "200"),
                 ("--mode", "analytic"), ("--mode", "ratio")):
        assert not any(line.startswith("r_max") for line in meta(*argv))
    out = tmp_path / "rmax.csv"
    assert main(["--mode", "simulate", "--region", "plane", "--rmax", "20",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: unrecognized arguments: --rmax 20")
    conf = tmp_path / "run.conf"
    conf.write_text("mode = simulate\nregion = plane\nrmax = 20\n"
                    f"output = {out}\n")
    assert main(["--config", str(conf)]) == 1
    assert capsys.readouterr().err == "error: unknown config key 'rmax'\n"
    assert not out.exists()


def test_verify_under_rmax_checks_against_the_disc(tmp_path):
    # what --rmax 8 used to sample, the disc of radius 8 drawn thinned
    # beyond r*, verifies against its own quadrature
    from relayfield import Region, SystemParams, outage_bulk, outage_ps
    out = tmp_path / "disc8.csv"
    assert main(["--mode", "simulate", "--scheme", "both",
                 "--region", "disc", "--sigma", "8", "--lambda", "0.05",
                 "--snr", "100", "--trials", "20000", "--verify",
                 "--output", str(out)]) == 0
    params = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                          subcarriers=4, r_sd=5.0)
    disc = Region.disc(8.0)
    rows = _read_rows(out)
    assert {row["scheme"]: float(row["p_analytic"]) for row in rows} == {
        "bulk": outage_bulk(params, disc, 0.05),
        "ps": outage_ps(params, disc, 0.05)}
    assert [row["verify_ok"] for row in rows] == ["1", "1"]


def test_verify_accepts_no_outages_when_truth_is_rare(tmp_path):
    # p = 3.8e-6 is far below 1/trials: seeing no outage is the likely,
    # correct result, although its plug-in standard error is 0
    none_seen = OutageEstimate(p_hat=0.0, stderr=0.0, trials=1000, seed=1,
                               empty_fraction=0.0)
    assert _within_3_sigma(none_seen, 3.8e-6)
    assert not _within_3_sigma(none_seen, 0.01)
    off = OutageEstimate(p_hat=0.5, stderr=math.sqrt(0.25 / 1000),
                         trials=1000, seed=1, empty_fraction=0.0)
    assert _within_3_sigma(off, 0.47)
    assert not _within_3_sigma(off, 0.45)
    # the plane run that exited 2 when only the plug-in error was used
    out = tmp_path / "plane.csv"
    assert main(["--mode", "simulate", "--scheme", "both",
                 "--region", "plane", "--lambda", "0.1", "--snr", "100",
                 "--trials", "1000", "--seed", "1", "--verify",
                 "--output", str(out)]) == 0
    assert [row["verify_ok"] for row in _read_rows(out)] == ["1", "1"]


def test_verify_counts_the_rows_it_cannot_test(tmp_path):
    # p_hat = 0 agrees whenever ref lies within 3 se of 0, whatever the
    # run drew. On the plane at SNR 1000 both exact outages (6.0e-17 bulk,
    # 1.7e-67 ps) lie far below 1/400, so neither row is tested; on the
    # disc at SNR 10 (0.997 and 0.965) both are
    def meta(*argv):
        out = tmp_path / "run.csv"
        assert main(["--mode", "simulate", "--scheme", "both", "--K", "4",
                     "--lambda", "0.1", "--trials", "400", "--verify", *argv,
                     "--output", str(out)]) == 0
        return (tmp_path / "run.csv.meta").read_text().splitlines()

    plane = meta("--region", "plane", "--snr", "1000")
    assert "verify_mismatches = 0" in plane
    assert "verify_unchecked = 2" in plane
    assert "verify_unchecked = 0" in meta("--snr", "10")


def test_ratio_mode(tmp_path):
    from relayfield import Region, SystemParams, outage_ratio

    out = tmp_path / "ratio.csv"
    rc = main(["--mode", "ratio", "--lambda", "0.02,0.1",
               "--epsilon", "0.99", "--output", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    p = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                     subcarriers=4, r_sd=5.0)
    expect = outage_ratio(p, Region.disc(5.0), 0.02)
    assert float(rows[0]["phi"]) == pytest.approx(expect.phi, rel=1e-12)
    assert float(rows[2]["epsilon"]) == 0.99


def test_diversity_mode(tmp_path):
    out = tmp_path / "div.csv"
    rc = main(["--mode", "diversity", "--lambda", "1",
               "--snr", "1e3,1e4,1e5", "--region", "plane",
               "--output", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 2
    slopes = [float(r["slope"]) for r in rows]
    assert slopes[0] < slopes[1]


def test_flat_diversity_slope_is_zero_not_minus_zero(tmp_path):
    # without relays the outage is 1 at every SNR and its log is -0.0,
    # so the slope is 0, which the CSV must not write as -0
    out = tmp_path / "div.csv"
    assert main(["--mode", "diversity", "--snr", "10,100", "--lambda", "0",
                 "--output", str(out)]) == 0
    assert [row["slope"] for row in _read_rows(out)] == ["0"]


def test_optimize_mode(tmp_path):
    out = tmp_path / "opt.csv"
    rc = main(["--mode", "optimize-k", "--lambda", "1", "--psi", "1e-2",
               "--output", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0]["K_opt"] == "9"
    meta = (tmp_path / "opt.csv.meta").read_text()
    assert "cutoff_density" in meta


def test_optimize_mode_at_psi_one(tmp_path):
    # every density meets psi = 1, so the cut-off density is zero
    out = tmp_path / "opt.csv"
    rc = main(["--mode", "optimize-k", "--lambda", "1", "--psi", "1",
               "--output", str(out)])
    assert rc == 0
    assert _read_rows(out)[0]["feasible"] == "1"
    meta = (tmp_path / "opt.csv.meta").read_text().splitlines()
    assert "cutoff_density = 0.0" in meta


def test_unbounded_optimum_is_a_numerical_failure(tmp_path, capsys):
    # at this SNR throughput still grows past the doubling bracket's cap
    out = tmp_path / "opt.csv"
    rc = main(["--mode", "optimize-k", "--lambda", "1", "--snr", "1e6",
               "--output", str(out)])
    assert rc == 2
    assert ("numerical failure: throughput still increasing past K"
            in capsys.readouterr().err)
    assert not out.exists()


def test_optimum_at_tiny_densities(tmp_path):
    # 1 - Phi cancels where x = 2 lambda u(K) nears the double epsilon,
    # to 0 at 1e-18 and in the 5th digit at 1e-12; kappa = -K expm1(-x)
    # is K x (1 - x / 2) to far below double precision here
    out = tmp_path / "opt.csv"
    assert main(["--mode", "optimize-k", "--region", "plane", "--alpha", "4",
                 "--lambda", "1e-18,1e-12", "--output", str(out)]) == 0
    rows = _read_rows(out)
    assert [row["K_opt"] for row in rows] == ["1", "1"]
    p = SystemParams(snr_budget=100.0, path_loss=4.0, threshold=1.0,
                     subcarriers=1, r_sd=5.0)
    for row in rows:
        x = 2.0 * float(row["lambda"]) * u(1.0, p, Region.plane())
        assert float(row["kappa_opt"]) == pytest.approx(x * (1.0 - 0.5 * x),
                                                        rel=1e-14, abs=0)
    assert float(rows[1]["kappa_opt"]) == pytest.approx(
        2.7581931395532894e-12, rel=1e-14, abs=0)


def test_newton_step_cap_is_a_numerical_failure(tmp_path, capsys,
                                                monkeypatch):
    # with u' = 0, kappa' = -expm1(-2 u) changes sign where u does, at
    # K = 3, so the doubling closes the bracket [2, 4]; u'' > 0 makes
    # kappa'' > 0, which turns every step into a bisection, and no
    # bisection is a step short enough to stop on
    monkeypatch.setattr(
        relayfield.optimize, "_u_derivatives",
        lambda region, ks, *args: [(1.0 if k < 3.0 else -1.0, 0.0, 1.0)
                                   for k in ks])
    out = tmp_path / "opt.csv"
    rc = main(["--mode", "optimize-k", "--lambda", "1", "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "numerical failure: throughput maximum did not converge in 60 "
        "Newton steps (bracket [")
    lo, hi = map(float, re.search(r"\[(.*), (.*)\]", err).groups())
    assert 2.0 < lo <= 3.0 <= hi < 4.0 and hi - lo < 1e-15
    assert not out.exists()


def _benchmark_reset():
    """The quadrature-cache reset the benchmark runs before each pass
    (perfbench/run.py), loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.clear_caches


def test_benchmark_reset_clears_every_cache(tmp_path, integrations):
    # the reset calls cache_clear() with no arguments on every module-level
    # object of relayfield that has one; each must take that call, and
    # after it fig7 integrates exactly as much as from a cold start
    reset = _benchmark_reset()
    clearable = [obj for name, module in list(sys.modules.items())
                 if name == "relayfield" or name.startswith("relayfield.")
                 for obj in vars(module).values()
                 if callable(getattr(obj, "cache_clear", None))]
    assert relayfield.analytic._store in clearable
    argv = ["--mode", "figure", "--figure", "fig7",
            "--output", str(tmp_path / "fig7.csv")]
    counts = []
    for before in (None, None, reset):
        if before:
            before()
        integrations.clear()
        assert main(argv) == 0
        counts.append(len(integrations))
    cold, warm, after_reset = counts
    assert cold > 0 and warm == 0 and after_reset == cold


@pytest.mark.parametrize("argv, passes", [
    # u(1..32) in one pass; bulk reads u(32) from it
    ("--mode analytic --scheme both --region plane --K 32 --alpha 4 "
     "--snr 100 --lambda 0.01:0.5:8", [32]),
    # one pass per SNR, each a configuration of its own
    ("--mode analytic --scheme both --K 8 --alpha 3 --snr 10,100,1000 "
     "--lambda 0.05:2:6", [8, 8, 8]),
    # Delta(1..8), then u(1..8), which both outages of the cross-check read
    ("--mode ratio --region plane --K 8 --snr 100 --lambda 0.03,0.3 "
     "--epsilon 0.01,0.2", [1, 8]),
])
def test_each_analytic_configuration_integrates_once(tmp_path, integrations,
                                                     argv, passes):
    assert main(argv.split() + ["--output", str(tmp_path / "o.csv")]) == 0
    assert integrations == passes


def test_bulk_cells_do_not_depend_on_the_schemes_asked(tmp_path, cold_caches):
    # plane alpha 2, K 16 at SNR 1000 is where u(16) alone and in the
    # batch differ in their last bits
    argv = ["--mode", "analytic", "--region", "plane", "--K", "16",
            "--snr", "316.227766,1000", "--lambda", "0.01:0.5:8"]
    bulk = {}
    for scheme in ("both", "bulk"):
        cold_caches()
        out = tmp_path / f"{scheme}.csv"
        assert main(argv + ["--scheme", scheme, "--output", str(out)]) == 0
        bulk[scheme] = [row for row in _read_rows(out)
                        if row["scheme"] == "bulk"]
    assert len(bulk["bulk"]) == 16 and bulk["both"] == bulk["bulk"]


def test_past_the_subcarrier_cap_bulk_integrates_u_of_k_alone(
        tmp_path, capsys, integrations):
    argv = ["--mode", "analytic", "--region", "plane", "--K", "65",
            "--alpha", "4", "--lambda", "0.1,1", "--output",
            str(tmp_path / "o.csv")]
    assert main(argv + ["--scheme", "bulk"]) == 0
    assert integrations == [1]
    assert main(argv + ["--scheme", "ps"]) == 2
    assert "subcarrier count 65 exceeds" in capsys.readouterr().err


def test_figure_optima_match_exhaustive_search(tmp_path):
    # every fig7 and fig8 row against kappa and Phi at each integer K in
    # 1..64; u at integer K does not depend on lambda, so the cached u of
    # each K and alpha serves every density
    rows = {}
    for figure in ("fig7", "fig8"):
        out = tmp_path / f"{figure}.csv"
        assert main(["--mode", "figure", "--figure", figure,
                     "--output", str(out)]) == 0
        rows[figure] = _read_rows(out)
    assert len(rows["fig7"]) == 26 and len(rows["fig8"]) == 39
    disc, ks = Region.disc(5.0), range(1, 65)

    def caption(alpha):
        return SystemParams(snr_budget=100.0, path_loss=alpha,
                            threshold=1.0, subcarriers=4, r_sd=5.0)

    k_relaxed = {}
    for row in rows["fig7"]:
        p, density = caption(float(row["alpha"])), float(row["lambda"])
        assert int(row["K_opt"]) == max(
            ks, key=lambda k: throughput(k, p, disc, density))
        k_relaxed[row["alpha"], row["lambda"]] = float(row["K_relaxed"])
    # fig8 is fig7's alpha = 2 grid under each ceiling
    p = caption(2.0)
    for row in rows["fig8"]:
        density, psi = float(row["lambda"]), float(row["psi"])
        meeting = [k for k in ks if k <= k_relaxed["2", row["lambda"]]
                   and outage_bulk(p, disc, density, subcarriers=k) <= psi]
        assert int(row["K_opt"]) == max(meeting, default=0)
        assert row["feasible"] == ("1" if meeting else "0")


# each preset's CSV header and row count
FIGURE_CSV = {
    "fig2": ("lambda,K,kappa", 7 * 16),
    "fig3": ("alpha,K,snr,snr_db,p_analytic,p_sim,stderr", 2 * 2 * 9),
    "fig4": ("alpha,K,snr,snr_db,p_analytic,p_sim,stderr", 2 * 2 * 9),
    "fig5": ("alpha,lambda,connection_bulk,connection_ps", 2 * 12),
    "fig6": ("epsbar,lambda_exact,lambda_approx", 9),
    "fig7": ("alpha,lambda,K_relaxed,K_opt,kappa_opt", 2 * 13),
    "fig8": ("psi,lambda,K_opt,feasible", 3 * 13),
}


# every mode's CSV header, by the mode and the flags that add columns
_SIMULATED = ("lambda,snr,snr_db,K,alpha,s,scheme,p_outage,stderr,"
              "empty_fraction")
MODE_CSV = {
    "simulate --verify --connection":
        f"{_SIMULATED},p_analytic,verify_ok,connection",
    "simulate": _SIMULATED,
    "analytic --connection":
        "lambda,snr,snr_db,K,alpha,s,scheme,p_outage,connection",
    "asymptotic --snr 10000": "lambda,snr,snr_db,K,alpha,s,scheme,p_outage",
    "ratio --epsilon 0.5":
        "lambda,phi,phi_approx,epsilon,lambda_exact,lambda_approx",
    "ratio": "lambda,phi,phi_approx",
    "diversity --snr 10,100": "lambda,snr_lo,snr_hi,slope",
    "optimize-k": "lambda,K_relaxed,K_opt,kappa_opt,feasible",
}


@pytest.mark.parametrize("mode", MODE_CSV)
def test_mode_csv_header(tmp_path, mode):
    # a mode's columns come in a fixed order, and every row fills each of
    # them but where ratio mixes density and epsilon rows: a density row
    # leaves the epsilon columns empty, an epsilon row phi_approx
    out = tmp_path / "mode.csv"
    assert main(["--mode", *mode.split(), "--lambda", "0.2",
                 "--trials", "2000", "--output", str(out)]) == 0
    assert out.read_text().splitlines()[0] == MODE_CSV[mode]
    empty = [[key for key, cell in row.items() if cell == ""]
             for row in _read_rows(out)]
    assert empty == ([["epsilon", "lambda_exact", "lambda_approx"],
                      ["phi_approx"]] if "--epsilon" in mode
                     else [[]] * len(empty))


@pytest.mark.parametrize("figure", FIGURES)
def test_figure_preset_smoke(tmp_path, figure):
    header, n_rows = FIGURE_CSV[figure]
    out = tmp_path / f"{figure}.csv"
    rc = main(["--mode", "figure", "--figure", figure, "--trials", "200",
               "--output", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == header
    rows = _read_rows(out)
    assert len(rows) == n_rows
    assert all("" not in row.values() for row in rows)
    if "alpha" in rows[0]:
        assert {row["alpha"] for row in rows} == {"2", "4"}
    meta = (tmp_path / f"{figure}.csv.meta").read_text().splitlines()
    assert f"figure = {figure}" in meta
    # the presets that simulate record their pool; 200 trials need none.
    # A figure plots its 3-sigma misses rather than failing on them.
    assert [line for line in meta if line.startswith("pool_workers")] == (
        ["pool_workers = 1"] if figure in ("fig3", "fig4") else [])
    assert not any(line.startswith(("verify_mismatches", "verify_unchecked"))
                   for line in meta)


def test_exit_codes(tmp_path, capsys):
    assert main(["--mode", "analytic", "--alpha", "1.5"]) == 1
    assert "alpha" in capsys.readouterr().err
    # K = 65 overruns the alternating-sum cancellation limit
    out = tmp_path / "bad.csv"
    rc = main(["--mode", "analytic", "--scheme", "ps", "--K", "65",
               "--output", str(out)])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_every_numerical_failure_is_an_arithmetic_error():
    # main exits 2 on ArithmeticError alone, so every numerical failure
    # the layers raise must be one
    for failure in (relayfield.analytic.QuadratureError,
                    relayfield.analytic.NumericalInstabilityError,
                    relayfield.optimize.UnboundedOptimumError,
                    relayfield.optimize.ConvergenceError,
                    relayfield.cli.NumericalFailure):
        assert issubclass(failure, ArithmeticError), failure


@pytest.mark.parametrize("argv, message", [
    (["--mode", "diversity", "--snr", "100"], "at least two"),
    # phi is identically 1 at K = 1, so no density reaches phi <= 0.5;
    # Delta(1) is rounding noise there, exactly 0.0 at SNR 1000
    (["--mode", "ratio", "--K", "1", "--epsilon", "0.5"], "epsilon target"),
    (["--mode", "ratio", "--K", "1", "--epsilon", "0.5", "--snr", "1000"],
     "epsilon target"),
    (["--mode", "diversity", "--snr", "100,100"], "increasing --snr"),
    (["--mode", "optimize-k", "--lambda", "0"], "--lambda > 0"),
    (["--mode", "optimize-k", "--lambda", "0.5,0", "--psi", "1e-3"],
     "--lambda > 0"),
    # these modes solve at one SNR and write no snr column
    (["--mode", "optimize-k", "--snr", "10,100", "--lambda", "0.1"],
     "mode optimize-k takes one --snr"),
    (["--mode", "ratio", "--snr-db", "10:20:2"], "mode ratio takes one --snr"),
    # K s tau / P = 563: either expansion overflows a double
    (["--mode", "asymptotic", "--alpha", "6", "--snr", "1000", "--lambda",
      "1"], "leaves double range at K*s*tau/(P_t/N_0) = 563"),
    (["--mode", "asymptotic", "--alpha", "6", "--snr", "1000", "--lambda",
      "1", "--scheme", "ps"], "leaves double range at K*s*tau/(P_t/N_0)"),
    # inf meets every lower bound; the model then fails or writes rows
    (["--mode", "simulate", "--snr", "inf"], "--snr must be finite, got inf"),
    (["--mode", "simulate", "--lambda", "0.1,inf"],
     "--lambda must be finite, got 0.1,inf"),
    (["--mode", "analytic", "--rsd", "inf"], "--rsd must be finite, got inf"),
    (["--mode", "analytic", "--sigma", "inf"],
     "--sigma must be finite, got inf"),
    (["--mode", "analytic", "--alpha", "inf"],
     "--alpha must be finite, got inf"),
    (["--mode", "analytic", "--s", "inf"], "--s must be finite, got inf"),
    # a value may begin with "-"
    (["--mode", "analytic", "--lambda", "-inf"],
     "--lambda must be finite, got -inf"),
    (["--mode", "analytic", "--lambda", "-inf:1:3"],
     "--lambda must be finite, got -inf:1:3"),
])
def test_model_errors_exit_1(tmp_path, capsys, argv, message):
    out = tmp_path / "bad.csv"
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_figure_mode_requires_figure():
    with pytest.raises(ValidationError, match="requires --figure"):
        parse_config(["--mode", "figure"])


def test_flags_and_config_file_give_equal_configs(tmp_path):
    # every option except --snr, which excludes --snr-db
    opts = {"mode": "simulate", "scheme": "both", "lambda": "0.1,0.5",
            "snr-db": "10:30:3", "region": "plane", "sigma": "4",
            "rsd": "3", "K": "8", "alpha": "3", "s": "0.5",
            "trials": "500", "seed": "7", "workers": "2", "psi": "0.01",
            "epsilon": "0.9,0.99", "output": "x.csv", "abs-tol": "1e-9",
            "rel-tol": "1e-7", "figure": "fig3"}
    argv = [arg for key, text in opts.items() for arg in (f"--{key}", text)]
    from_flags = parse_config(argv + ["--verify", "--connection"])
    assert all(getattr(from_flags, name) != value
               for name, value in vars(ExperimentConfig("analytic")).items())
    conf = tmp_path / "run.conf"
    conf.write_text("".join(f"{key} = {text}\n" for key, text in opts.items())
                    + "verify = true\nconnection = 1\n")
    assert parse_config(["--config", str(conf)]) == from_flags
    # the field names are keys too; snrs reads linear values
    fields = {"K": "subcarriers", "s": "threshold", "lambda": "densities",
              "region": "region_kind", "epsilon": "epsilons",
              "abs-tol": "abs_tol", "rel-tol": "rel_tol"}
    lines = [f"{fields.get(key, key)} = {text}\n" for key, text in opts.items()
             if key != "snr-db"]
    conf.write_text("".join(lines) + "snrs = 10,100,1000\nverify = 1\n"
                    "connection = yes\n")
    from_fields = parse_config(["--config", str(conf)])
    assert from_fields.snrs == [10.0, 100.0, 1000.0]
    assert vars(from_fields) == {**vars(from_flags),
                                 "snrs": from_fields.snrs}
    conf.write_text("mode = ratio\nverify = False\nconnection = no\n")
    cfg = parse_config(["--config", str(conf)])
    assert cfg.verify is False and cfg.connection is False


def test_snr_flag_overrides_file_and_excludes_snr_db(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("mode = analytic\nsnr = 100\n")
    assert parse_config(["--config", str(conf), "--snr-db", "30"]).snrs == [
        1000.0]
    assert parse_config(["--config", str(conf), "--snr", "30"]).snrs == [30.0]
    with pytest.raises(ValidationError, match="only one of --snr and --snr-db"):
        parse_config(["--mode", "analytic", "--snr", "10", "--snr-db", "10"])
    conf.write_text("mode = analytic\nsnr_db = 20\nK = 4\nsubcarriers = 8\n"
                    "snr = 100\n")
    with pytest.raises(ValidationError) as exc:
        parse_config(["--config", str(conf)])
    assert exc.value.problems == [
        "give only one of config key 'K' and config key 'subcarriers'",
        "give only one of config key 'snr_db' and config key 'snr'"]


@pytest.mark.parametrize("key, text, flag_fails", [
    ("region", "Plane", True),
    ("figure", "fig9", True),
    ("scheme", "Both", True),
    ("verify", "ture", False),
    ("connection", "2", False),
    ("snr", "inf", True),
    ("lambda", "inf", True),
    ("rsd", "inf", True),
    ("sigma", "inf", True),
    ("alpha", "inf", True),
    ("s", "inf", True),
])
def test_file_values_get_the_flag_checks(tmp_path, key, text, flag_fails):
    conf = tmp_path / "run.conf"
    conf.write_text(f"mode = ratio\n{key} = {text}\n")
    with pytest.raises(ValidationError, match=f"config key '{key}'"):
        parse_config(["--config", str(conf)])
    if flag_fails:
        with pytest.raises(ValidationError, match=f"--{key}"):
            parse_config(["--mode", "ratio", f"--{key}", text])


def test_bounds_on_numeric_options():
    with pytest.raises(ValidationError) as exc:
        parse_config(["--mode", "ratio", "--abs-tol", "0",
                      "--rel-tol=-1e-8", "--epsilon", "0.5,1.5",
                      "--psi", "2", "--lambda", "0.1,-1", "--snr-db", "-4000",
                      "--workers", "0", "--K", "2.5", "--seed", "-3"])
    assert exc.value.problems == [
        "--lambda must be >= 0, got 0.1,-1",
        "--snr-db must be > 0, got -4000",
        "--K: cannot parse '2.5'",
        "--seed must be >= 0 and <= 18446744073709551615, got -3",
        "--workers must be >= 1, got 0",
        "--psi must be > 0 and <= 1, got 2",
        "--epsilon must be > 0 and <= 1, got 0.5,1.5",
        "--abs-tol must be > 0, got 0",
        "--rel-tol must be > 0, got -1e-8"]


def test_negative_exponent_values_reach_the_bound_checks(capsys):
    # a flag takes the next argument as its value, whatever it starts with
    for flag, text, rule in (("--rel-tol", "-1e-8", "> 0"),
                             ("--lambda", "-1e-3", ">= 0"),
                             ("--snr", "-1E+2,10", "> 0")):
        assert main(["--mode", "analytic", flag, text]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be {rule}, got {text}\n"
    # only whole flags exist, so no abbreviation takes a value past them
    for argv in (["--rel", "-1e-8"], ["--lam", "0.1"]):
        assert main(["--mode", "analytic", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: unrecognized arguments: {argv[0]}")
    cfg = parse_config(["--mode", "analytic", "--lambda", "2e-3",
                        "--output", "-1e3.csv"])
    assert cfg.densities == [2e-3] and cfg.output == "-1e3.csv"


def test_readme_option_table_lists_every_option():
    # each table row pairs its field names with its flags, in order
    readme = Path(__file__).resolve().parents[1] / "README.md"
    listed = set()
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = line.split("|")
        if len(cells) == 5 and cells[2].strip().startswith("`--"):
            names = re.findall(r"`(\w+)`", cells[1])
            flags = re.findall(r"`(--[\w-]+)`", cells[2])
            assert len(names) == len(flags), line
            listed |= set(zip(names, flags))
    assert listed == {(opt.name, opt.flag) for opt in _OPTIONS}


def test_malformed_flags_exit_1(capsys):
    for argv in (["--mode", "bogus"], ["--mode", "analytic", "--K", "four"],
                 ["--mode", "analytic", "--bogus", "1"],
                 ["--mode", "analytic", "--K"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("  --")}
    assert listed == {"--config", *(opt.flag for opt in _OPTIONS)}


def test_asymptotic_mode_converges_to_analytic_at_alpha_3(tmp_path):
    # alpha 3 has no closed-form tau: the asymptotic rows must still
    # approach the exact ones as 1/P**2, where an error in tau would
    # leave a 1/P term
    def p_outage(mode):
        out = tmp_path / f"{mode}.csv"
        assert main(["--mode", mode, "--alpha", "3", "--scheme", "both",
                     "--snr", "1e5,1e6", "--output", str(out)]) == 0
        return [float(row["p_outage"]) for row in _read_rows(out)]

    errors = [abs(a - e) / e for a, e in zip(p_outage("asymptotic"),
                                             p_outage("analytic"))]
    # rows: (1e5, bulk), (1e5, ps), (1e6, bulk), (1e6, ps)
    for coarse, fine in zip(errors[:2], errors[2:]):
        assert fine < 0.03 * coarse
        assert fine < 2e-4


def test_asymptotic_mode_is_disc_only(tmp_path, capsys):
    out = tmp_path / "asy.csv"
    assert main(["--mode", "asymptotic", "--region", "plane",
                 "--snr", "1000", "--output", str(out)]) == 1
    assert "disc only" in capsys.readouterr().err
    assert not out.exists()
    assert main(["--mode", "asymptotic", "--snr", "1000",
                 "--output", str(out)]) == 0
