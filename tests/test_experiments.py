import io

import numpy as np
import pytest

from smcm import experiments
from smcm.core import deterministic_step, stationary_fractions, step_generator, uniform_fractions
from smcm.experiments import (
    ConfigError,
    ExperimentConfig,
    GridMismatchError,
    ScalingResult,
    TimeSeries,
    dump_scan,
    dump_timeseries,
    fit_power_law,
    fluctuation_rms,
    read_scan,
    read_timeseries,
    run_simulation,
    scaling_scan,
    shot_gap,
)
from smcm.lcu import decompose
from smcm.qsim import quantum_step, step_operator
from oracles import fractions, init_lattice, init_rng

SHORT = dict(t_end=5.0, spinup=1.0)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.mode == "deterministic" and cfg.n_steps == 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="exact"),
            dict(dt=0.0),
            dict(dt=np.nan),
            dict(t_end=0.05),
            dict(spinup=200.0),
            dict(n_sites=0),
            dict(n_shots=-1),
            dict(seed=-1),
            dict(cape=-1.0),
            dict(t_end=1.05, spinup=0.2),
            dict(t_end=1.0, dt=0.3, spinup=0.2),
            dict(t_end=1e300, dt=1e-300),
            dict(t_end=1.0, dt=1e-320, spinup=0.2),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_timeseries_invariants(self):
        with pytest.raises(ValueError):
            TimeSeries(times=np.array([0.0, 0.0]), sigmas=np.full((2, 4), 0.25))
        with pytest.raises(ValueError):
            TimeSeries(times=np.array([0.0]), sigmas=np.full((2, 4), 0.25))


class TestRunSimulation:
    def test_deterministic_reaches_equilibrium(self, reference_rates):
        series = run_simulation(ExperimentConfig())
        assert np.abs(series.sigmas[-1] - stationary_fractions(reference_rates)).max() < 1e-6

    def test_every_record_on_simplex(self):
        series = run_simulation(ExperimentConfig(mode="montecarlo", n_sites=40, **SHORT, seed=3))
        assert np.abs(series.sigmas.sum(axis=1) - 1.0).max() < 1e-12
        assert (series.sigmas >= 0).all()

    def test_single_site_runs_on_vertices(self):
        series = run_simulation(ExperimentConfig(mode="montecarlo", n_sites=1, **SHORT, seed=5))
        assert set(np.unique(series.sigmas)) == {0.0, 1.0}

    def test_exact_quantum_matches_deterministic(self):
        exact = run_simulation(ExperimentConfig(mode="quantum", n_shots=0, **SHORT))
        det = run_simulation(ExperimentConfig(mode="deterministic", **SHORT))
        assert np.array_equal(exact.times, det.times)
        assert np.abs(exact.sigmas - det.sigmas).max() < 1e-9

    def test_sampled_quantum_fluctuates_around_deterministic(self):
        sampled = run_simulation(
            ExperimentConfig(mode="quantum", n_shots=2000, **SHORT, seed=1)
        )
        det = run_simulation(ExperimentConfig(mode="deterministic", **SHORT))
        diff = np.abs(sampled.sigmas - det.sigmas)
        assert 0.0 < diff.max() < 0.2

    def test_sampled_quantum_step_replays_from_row_and_seed(self, reference_matrix):
        cfg = ExperimentConfig(mode="quantum", n_shots=1000, **SHORT, seed=13)
        series = run_simulation(cfg)
        operator = step_operator(decompose(reference_matrix))
        for i in (0, 17, cfg.n_steps - 1):
            rng = step_generator(cfg.seed, i)
            replayed = quantum_step(series.sigmas[i], operator, cfg.n_shots, rng)
            assert np.array_equal(replayed, series.sigmas[i + 1])

    def test_deterministic_run_matches_hand_loop(self, reference_matrix):
        series = run_simulation(ExperimentConfig(**SHORT))
        sigma = uniform_fractions()
        assert np.array_equal(series.sigmas[0], sigma)
        for row in series.sigmas[1:]:
            sigma = deterministic_step(reference_matrix, sigma)
            assert np.array_equal(row, sigma)

    def test_montecarlo_run_matches_hand_loop(self, reference_matrix):
        # step i: the sites in each source state, in state order, spread over
        # the states as one multinomial each from the step's generator
        cfg = ExperimentConfig(mode="montecarlo", n_sites=60, **SHORT, seed=21)
        series = run_simulation(cfg)
        lattice = init_lattice(cfg.n_sites, uniform_fractions(), init_rng(cfg.seed))
        assert np.array_equal(fractions(lattice), series.sigmas[0])
        counts = np.bincount(lattice.sites, minlength=4)
        for i in range(cfg.n_steps):
            rng = step_generator(cfg.seed, i)
            counts = sum(rng.multinomial(counts[l], reference_matrix[:, l]) for l in range(4))
            assert np.array_equal(counts / cfg.n_sites, series.sigmas[i + 1])

    def test_runs_reproducible_by_seed(self):
        cfg = ExperimentConfig(mode="montecarlo", n_sites=60, **SHORT, seed=7)
        a, b = run_simulation(cfg), run_simulation(cfg)
        assert np.array_equal(a.sigmas, b.sigmas)


class TestFluctuationRms:
    def make_series(self, sigmas):
        n = len(sigmas)
        return TimeSeries(times=np.arange(n) * 0.1, sigmas=np.asarray(sigmas, dtype=float))

    def test_identical_series_give_zero(self):
        s = self.make_series(np.full((50, 4), 0.25))
        assert fluctuation_rms(s, s, spinup=1.0) == 0.0

    def test_constant_offset_on_one_component(self):
        base = np.full((50, 4), 0.25)
        shifted = base.copy()
        shifted[:, 2] += 0.08
        rms = fluctuation_rms(self.make_series(shifted), self.make_series(base), spinup=1.0)
        assert rms == pytest.approx(0.04, abs=1e-15)  # pooled over 4 components

    def test_spinup_window_respected(self):
        base = np.full((50, 4), 0.25)
        noisy = base.copy()
        noisy[:10, 0] += 0.5  # perturbation entirely inside spin-up
        rms = fluctuation_rms(self.make_series(noisy), self.make_series(base), spinup=1.0)
        assert rms == 0.0

    def test_grid_mismatch_rejected(self):
        a = self.make_series(np.full((10, 4), 0.25))
        b = TimeSeries(times=np.arange(10) * 0.2, sigmas=np.full((10, 4), 0.25))
        with pytest.raises(GridMismatchError):
            fluctuation_rms(a, b, spinup=0.5)

    def test_empty_window_rejected(self):
        s = self.make_series(np.full((10, 4), 0.25))
        with pytest.raises(ValueError):
            fluctuation_rms(s, s, spinup=5.0)


class TestPowerLawFit:
    def test_exact_inverse_square_root(self):
        x = np.array([100.0, 400.0, 1600.0, 6400.0])
        exponent, prefactor = fit_power_law(x, x**-0.5)
        assert exponent == pytest.approx(-0.5, abs=1e-12)
        assert prefactor == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_recovered(self):
        x = np.array([10.0, 100.0, 1000.0])
        exponent, prefactor = fit_power_law(x, 3.7 * x**-0.5)
        assert exponent == pytest.approx(-0.5, abs=1e-12)
        assert prefactor == pytest.approx(3.7, abs=1e-10)

    def test_positive_data_required(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [0.5, -0.5])


class TestScalingScan:
    def test_validation(self):
        cfg = ExperimentConfig(mode="montecarlo", **SHORT)
        with pytest.raises(ConfigError):
            scaling_scan(ExperimentConfig(**SHORT), [10, 100, 1000], 3)
        with pytest.raises(ConfigError):
            scaling_scan(cfg, [10, 100], 3)
        with pytest.raises(ConfigError):
            scaling_scan(cfg, [10, 20, 40], 3)  # too narrow a span
        with pytest.raises(ConfigError):
            scaling_scan(cfg, [10, 100, 1000], 2)

    def test_bad_last_value_fails_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "run_simulation", calls.append)
        cfg = ExperimentConfig(mode="quantum", **SHORT)
        with pytest.raises(ConfigError, match="n_shots"):
            scaling_scan(cfg, [10_000, 100_000, 10**20], 3)
        assert calls == []

    def test_small_montecarlo_scan(self):
        cfg = ExperimentConfig(mode="montecarlo", t_end=10.0, spinup=2.0, seed=42)
        result = scaling_scan(cfg, [10, 60, 360], repeats=3)
        assert result.x.tolist() == [10.0, 60.0, 360.0]
        assert (result.rms_mean > 0).all()
        assert result.rms_mean[0] > result.rms_mean[-1]
        assert result.exponent < 0

    def test_scan_reproducible(self):
        cfg = ExperimentConfig(mode="quantum", t_end=2.0, spinup=0.5, seed=9)
        a = scaling_scan(cfg, [100, 1000, 10000], repeats=3)
        b = scaling_scan(cfg, [100, 1000, 10000], repeats=3)
        assert np.array_equal(a.rms_mean, b.rms_mean)
        assert a.exponent == b.exponent


class TestShotGap:
    def make_result(self, exponent, prefactor):
        x = np.array([100.0, 1000.0, 10000.0])
        return ScalingResult(
            x=x,
            rms_mean=prefactor * x**exponent,
            rms_std=np.zeros(3),
            repeats=5,
            exponent=exponent,
            prefactor=prefactor,
        )

    def test_identical_results_give_one(self):
        r = self.make_result(-0.5, 2.0)
        assert shot_gap(r, r) == pytest.approx(1.0)

    def test_ratio_of_prefactors(self):
        assert shot_gap(self.make_result(-0.5, 0.4), self.make_result(-0.52, 1.6)) == (
            pytest.approx(4.0)
        )

    def test_warns_when_exponent_off(self):
        good, bad = self.make_result(-0.5, 1.0), self.make_result(-0.9, 1.0)
        with pytest.warns(RuntimeWarning, match="far from -0.5"):
            shot_gap(good, bad)


class TestCsvIo:
    def test_timeseries_round_trip(self, tmp_path):
        series = run_simulation(ExperimentConfig(t_end=1.0, spinup=0.2))
        path = tmp_path / "ts.csv"
        with path.open("w", newline="\n") as fh:
            dump_timeseries(series, fh)
        text = path.read_text().splitlines()
        assert text[0] == "time_h,sigma_cs,sigma_c,sigma_d,sigma_s"
        assert len(text) == len(series.times) + 1
        back = read_timeseries(path)
        assert np.abs(back.sigmas - series.sigmas).max() < 1e-13

    def test_identical_configs_identical_bytes(self):
        cfg = ExperimentConfig(mode="montecarlo", n_sites=30, **SHORT, seed=2)
        a, b = io.StringIO(), io.StringIO()
        dump_timeseries(run_simulation(cfg), a)
        dump_timeseries(run_simulation(cfg), b)
        assert a.getvalue() == b.getvalue()

    def test_scan_round_trip(self, tmp_path):
        x = np.array([100.0, 1000.0, 10000.0])
        result = ScalingResult(
            x=x,
            rms_mean=0.7 * x**-0.5,
            rms_std=np.full(3, 0.01),
            repeats=5,
            exponent=-0.5,
            prefactor=0.7,
        )
        path = tmp_path / "scan.csv"
        with path.open("w", newline="\n") as fh:
            dump_scan(result, fh)
        assert path.read_text().splitlines()[0] == "n,rms_mean,rms_std,repeats"
        back = read_scan(path)
        assert back.exponent == pytest.approx(-0.5, abs=1e-12)
        assert back.prefactor == pytest.approx(0.7, abs=1e-12)
        assert back.repeats == 5

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(ValueError):
            read_timeseries(path)
        with pytest.raises(ValueError):
            read_scan(path)
