import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcm.core import N_STATES, deterministic_step, transition_matrix, uniform_fractions
from smcm.montecarlo import count_step, init_counts
from conftest import random_column_stochastic
from oracles import (
    _JUMP_TARGETS,
    Lattice,
    fractions,
    init_lattice,
    init_rng,
    mc_step,
    step_table,
    step_uniforms,
)


class TestStreams:
    def test_same_seed_same_step_same_block(self):
        assert np.array_equal(step_uniforms(9, 3, 100), step_uniforms(9, 3, 100))

    def test_site_value_independent_of_block_width(self):
        wide = step_uniforms(9, 3, 100)
        narrow = step_uniforms(9, 3, 10)
        assert np.array_equal(wide[:10], narrow)

    def test_steps_and_seeds_decorrelated(self):
        assert not np.array_equal(step_uniforms(9, 3, 50), step_uniforms(9, 4, 50))
        assert not np.array_equal(step_uniforms(9, 3, 50), step_uniforms(10, 3, 50))

    def test_init_rng_disjoint_from_steps(self):
        init_draw = init_rng(5).random(20)
        assert not np.array_equal(init_draw, step_uniforms(5, 0, 20))


class TestInitLattice:
    def test_four_sites_uniform(self):
        lat = init_lattice(4, uniform_fractions(), np.random.default_rng(0))
        assert sorted(lat.sites.tolist()) == [0, 1, 2, 3]

    def test_four_hundred_sites_uniform(self):
        lat = init_lattice(400, uniform_fractions(), np.random.default_rng(0))
        assert np.array_equal(np.bincount(lat.sites, minlength=4), [100, 100, 100, 100])

    def test_three_sites_uniform_rounds_one_state_out(self):
        lat = init_lattice(3, uniform_fractions(), np.random.default_rng(0))
        counts = np.bincount(lat.sites, minlength=4)
        assert sorted(counts.tolist()) == [0, 1, 1, 1]

    def test_largest_remainder_targets_fractions(self):
        sigma = np.array([0.5, 0.25, 0.15, 0.1])
        lat = init_lattice(1000, sigma, np.random.default_rng(1))
        counts = np.bincount(lat.sites, minlength=4)
        assert np.array_equal(counts, [500, 250, 150, 100])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            init_lattice(0, uniform_fractions(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            init_lattice(10, np.array([0.5, 0.5, 0.5, 0.5]), np.random.default_rng(0))


class TestInitCounts:
    @pytest.mark.parametrize("n", [1, 3, 2**53 + 1, 2**63 - 1])
    @pytest.mark.parametrize("sigma", [(0.25,) * 4, (0.1, 0.2, 0.3, 0.4)], ids=["uniform", "ramp"])
    def test_exact_total_and_within_one_of_target(self, n, sigma):
        counts = init_counts(n, np.array(sigma))
        assert counts.dtype == np.int64
        assert sum(int(c) for c in counts) == n
        weights = [Fraction(w) for w in sigma]  # the exact values of the floats
        for count, w in zip(counts.tolist(), weights):
            assert abs(count - n * w / sum(weights)) < 1

    def test_uniform_start_is_largest_remainder_in_state_order(self):
        # the run path starts here: ``n // 4`` each, the first ``n % 4`` states one more
        for n in range(1, 2000):
            q, r = divmod(n, N_STATES)
            expected = [q + (k < r) for k in range(N_STATES)]
            assert init_counts(n, uniform_fractions()).tolist() == expected

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="at least 1"):
            init_counts(0, uniform_fractions())
        with pytest.raises(TypeError):
            init_counts(10.0, uniform_fractions())
        with pytest.raises(ValueError, match="sum to 1"):
            init_counts(10, np.array([0.5, 0.5, 0.5, 0.5]))


def _dense_matrix():
    return random_column_stochastic(np.random.default_rng(2718))


def _homogeneity_pvalue(a, b, n):
    """Two-sample chi-square test that the rows of ``a`` and ``b`` (count
    vectors of ``n`` sites) share one law. Outcomes seen fewer than 10 times
    in both samples together share one bin."""
    codes = np.concatenate([a, b]) @ (n + 1) ** np.arange(N_STATES)
    _, outcome = np.unique(codes, return_inverse=True)
    table = np.stack([np.bincount(outcome[: len(a)], minlength=outcome.max() + 1),
                      np.bincount(outcome[len(a):], minlength=outcome.max() + 1)])
    rare = table.sum(axis=0) < 10
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    stat = ((table - expected) ** 2 / expected).sum()
    dof = table.shape[1] - 1
    return float(mpmath.gammainc(dof / 2, stat / 2, mpmath.inf, regularized=True))


def _one_step_samples(p_counts, p_sites, source, n=3, runs=4000):
    """One-step count vectors of ``n`` sites in state ``source``, drawn
    ``runs`` times in count space under ``p_counts`` and by the per-site
    oracle under ``p_sites`` (one lattice of ``n * runs`` independent
    sites, read in blocks of ``n``)."""
    start = np.bincount([source], minlength=N_STATES) * n
    rng = np.random.default_rng(100 + source)
    counted = np.array([count_step(start, p_counts, rng) for _ in range(runs)])
    lattice = Lattice(np.full(n * runs, source))
    sites = mc_step(lattice, step_table(p_sites), step_uniforms(200 + source, 0, n * runs))
    blocks = sites.sites.reshape(runs, n)
    per_site = np.stack([(blocks == k).sum(axis=1) for k in range(N_STATES)], axis=1)
    return counted, per_site, n


class TestCountStep:
    @pytest.mark.parametrize("matrix", ["model", "dense"])
    def test_one_step_matches_exact_moments(self, reference_matrix, matrix):
        # mean p @ c and covariance sum_l c_l (diag(p_l) - p_l p_l^T) of one step,
        # each entry within five standard errors estimated from the draws
        p = reference_matrix if matrix == "model" else _dense_matrix()
        counts, runs = np.array([150, 90, 0, 160]), 20_000
        rng = np.random.default_rng(31)
        draws = np.array([count_step(counts, p, rng) for _ in range(runs)])
        assert (draws.sum(axis=1) == counts.sum()).all()
        mean = p @ counts
        cov = sum(c * (np.diag(col) - np.outer(col, col)) for c, col in zip(counts, p.T))
        centred = draws - mean
        assert (np.abs(centred.mean(axis=0)) <= 5 * np.sqrt(np.diag(cov) / runs) + 1e-12).all()
        products = centred[:, :, None] * centred[:, None, :]
        se = products.std(axis=0) / np.sqrt(runs)
        assert (np.abs(products.mean(axis=0) - cov) <= 5 * se + 1e-12).all()

    @pytest.mark.parametrize("source", range(N_STATES))
    def test_agrees_with_per_site_oracle(self, source):
        p = _dense_matrix()
        assert _homogeneity_pvalue(*_one_step_samples(p, p, source)) > 1e-4

    @pytest.mark.parametrize("source", range(N_STATES))
    def test_perturbed_matrix_fails_against_oracle(self, source):
        # negative control: move 0.08 of the source column from its largest
        # entry to its smallest; the same test must reject
        p = _dense_matrix()
        wrong = p.copy()
        column = wrong[:, source]
        column[column.argmax()] -= 0.08
        column[column.argmin()] += 0.08
        assert _homogeneity_pvalue(*_one_step_samples(wrong, p, source)) < 1e-4

    def test_identity_matrix_keeps_counts(self):
        counts = np.array([5, 0, 7, 1])
        out = count_step(counts, np.eye(N_STATES), np.random.default_rng(0))
        assert np.array_equal(out, counts)

    def test_largest_lattice_keeps_its_total(self, reference_matrix):
        n = 2**63 - 1
        counts = init_counts(n, uniform_fractions())
        rng = np.random.default_rng(9)
        for _ in range(20):
            counts = count_step(counts, reference_matrix, rng)
            assert (counts >= 0).all() and sum(int(c) for c in counts) == n


class TestLattice:
    def test_rejects_bad_states(self):
        with pytest.raises(ValueError):
            Lattice(sites=np.array([0, 4]))
        with pytest.raises(ValueError):
            Lattice(sites=np.array([], dtype=int))
        with pytest.raises(ValueError, match="integer codes"):
            Lattice(sites=np.array([0.5, 2.7, 3.99]))  # never truncated to [0, 2, 3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from a NaN cast
            with pytest.raises(ValueError, match="integer codes"):
                Lattice(sites=np.array([0, np.nan]))

    def test_fractions_examples(self):
        assert np.array_equal(fractions(Lattice(np.zeros(8, dtype=int))), [1, 0, 0, 0])
        assert np.array_equal(fractions(Lattice(np.arange(4))), [0.25] * 4)

    def test_fraction_counts_exact_and_sum_tight(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lat = Lattice(rng.integers(0, 4, size=int(rng.integers(1, 500))))
            counts = np.bincount(lat.sites, minlength=4)
            assert counts.sum() == lat.n_sites  # the exact, integer-level identity
            assert abs(fractions(lat).sum() - 1.0) <= 4 * np.finfo(float).eps


# A column of ``p``: non-negative weights, some exactly zero so that intervals
# collapse and edges coincide, normalised to sum to one.
_columns = st.lists(
    st.one_of(st.integers(0, 3).map(float), st.floats(0, 1, allow_subnormal=False)),
    min_size=N_STATES,
    max_size=N_STATES,
).filter(lambda w: sum(w) > 0)


def _oracle_step(edges, sites, uniforms):
    """Per-site walk along the state's row of the interval table: the first
    edge strictly above the uniform picks its jump target, else the site stays."""
    out = []
    for state, u in zip(sites, uniforms):
        nxt = state
        for target, edge in zip(_JUMP_TARGETS[state], edges[state]):
            if u < edge:
                nxt = target
                break
        out.append(nxt)
    return out


class TestMcStep:
    def test_identity_matrix_freezes_lattice(self):
        lat = Lattice(np.array([0, 1, 2, 3, 2, 1]))
        out = mc_step(lat, step_table(np.eye(4)), step_uniforms(0, 0, lat.n_sites))
        assert np.array_equal(out.sites, lat.sites)

    def test_forced_transition(self):
        rates = np.zeros((4, 4))
        rates[2, 3] = 1.0
        p = transition_matrix(rates, 1.0)  # deep -> stratiform certainly
        out = mc_step(Lattice(np.full(10, 2)), step_table(p), step_uniforms(3, 0, 10))
        assert np.array_equal(out.sites, np.full(10, 3))

    def test_forbidden_jumps_never_happen(self, reference_matrix):
        allowed = reference_matrix > 0
        edges = step_table(reference_matrix)
        lat = init_lattice(500, uniform_fractions(), init_rng(4))
        for t in range(200):
            nxt = mc_step(lat, edges, step_uniforms(4, t, 500))
            assert allowed[nxt.sites, lat.sites].all()
            lat = nxt

    def test_sites_evolve_independently(self, reference_matrix):
        # full-lattice evolution must equal evolving each site alone on its
        # own per-site stream slice
        n, steps, seed = 64, 50, 7
        edges = step_table(reference_matrix)
        lat = init_lattice(n, uniform_fractions(), init_rng(seed))
        start = lat.sites.copy()
        trajectory = [lat.sites.copy()]
        for t in range(steps):
            lat = mc_step(lat, edges, step_uniforms(seed, t, n))
            trajectory.append(lat.sites.copy())
        for site in range(0, n, 7):
            state = Lattice(np.array([start[site]]))
            for t in range(steps):
                u = step_uniforms(seed, t, n)[site : site + 1]
                state = mc_step(state, edges, u)
                assert state.sites[0] == trajectory[t + 1][site]

    def test_one_step_expectation_matches_matrix(self, reference_matrix):
        # mean over many independent one-step runs vs the exact update, with
        # a five-sigma bound from the exact per-site Bernoulli variances
        n, runs = 200, 1000
        lat = init_lattice(n, uniform_fractions(), np.random.default_rng(8))
        expected = deterministic_step(reference_matrix, fractions(lat))
        edges = step_table(reference_matrix)
        totals = np.zeros(4)
        for seed in range(runs):
            stepped = mc_step(lat, edges, step_uniforms(seed, 0, n))
            totals += fractions(stepped)
        mean = totals / runs
        prob = reference_matrix[:, lat.sites]  # (4, n): P(site -> k)
        sigma = np.sqrt((prob * (1 - prob)).sum(axis=1)) / n / np.sqrt(runs)
        assert (np.abs(mean - expected) < 5 * sigma + 1e-12).all()

    def test_single_site_lattice_is_always_a_vertex(self, reference_matrix):
        edges = step_table(reference_matrix)
        lat = Lattice(np.array([0]))
        for t in range(100):
            lat = mc_step(lat, edges, step_uniforms(11, t, 1))
            f = fractions(lat)
            assert sorted(f.tolist()) == [0.0, 0.0, 0.0, 1.0]

    def test_reproducible_under_seed(self, reference_matrix):
        def run(seed):
            edges = step_table(reference_matrix)
            lat = init_lattice(100, uniform_fractions(), init_rng(seed))
            for t in range(50):
                lat = mc_step(lat, edges, step_uniforms(seed, t, 100))
            return lat.sites

        assert np.array_equal(run(123), run(123))
        assert not np.array_equal(run(123), run(124))

    def test_step_table_rejects_non_stochastic_matrix(self, reference_matrix):
        with pytest.raises(ValueError, match="columns must sum to 1"):
            step_table(0.5 * reference_matrix)
        with pytest.raises(ValueError, match="4x4"):
            step_table(np.eye(3))

    @pytest.mark.parametrize(
        "shape", [(5,), (7,), (6, 1), ()], ids=["short", "long", "column", "scalar"]
    )
    def test_mis_sized_uniforms_rejected(self, reference_matrix, shape):
        lat = Lattice(np.array([0, 1, 2, 3, 2, 1]))
        with pytest.raises(ValueError, match="one per site"):
            mc_step(lat, step_table(reference_matrix), np.full(shape, 0.5))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_columns, min_size=N_STATES, max_size=N_STATES),
        st.lists(st.integers(0, N_STATES - 1), min_size=1, max_size=40),
        st.data(),
    )
    def test_matches_per_site_oracle(self, columns, sites, data):
        weights = np.array(columns).T
        edges = step_table(weights / weights.sum(axis=0))
        # uniforms anywhere in [0, 1), exactly on one of the site's edges, or at
        # either end of the range a Philox draw can produce
        uniforms = np.array([
            data.draw(st.one_of(
                st.floats(0, 1, exclude_max=True),
                st.sampled_from([0.0, np.nextafter(1.0, 0.0), *edges[s][edges[s] < 1]]),
            ))
            for s in sites
        ])
        out = mc_step(Lattice(np.array(sites)), edges, uniforms).sites
        assert np.issubdtype(out.dtype, np.integer)
        assert ((out >= 0) & (out < N_STATES)).all()
        assert out.tolist() == _oracle_step(edges, sites, uniforms)
