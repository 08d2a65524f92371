#!/usr/bin/env python3
"""Integrate the cloud fractions to t_end with all three engines.

Writes one time-series CSV per engine and prints the final fractions next
to the closed-form equilibrium. Every option defaults to the matching
``ExperimentConfig`` field; the default lattice size and shot count are
sizes at which both stochastic engines fluctuate visibly around the
deterministic curve.
"""

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from smcm.core import EnvParams, stationary_fractions, transition_rates
from smcm.experiments import MODES, ExperimentConfig, run_simulation, write_timeseries


def main() -> None:
    defaults = ExperimentConfig
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--sites", type=int, default=defaults.n_sites)
    parser.add_argument("--shots", type=int, default=defaults.n_shots)
    parser.add_argument("--t-end", type=float, default=defaults.t_end)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    # no fluctuation statistics here, so no spin-up window to respect
    base = ExperimentConfig(
        t_end=args.t_end, n_sites=args.sites, n_shots=args.shots, seed=args.seed, spinup=0.0
    )
    equilibrium = stationary_fractions(
        transition_rates(EnvParams(base.cape, base.dryness), base.taus)
    )
    print(f"{'engine':<14} {'sigma_cs':>9} {'sigma_c':>9} {'sigma_d':>9} {'sigma_s':>9}")
    print(f"{'equilibrium':<14} " + " ".join(f"{v:9.4f}" for v in equilibrium))
    finals = {}
    for mode in MODES:
        series = run_simulation(dataclasses.replace(base, mode=mode))
        path = outdir / f"timeseries_{mode}.csv"
        write_timeseries(series, path)
        finals[mode] = series.sigmas[-1]
        print(f"{mode:<14} " + " ".join(f"{v:9.4f}" for v in finals[mode]) + f"   -> {path}")
    drift = np.abs(finals["deterministic"] - equilibrium).max()
    print(f"deterministic end-state vs equilibrium: max |diff| = {drift:.2e}")


if __name__ == "__main__":
    main()
