"""Monte Carlo for independent-site cloud transitions.

Sites are independent and a run records only the per-state fractions, so
the four state counts are themselves an exact Markov chain: the
``counts[l]`` sites in state ``l`` spread over the states as one draw of
``Multinomial(counts[l], p[:, l])``, and the next counts are the sum of the
four draws. A run steps the counts (:func:`count_step`) with one
multinomial per step from ``core.step_generator(seed, t)``, so a step costs
the same at any lattice size up to ``2**63 - 1`` sites and no site array is
ever built. The start is the largest-remainder apportionment of the initial
fractions (:func:`init_counts`), computed exactly. This is multinomial
leaping with no leap error, since ``dt`` is the model's own step.

The per-site engine that the count chain is tested against lives in
``tests/oracles.py``. If a model couples neighbouring sites, the count law
no longer holds and that engine returns here as the run path.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import Generator

from .core import N_STATES, validate_simplex

__all__ = ["count_step", "init_counts"]


def init_counts(n_sites: int, sigma0: np.ndarray) -> np.ndarray:
    """State counts of ``n_sites`` sites matching ``sigma0`` as closely as
    integers allow.

    Counts are apportioned by largest remainder (ties broken by state
    order) in exact integer arithmetic, against ``sigma0`` normalised by
    its exact sum. So at any size below ``2**63`` the counts sum to
    ``n_sites`` and each lies within 1 of its target: the start carries no
    sampling noise beyond unavoidable rounding.
    """
    n_sites = operator.index(n_sites)
    if n_sites < 1:
        raise ValueError(f"n_sites must be at least 1, got {n_sites}")
    ratios = [w.as_integer_ratio() for w in validate_simplex(sigma0).tolist()]
    # float denominators are powers of two, so the largest is a common one
    common = max(den for _, den in ratios)
    weights = [num * (common // den) for num, den in ratios]
    total = sum(weights)
    # state k's target is n_sites * weights[k] / total: its floor and remainder
    floors, remainders = zip(*(divmod(n_sites * w, total) for w in weights))
    counts = list(floors)
    by_remainder = sorted(range(N_STATES), key=lambda k: -remainders[k])
    for k in by_remainder[: n_sites - sum(counts)]:
        counts[k] += 1
    return np.array(counts, dtype=np.int64)


def count_step(counts: np.ndarray, p: np.ndarray, rng: Generator) -> np.ndarray:
    """Advance the state counts one step: the ``counts[l]`` sites in state
    ``l`` spread over the states as ``Multinomial(counts[l], p[:, l])``.

    ``p`` must already be validated as column-stochastic (a run checks it
    once with ``core.validate_stochastic``); the next counts keep the
    total.
    """
    return rng.multinomial(counts, p.T).sum(axis=0)

