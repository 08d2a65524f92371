"""Lattice Monte Carlo for independent-site cloud transitions.

Each site draws one uniform per step and walks the cumulative transition
probabilities of its current state: the unit interval is partitioned
into the jump probabilities (target states in ascending order) followed
by the stay remainder, and the draw picks the interval. This consumes a
single uniform per site per step and realises exactly the one-step
transition law.

Randomness is counter-based: the uniform consumed by site ``i`` at step
``t`` is position ``i`` of a Philox stream keyed by the run seed with the
step index in the top counter word. A site's stream therefore depends
only on ``(seed, t, i)`` - independent of lattice size, update order, and
how many other sites are evolved - which makes runs reproducible and
sites splittable for testing or parallel evaluation.

The matrix is constant over a run, so a run validates it and builds the
interval table once (:func:`step_table`); step ``t`` is then
``mc_step(lattice, edges, step_uniforms(seed, t, n_sites))``.

The advance works on one flat integer code per site,
``state * N_STATES + interval``: one comparison per column of the
interval table adds the interval to the code, and a 16-entry table maps
each code to the next state. Every entry of that table is a valid state,
so a stepped lattice is in range by construction and is not re-validated;
validation happens where sites come from outside (:class:`Lattice`,
:func:`init_lattice`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .core import N_STATES, step_generator, validate_simplex, validate_stochastic

__all__ = [
    "Lattice",
    "fractions",
    "init_lattice",
    "init_rng",
    "mc_step",
    "step_table",
    "step_uniforms",
]

#: Counter block reserved for initialisation, far above any step index.
_INIT_BLOCK = 1 << 62

#: Row ``l``: the states a site in state ``l`` can jump to, ascending.
_JUMP_TARGETS = np.array(
    [[k for k in range(N_STATES) if k != l] for l in range(N_STATES)], dtype=np.int64
)

#: Entry ``l * N_STATES + j``: the next state of a site in state ``l`` whose
#: uniform fell in interval ``j`` - the jump targets of ``l``, then ``l`` (the stay).
_NEXT = np.column_stack([_JUMP_TARGETS, np.arange(N_STATES)]).ravel()


def step_uniforms(seed: int, step: int, n_sites: int) -> np.ndarray:
    """Per-site uniforms for one step; element ``i`` is site ``i``'s draw."""
    return step_generator(seed, step).random(n_sites)


def init_rng(seed: int) -> Generator:
    """Generator for initial-condition shuffling, on a counter block
    disjoint from every step."""
    return step_generator(seed, _INIT_BLOCK)


@dataclass(frozen=True, eq=False)
class Lattice:
    """Site states, each an integer cloud-state code."""

    sites: np.ndarray

    def __post_init__(self):
        sites = np.asarray(self.sites)
        if not np.issubdtype(sites.dtype, np.integer):
            raise ValueError(f"site states must be integer codes, got dtype {sites.dtype}")
        if sites.ndim != 1 or sites.size < 1:
            raise ValueError("lattice needs at least one site")
        if sites.min() < 0 or sites.max() >= N_STATES:
            raise ValueError(f"site states must lie in 0..{N_STATES - 1}")
        object.__setattr__(self, "sites", sites.astype(np.int64, copy=False))

    @classmethod
    def _trusted(cls, sites: np.ndarray) -> Lattice:
        """Wrap int64 site codes already known to lie in range, unchecked."""
        lattice = object.__new__(cls)
        object.__setattr__(lattice, "sites", sites)
        return lattice

    @property
    def n_sites(self) -> int:
        return self.sites.size


def init_lattice(n_sites: int, sigma0: np.ndarray, rng: Generator) -> Lattice:
    """Populate sites to match target fractions as closely as integers allow.

    Counts are apportioned by largest remainder (ties broken by state
    order) and then shuffled, so the initial empirical fractions carry no
    sampling noise beyond unavoidable rounding.
    """
    if n_sites < 1:
        raise ValueError(f"n_sites must be at least 1, got {n_sites}")
    sigma0 = validate_simplex(sigma0)
    target = n_sites * sigma0
    counts = np.floor(target).astype(np.int64)
    shortfall = n_sites - counts.sum()
    by_remainder = np.argsort(-(target - counts), kind="stable")
    counts[by_remainder[:shortfall]] += 1
    sites = np.repeat(np.arange(N_STATES), counts)
    return Lattice(sites=rng.permutation(sites))


def step_table(p: np.ndarray) -> np.ndarray:
    """Validate ``p`` and return its ``(4, 3)`` interval table for :func:`mc_step`.

    ``edges[l, j]`` is the cumulative probability of the first ``j + 1``
    jump targets of state ``l``; the rest of the unit interval is the stay.
    """
    p = validate_stochastic(p)
    return np.cumsum(p[_JUMP_TARGETS, np.arange(N_STATES)[:, None]], axis=1)


def mc_step(lattice: Lattice, edges: np.ndarray, uniforms: np.ndarray) -> Lattice:
    """Advance every site one step: site ``i`` picks the interval of its
    state's row of ``edges`` (:func:`step_table`) that holds ``uniforms[i]``.

    The interval is the number of the row's edges at or below the uniform
    (a draw on an edge moves to the next interval), accumulated column by
    column into the flat code ``state * N_STATES + interval``; the code
    indexes the next state in ``_NEXT``.
    """
    if uniforms.shape != (lattice.n_sites,):
        raise ValueError(
            f"expected {lattice.n_sites} uniforms, one per site, got shape {uniforms.shape}"
        )
    sites = lattice.sites
    code = sites * N_STATES
    for column in edges.T:
        code += uniforms >= column.take(sites)
    return Lattice._trusted(_NEXT.take(code))


def fractions(lattice: Lattice) -> np.ndarray:
    """Empirical per-state fractions.

    The underlying counts are exact integers summing to the site total;
    the float divisions leave the sum within an ulp of one.
    """
    return np.bincount(lattice.sites, minlength=N_STATES) / lattice.n_sites
