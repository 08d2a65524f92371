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
leaping with no leap error, since ``dt`` is the model's own step. If a
model couples neighbouring sites, the count law no longer holds and the
per-site engine below is needed again.

The per-site engine runs in tests only, as the oracle for the count chain,
as the gate-level circuit does for the compiled quantum step. Each site
draws one uniform per step and walks the cumulative transition
probabilities of its current state: the unit interval is partitioned
into the jump probabilities (target states in ascending order) followed
by the stay remainder, and the draw picks the interval. The uniform of
site ``i`` at step ``t`` is position ``i`` of a Philox stream keyed by the
seed with ``t`` in the top counter word (:func:`step_uniforms`), so it
depends only on ``(seed, t, i)``. :func:`step_table` validates the matrix
and builds the interval table once; :func:`mc_step` then advances every
site through one flat integer code per site, ``state * N_STATES +
interval``: one comparison per column of the interval table adds the
interval to the code, and a 16-entry table maps each code to the next
state. Every entry of that table is a valid state, so a stepped lattice is
in range by construction and is not re-validated; validation happens where
sites come from outside (:class:`Lattice`, :func:`init_lattice`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .core import N_STATES, step_generator, validate_simplex, validate_stochastic

__all__ = [
    "Lattice",
    "count_step",
    "fractions",
    "init_counts",
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


def init_lattice(n_sites: int, sigma0: np.ndarray, rng: Generator) -> Lattice:
    """Sites whose state counts are :func:`init_counts`, in shuffled order."""
    sites = np.repeat(np.arange(N_STATES), init_counts(n_sites, sigma0))
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
