"""Induction groups: the finite ambiguity set of arrival distributions.

A group set is an ordered family of per-destination package-arrival
distributions, held as one read-only (m, N) probability matrix from
which `GroupSet.sample` draws induction count vectors. The robust
objective is the worst of these m groups (by Lemma 1 the worst case over
their mixtures lies at a vertex), so every run samples, trains and
evaluates on the groups themselves. Two parameterizations are supported:
a discretized truncated normal over destination indices, and an explicit
multinomial probability vector. All probability vectors are valid
simplex vectors (entrywise nonnegative, summing to 1 within 1e-12).

Group indices are 1-based in files and logs, 0-based in code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .warehouse import EnvConfig

SIMPLEX_TOL = 1e-12


def _normal_mass(lo: float, hi: float) -> float:
    """Standard-normal mass on [lo, hi], from the stdlib's erf and erfc.

    A bin entirely at z > 0 is the difference of survival values
    1 - Phi(z) = erfc(z/sqrt2)/2, so its mass stays positive where Phi
    rounds to 1; a bin entirely at z < 0 is its mirror image. Only a bin
    that straddles 0 differences Phi(z) = (1 + erf(z/sqrt2))/2.
    """
    root2 = math.sqrt(2.0)
    if lo > 0:
        return 0.5 * math.erfc(lo / root2) - 0.5 * math.erfc(hi / root2)
    if hi < 0:
        return _normal_mass(-hi, -lo)
    return 0.5 * (1.0 + math.erf(hi / root2)) - 0.5 * (1.0 + math.erf(lo / root2))


def _check_simplex(probs: np.ndarray, tol: float = SIMPLEX_TOL) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probability vector must be a nonempty 1-D array")
    if not np.isfinite(probs).all():
        raise ValueError("probability vector has non-finite entries")
    if np.any(probs < 0.0):
        raise ValueError("probability vector has negative entries")
    if abs(float(probs.sum()) - 1.0) > tol:
        raise ValueError("probability vector does not sum to 1")
    return probs


@dataclass(frozen=True)
class TruncatedNormalSpec:
    """Normal(mu, sigma) over destination indices, truncated to [0, N].

    Destination i (1-based) receives the normal mass on [i-1, i],
    renormalized by the mass on [0, N].
    """

    mu: float
    sigma: float
    n_destinations: int
    volume: int

    def __post_init__(self):
        for name in ("mu", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.n_destinations < 1:
            raise ValueError("n_destinations must be positive")
        if self.volume < 0:
            raise ValueError("volume must be nonnegative")

    @property
    def size(self) -> int:
        return self.n_destinations

    def probs(self) -> np.ndarray:
        return truncated_normal_probs(self)


@dataclass(frozen=True)
class MultinomialSpec:
    """Explicit multinomial over k destinations with fixed total volume V."""

    probs_vector: tuple[float, ...]
    volume: int

    def __post_init__(self):
        _check_simplex(np.asarray(self.probs_vector))
        if self.volume < 0:
            raise ValueError("volume must be nonnegative")

    @property
    def size(self) -> int:
        return len(self.probs_vector)

    def probs(self) -> np.ndarray:
        return np.asarray(self.probs_vector, dtype=float)


GroupSpec = TruncatedNormalSpec | MultinomialSpec


def truncated_normal_probs(spec: TruncatedNormalSpec) -> np.ndarray:
    """Per-destination probabilities of the discretized truncated normal.

    Entry i (1-based) equals
    (Phi((i-mu)/sigma) - Phi((i-1-mu)/sigma)) / (Phi((N-mu)/sigma) - Phi((-mu)/sigma)).
    Each mass is taken from the tail it lies in (see `_normal_mass`), so
    every entry is positive, however far the bin is from mu.
    """
    edges = (np.arange(spec.n_destinations + 1) - spec.mu) / spec.sigma
    denominator = _normal_mass(edges[0], edges[-1])
    if abs(denominator) < 1e-300:
        raise ValueError("distribution mass entirely outside [0,N]")
    masses = np.array([_normal_mass(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])
    return masses / denominator


@dataclass(frozen=True)
class GroupSet:
    """Ordered family of induction distributions indexing the ambiguity set."""

    kind: str
    groups: tuple[GroupSpec, ...]

    def __post_init__(self):
        if not self.groups:
            raise ValueError("group set must contain at least one group")
        sizes = {g.size for g in self.groups}
        volumes = {g.volume for g in self.groups}
        if len(sizes) != 1:
            raise ValueError("all groups must share the same number of destinations")
        if len(volumes) != 1:
            raise ValueError("all groups must share the same volume")
        probs = np.stack([g.probs() for g in self.groups])
        probs.setflags(write=False)
        object.__setattr__(self, "_probs", probs)

    @property
    def size(self) -> int:
        """Number of groups m."""
        return len(self.groups)

    @property
    def n_destinations(self) -> int:
        return self.groups[0].size

    @property
    def volume(self) -> int:
        return self.groups[0].volume

    def probs(self, group_index: int) -> np.ndarray:
        """Probability vector of group `group_index` (0-based); read-only view."""
        return self._probs[group_index]

    def sample(
        self, group_index: int | np.ndarray, rng: np.random.Generator, size: int | None = None
    ) -> np.ndarray:
        """One induction count vector of group `group_index` (0-based).

        For an array of group indices, one row per index, drawn in order:
        the draws, and what they consume of `rng`, equal one call per index.
        `size=T` with one group index draws T rows of that group; they, and
        the state `rng` is left in, equal `sample(np.full(T, g), rng)`, and
        numpy checks the probability vector once instead of T times.
        """
        return rng.multinomial(self.volume, self._probs[group_index], size=size)

    def check_fits(self, env_config: EnvConfig) -> None:
        """ValueError unless `env_config` steps this set's N destinations and volume."""
        if (self.n_destinations, self.volume) != (
            env_config.n_destinations, env_config.step_volume
        ):
            raise ValueError(
                f"group set has N={self.n_destinations} and volume {self.volume}, "
                f"env has N={env_config.n_destinations} and volume {env_config.step_volume}"
            )


APPENDIX_B_MEANS = (-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0)


def build_group_set(kind: str) -> GroupSet:
    """The named group set.

    kind="appendix-b": the 9-group family of discretized truncated
    normals with means -4..4, sigma=2, N=20 destinations, V=1200
    packages per step.
    """
    if kind != "appendix-b":
        raise ValueError(f"unknown group set kind: {kind!r}")
    groups = tuple(
        TruncatedNormalSpec(mu=mu, sigma=2.0, n_destinations=20, volume=1200)
        for mu in APPENDIX_B_MEANS
    )
    return GroupSet(kind=kind, groups=groups)
