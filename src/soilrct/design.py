"""Study design: enrollment, randomization, and measurement.

Enrollment is simple random sampling without replacement; treatment is a
completely randomized design (uniform partition into arms of fixed
sizes).  Both are realized by one uniformly random ordered subset of the
population, drawn by `draw_replicates`: its plots are enrolled, and
consecutive blocks of it receive consecutive arm labels.  Measurement
error with SD `sd_within_plot / sqrt(samples_per_plot)` is added
independently to the baseline and follow-up observations.  A library
study from `enroll_and_assign` is replicate 0 of the same draw that the
Monte Carlo harness makes for every replicate.

Every subset is the one `Generator.choice` draws.  Small subsets, the
paper's n = 10 and 14 among them, are not drawn by a `choice` call per
replicate, whose own argument handling costs far more than its 2n - 1
bounded draws: one `integers` call makes the bounded draws of every
replicate, and numpy replays Floyd's sampler and the shuffle on them.
`choice` draws each bound the same way, so both give the same bytes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tables
from .errors import DesignError, DimensionError, EnrollmentError, SchemaError
from .population import Population, regression_rows

#: Version of the stream of random draws behind every replicate and every
#: study.  Stream 2 draws each replicate's plots with `Generator.choice`,
#: which for populations of up to 10000 plots, and for subsets of at most
#: a fiftieth of larger ones, runs Floyd's subset sampler and then
#: shuffles the chosen plots; stream 1 took the head of a full
#: permutation of the population.  The same seed gives different
#: replicates on the two streams, so the version enters the run hash.
RNG_STREAM = 2


@dataclass(frozen=True)
class DesignSpec:
    """Completely randomized design with plot-level measurement noise.

    `samples_per_plot` may be a positive integer or `math.inf`, in which
    case observations reproduce the plot values exactly.
    """

    n_enrolled: int
    arm_sizes: tuple[int, ...]
    samples_per_plot: float = math.inf
    sd_within_plot: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "arm_sizes", tuple(int(k) for k in self.arm_sizes))
        if len(self.arm_sizes) < 2:
            raise DesignError("need at least two arms")
        if any(k < 1 for k in self.arm_sizes):
            raise DesignError(f"every arm needs >= 1 plot, got {self.arm_sizes}")
        if sum(self.arm_sizes) != self.n_enrolled:
            raise DesignError(
                f"arm sizes {self.arm_sizes} do not sum to n_enrolled "
                f"{self.n_enrolled}")
        if self.sd_within_plot < 0:
            raise DesignError("sd_within_plot must be nonnegative")
        m = self.samples_per_plot
        if not (m == math.inf or (float(m).is_integer() and m >= 1)):
            raise DesignError(
                f"samples_per_plot must be a positive integer or inf, got {m}")

    @property
    def n_arms(self) -> int:
        return len(self.arm_sizes)

    @property
    def sigma_delta(self) -> float:
        """Measurement SD per observation: sd_within_plot / sqrt(m)."""
        if self.samples_per_plot == math.inf:
            return 0.0
        return self.sd_within_plot / math.sqrt(self.samples_per_plot)


@dataclass(frozen=True)
class ObservedStudy:
    """What the analyst sees after the study: (B, Y, Z) plus provenance."""

    baseline_obs: np.ndarray
    outcome_obs: np.ndarray
    arm: np.ndarray
    source_index: np.ndarray
    covariates_obs: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        b = np.ascontiguousarray(self.baseline_obs, dtype=np.float64)
        y = np.ascontiguousarray(self.outcome_obs, dtype=np.float64)
        z = np.ascontiguousarray(self.arm, dtype=np.intp)
        s = np.ascontiguousarray(self.source_index, dtype=np.intp)
        cov = self.covariates_obs
        if cov is None:
            cov = regression_rows(b)
        cov = np.ascontiguousarray(cov, dtype=np.float64)
        n = b.shape[0]
        if not (y.shape == z.shape == s.shape == (n,)):
            raise DimensionError("study columns must all have equal length")
        if cov.shape[0] != n or not np.all(cov[:, 0] == 1.0):
            raise DimensionError(
                "covariates_obs must have one row per plot and a leading "
                "column of ones")
        if z.min() < 0:
            raise DesignError("arm labels must be nonnegative")
        if np.unique(s).size != n:
            raise DesignError("source_index entries must be distinct")
        for name, arr in (("baseline_obs", b), ("outcome_obs", y),
                          ("arm", z), ("source_index", s),
                          ("covariates_obs", cov)):
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.baseline_obs.shape[0]

    @property
    def n_arms(self) -> int:
        return int(self.arm.max()) + 1

    @property
    def diffs(self) -> np.ndarray:
        """Follow-up minus baseline, D_i = Y_i - B_i."""
        return self.outcome_obs - self.baseline_obs

    def to_csv(self, path) -> None:
        """Write `plot_id,source_index,arm,baseline_obs,outcome_obs`."""
        tables.write(path, ["plot_id", "source_index", "arm", "baseline_obs",
                            "outcome_obs"],
                     [range(self.n), self.source_index.tolist(),
                      self.arm.tolist(), self.baseline_obs.tolist(),
                      self.outcome_obs.tolist()])

    @classmethod
    def from_csv(cls, path) -> "ObservedStudy":
        _, src, arm, b, y = tables.read(path, {
            "plot_id": str, "source_index": int, "arm": int,
            "baseline_obs": float, "outcome_obs": float})
        if min(arm) < 0 or len(set(src)) < len(src):
            seen = set()
            for lineno, (index, label) in enumerate(zip(src, arm), start=2):
                if label < 0:
                    raise SchemaError(f"{path}:{lineno}: arm labels must be "
                                      f"nonnegative, got {label}")
                if index in seen:
                    raise SchemaError(
                        f"{path}:{lineno}: duplicate source_index {index}")
                seen.add(index)
        return cls(baseline_obs=np.array(b), outcome_obs=np.array(y),
                   arm=np.array(arm), source_index=np.array(src))


def arm_labels(spec: DesignSpec) -> np.ndarray:
    """Arm label vector in block order: n_0 zeros, n_1 ones, ..."""
    return np.repeat(np.arange(spec.n_arms, dtype=np.intp), spec.arm_sizes)


def draw_replicates(rng, reps: int, n: int, n_pop: int,
                    with_noise: bool = True):
    """The randomness of `reps` replicates that enroll `n` of `n_pop` plots.

    Returns `perm`, a (reps, n) int64 array whose row r lists the plots
    replicate r enrolls (a uniformly random ordered subset, so splitting
    a row into blocks is a complete randomization), and `noise`, a
    (reps, n, 2) standard-normal array for the baseline and outcome
    measurement errors.  The stream (`RNG_STREAM`) is fixed: one
    `rng.choice(n_pop, n, replace=False)` per replicate, then all the
    noise.  `choice` picks the subset in O(n) draws and shuffles it, so
    each row is uniform over ordered subsets, as a permutation's head is.

    Up to `_REPLAY_MAX_N` plots, the subsets come from `_replay_choice`
    instead, which gives the same bytes and leaves the generator in the
    same state; above it, `choice` runs once per replicate.

    The noise is the stream's last draw, so `with_noise=False` returns
    the same `perm` and None for `noise`.
    """
    if n <= _REPLAY_MAX_N:
        perm = _replay_choice(rng, reps, n, n_pop)
    else:
        perm = np.empty((reps, n), dtype=np.int64)
        for r in range(reps):
            perm[r] = rng.choice(n_pop, n, replace=False)
    noise = rng.standard_normal((reps, n, 2)) if with_noise else None
    return perm, noise


#: Largest subset `draw_replicates` replays in one `integers` call.  The
#: replay makes n - 1 passes over the replicates for the shuffle and
#: reruns Floyd's rule in Python on each row with a repeat (about
#: n^2 / 2N of the rows), so its lead over the `choice` loop shrinks as n
#: grows.  On 5000 plots with 50 and 500 replicates it took 0.40 to 0.58
#: of the loop's time at n = 32, 0.82 to 1.09 at n = 48 and 1.04 to 1.61
#: at n = 64.
_REPLAY_MAX_N = 32


def _replay_choice(rng, reps, n, n_pop):
    """`reps` rows of `rng.choice(n_pop, n, replace=False)`, bit for bit.

    For `n_pop` up to 10000, and above it for n up to `n_pop` // 50 (at
    least 200), `choice` runs Floyd's sampler: for j = n_pop - n, ...,
    n_pop - 1 it draws v in [0, j] and takes v, or j if v is taken
    already.  It then shuffles the n plots (Fisher-Yates): for
    i = n - 1, ..., 1 it draws k in [0, i] and swaps positions i and k.
    Each bounded draw is the one `integers` makes for the same bound, so
    one `integers` call over the rows' bounds consumes the generator
    exactly as the loop does.  A row whose n Floyd draws are distinct
    took each draw as it came; the rare row with a repeat reruns Floyd's
    rule.
    """
    highs = np.concatenate((np.arange(n_pop - n + 1, n_pop + 1),
                            np.arange(n, 1, -1)))
    draws = rng.integers(0, np.tile(highs, reps)).reshape(reps, 2 * n - 1)
    perm = draws[:, :n].copy()
    ordered = np.sort(perm, axis=1)
    for r in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)):
        taken = set()
        for k, v in enumerate(draws[r, :n].tolist()):
            v = n_pop - n + k if v in taken else v
            taken.add(v)
            perm[r, k] = v
    rows = np.arange(reps)
    for i, k in zip(range(n - 1, 0, -1), draws[:, n:].T):
        at_k = perm[rows, k]
        perm[rows, k] = perm[:, i]
        perm[:, i] = at_k
    return perm


def enroll_and_assign(pop: Population, spec: DesignSpec, seed) -> ObservedStudy:
    """Enroll by SRS, assign by complete randomization, add measurement noise.

    The study is replicate 0 of `draw_replicates`, measured.  `seed` may
    be anything `numpy.random.default_rng` accepts, or an existing
    Generator.
    """
    if spec.n_enrolled > pop.n_plots:
        raise EnrollmentError(
            f"cannot enroll {spec.n_enrolled} plots from a population of "
            f"{pop.n_plots}")
    if spec.n_arms != pop.n_arms:
        raise DesignError(
            f"design has {spec.n_arms} arms but population has {pop.n_arms}")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    sd = spec.sigma_delta
    perm, noise = draw_replicates(rng, 1, spec.n_enrolled, pop.n_plots,
                                  with_noise=sd != 0.0)
    source = perm[0]
    z = arm_labels(spec)
    baseline_obs = pop.baseline[source]
    outcome_obs = pop.po[source, z]
    if noise is not None:
        baseline_obs = baseline_obs + sd * noise[0, :, 0]
        outcome_obs = outcome_obs + sd * noise[0, :, 1]
    return ObservedStudy(baseline_obs=baseline_obs, outcome_obs=outcome_obs,
                         arm=z, source_index=source)
