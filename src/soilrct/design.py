"""Study design: enrollment, randomization, and measurement.

Enrollment is simple random sampling without replacement; treatment is a
completely randomized design (uniform partition into arms of fixed
sizes).  Both are realized by one uniformly random ordered subset of the
population, drawn by `draw_replicates`: its plots are enrolled, and
consecutive blocks of it receive consecutive arm labels.  Measurement
error with SD `sd_within_plot / sqrt(samples_per_plot)` is added
independently to the baseline and follow-up observations.  A library
study from `enroll_and_assign` is replicate 0 of the same draw that the
Monte Carlo harness makes for every replicate: each cell of the
harness's grid is a `DesignSpec`, and on the scenario's stream its
study is the harness's first replicate, measured alike.

Every subset is the one `Generator.choice` draws.  Small subsets, the
paper's n = 10 and 14 among them, are not drawn by a `choice` call per
replicate, whose own argument handling costs far more than its 2n - 1
bounded draws: one `integers` call makes the bounded draws of every
replicate, and numpy replays Floyd's sampler and the shuffle on them.
`choice` draws each bound the same way, so both give the same bytes.

Each rule has one owner.  `DesignSpec` checks a design.  `ObservedStudy`
checks a study's rows: every `arm` and `source_index` cell an integer
within intp's range, then every arm nonnegative and every source
distinct.  It refuses the first fault by row, a cell fault before the
others and `source_index` before `arm` on one row, with a `DesignError`
whose `row` is that row's position, and a study with no plots with one
whose `row` is None; `from_csv` only adds the file and line to it, by
`tables.refusal`.  `tables.read` checks a CSV's header, widths and cells.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tables
from .errors import DesignError, DimensionError, EnrollmentError
from .population import Population, check_field_types, regression_rows

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
    case observations reproduce the plot values exactly.  A field of the
    wrong type raises ParamError, as in every parameter type; an int for
    a float field is held as that float.
    """

    n_enrolled: int
    arm_sizes: tuple[int, ...]
    samples_per_plot: float = math.inf
    sd_within_plot: float = 0.0

    def __post_init__(self):
        check_field_types(self)
        if len(self.arm_sizes) < 2:
            raise DesignError("need at least two arms")
        if any(k < 1 for k in self.arm_sizes):
            raise DesignError(f"every arm needs >= 1 plot, got {self.arm_sizes}")
        if sum(self.arm_sizes) != self.n_enrolled:
            raise DesignError(
                f"arm sizes {self.arm_sizes} do not sum to n_enrolled "
                f"{self.n_enrolled}")
        if not 0.0 <= self.sd_within_plot < math.inf:
            raise DesignError(f"sd_within_plot must be finite and "
                              f"nonnegative, got {self.sd_within_plot}")
        m = self.samples_per_plot
        if not (m == math.inf or (m.is_integer() and m >= 1)):
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


_INTP = np.iinfo(np.intp)


def _label_fault(value):
    """Why `value` cannot be an `arm` or `source_index` label, or None."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # inf and nan
        whole = None
    if whole is None or not _INTP.min <= whole <= _INTP.max:
        return f"{value} does not fit a {_INTP.bits}-bit signed integer"
    return None if whole == value else f"{value} is not an integer"


def _label_column(name, values, array):
    """The labels `values`, held by numpy as the 1-d `array`, as an intp
    array and None, or None and the row and message of the first cell
    that `_label_fault` refuses.  An integer array that intp holds is
    checked by numpy alone; any other column cell by cell, as given, so
    that a value past 2**53 is not rounded before it is named."""
    if array.dtype.kind in "biu" and np.can_cast(array.dtype, np.intp):
        return np.ascontiguousarray(array, dtype=np.intp), None
    cells = list(values)
    row = next((i for i, v in enumerate(cells) if _label_fault(v)), None)
    if row is None:
        return np.array(cells, dtype=np.intp), None
    return None, (row, f"column {name}: {_label_fault(cells[row])}")


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
        z, s = np.asarray(self.arm), np.asarray(self.source_index)
        cov = self.covariates_obs
        if cov is None:
            cov = regression_rows(b)
        cov = np.ascontiguousarray(cov, dtype=np.float64)
        if b.ndim != 1 or not y.shape == z.shape == s.shape == b.shape:
            raise DimensionError("study columns must be equal-length vectors")
        n = b.shape[0]
        if n == 0:
            raise DesignError("a study needs at least 1 plot")
        if cov.ndim != 2 or not np.array_equal(cov[:, :1], np.ones((n, 1))):
            raise DimensionError(
                "covariates_obs must have one row per plot and a leading "
                "column of ones")
        s, s_fault = _label_column("source_index", self.source_index, s)
        z, z_fault = _label_column("arm", self.arm, z)
        if s_fault or z_fault:  # on a tie in row, min keeps source_index
            row, message = min(filter(None, (s_fault, z_fault)),
                               key=lambda fault: fault[0])
            raise DesignError(message, row=row)
        sources = s.tolist()
        repeat = tables.first_repeat(sources)
        if z.min() < 0:
            row = int(np.argmax(z < 0))
            if repeat is None or row <= repeat:  # the first fault by row
                raise DesignError(
                    f"arm labels must be nonnegative, got {z[row]}", row=row)
        if repeat is not None:
            raise DesignError(f"duplicate source_index {sources[repeat]}",
                              row=repeat)
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
        try:
            return cls(baseline_obs=b, outcome_obs=y, arm=arm,
                       source_index=src)
        except DesignError as exc:
            raise tables.refusal(path, exc) from exc


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
    be anything `numpy.random.default_rng` accepts, a Generator among them.
    """
    if spec.n_enrolled > pop.n_plots:
        raise EnrollmentError(
            f"cannot enroll {spec.n_enrolled} plots from a population of "
            f"{pop.n_plots}")
    if spec.n_arms != pop.n_arms:
        raise DesignError(
            f"design has {spec.n_arms} arms but population has {pop.n_arms}")
    sd = spec.sigma_delta
    perm, noise = draw_replicates(np.random.default_rng(seed), 1,
                                  spec.n_enrolled, pop.n_plots,
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
