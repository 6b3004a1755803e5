import math

import numpy as np
import pytest

from soilrct import design
from soilrct.design import (DesignSpec, ObservedStudy, arm_labels,
                            draw_replicates, enroll_and_assign)
from soilrct.errors import (DesignError, DimensionError, EnrollmentError,
                            ParamError, SchemaError)
from soilrct.population import (Population, PopulationParams,
                                generate_population)


@pytest.fixture
def pop():
    params = PopulationParams(mu_b=2.34, sd_b_across=0.47,
                              mean_control_change=0.16,
                              sd_control_change=0.37, tau=0.1, beta_mod=-0.2,
                              sd_eps1=0.0, n_plots=300)
    return generate_population(params, 42)


def test_a_design_error_is_a_param_error():
    # so a grid refuses its cells' designs with ParamError, untranslated
    assert issubclass(DesignError, ParamError)


def test_spec_validation():
    with pytest.raises(DesignError):
        DesignSpec(n_enrolled=10, arm_sizes=(10,))
    with pytest.raises(DesignError):
        DesignSpec(n_enrolled=10, arm_sizes=(4, 4))
    with pytest.raises(DesignError):
        DesignSpec(n_enrolled=10, arm_sizes=(10, 0))
    for sd in (-1.0, math.nan, math.inf):
        with pytest.raises(DesignError, match="finite and nonnegative"):
            DesignSpec(n_enrolled=10, arm_sizes=(5, 5), samples_per_plot=5,
                       sd_within_plot=sd)
    with pytest.raises(DesignError):
        DesignSpec(n_enrolled=10, arm_sizes=(5, 5), samples_per_plot=0)
    with pytest.raises(DesignError):
        DesignSpec(n_enrolled=10, arm_sizes=(5, 5), samples_per_plot=2.5)


def test_sigma_delta_scaling():
    spec = DesignSpec(n_enrolled=10, arm_sizes=(5, 5), samples_per_plot=4,
                      sd_within_plot=1.02)
    assert spec.sigma_delta == pytest.approx(0.51)
    # an int for a float field is held as the float, so sigma keeps its bits
    assert type(spec.samples_per_plot) is float
    assert spec.sigma_delta == 1.02 / math.sqrt(4.0)
    exact = DesignSpec(n_enrolled=10, arm_sizes=(5, 5))
    assert exact.sigma_delta == 0.0


def test_arm_labels_block_structure():
    spec = DesignSpec(n_enrolled=7, arm_sizes=(3, 2, 2))
    assert list(arm_labels(spec)) == [0, 0, 0, 1, 1, 2, 2]


def test_enroll_without_noise_reproduces_plot_values(pop):
    spec = DesignSpec(n_enrolled=40, arm_sizes=(20, 20))
    study = enroll_and_assign(pop, spec, 3)
    assert np.array_equal(study.baseline_obs,
                          pop.baseline[study.source_index])
    assert np.array_equal(study.outcome_obs,
                          pop.po[study.source_index, study.arm])
    # SRS without replacement: all sources distinct
    assert np.unique(study.source_index).size == 40


@pytest.mark.parametrize("arm_sizes, m", [
    ((20, 20), 5), ((20, 20), math.inf), ((14, 13, 13), 30)],
    ids=["m=5", "m=inf", "3-arm"])
def test_study_is_replicate_0_of_the_stream(pop, arm_sizes, m):
    if len(arm_sizes) == 3:
        # a third arm worth 0.1 more than arm 1
        pop = Population(baseline=pop.baseline,
                         po=np.column_stack([pop.po, pop.po[:, 1] + 0.1]))
    spec = DesignSpec(n_enrolled=sum(arm_sizes), arm_sizes=arm_sizes,
                      samples_per_plot=m, sd_within_plot=1.02)
    study = enroll_and_assign(pop, spec, 21)
    # drawn with the noise even at m = inf: the noise is the stream's last
    # draw, and times sd = 0 it adds nothing
    perm, noise = draw_replicates(np.random.default_rng(21), 1,
                                  spec.n_enrolled, pop.n_plots)
    source, sd, z = perm[0], spec.sigma_delta, arm_labels(spec)
    assert study.source_index.tolist() == source.tolist()
    assert study.arm.tolist() == z.tolist()
    assert study.baseline_obs.tobytes() == (
        pop.baseline[source] + sd * noise[0, :, 0]).tobytes()
    assert study.outcome_obs.tobytes() == (
        pop.po[source, z] + sd * noise[0, :, 1]).tobytes()


def test_small_subsets_are_the_choice_loop_bit_for_bit():
    # below the cutoff `draw_replicates` replays `choice`'s bounded draws
    # from one `integers` call; a numpy whose `choice` draws differently
    # fails here, and the replay is a uniform ordered subset either way
    cutoff = design._REPLAY_MAX_N
    case_rng = np.random.default_rng(2024)
    repeats = 0
    for n in range(2, cutoff + 2):
        for n_pop in (n, n + 1, 40, 5000, 10000, 10001, 2**31, 2**40):
            reps = int(case_rng.integers(1, 61))
            seed = int(case_rng.integers(2**32))
            with_noise = bool(case_rng.integers(2))
            got_rng = np.random.default_rng(seed)
            perm, noise = draw_replicates(got_rng, reps, n, n_pop,
                                          with_noise=with_noise)
            rng = np.random.default_rng(seed)
            expect = np.array([rng.choice(n_pop, n, replace=False)
                               for _ in range(reps)])
            assert perm.tobytes() == expect.tobytes()
            if with_noise:
                assert noise.tobytes() == rng.standard_normal(
                    (reps, n, 2)).tobytes()
            else:
                assert noise is None
            # the stream after the call is unchanged
            assert got_rng.integers(2**62) == rng.integers(2**62)
            # Floyd's draws are the first n of each row's 2n - 1 bounded
            # draws; a row with a repeat among them substitutes a plot
            highs = np.concatenate((np.arange(n_pop - n + 1, n_pop + 1),
                                    np.arange(n, 1, -1)))
            floyd = np.random.default_rng(seed).integers(
                0, np.tile(highs, (reps, 1)))[:, :n]
            if n <= cutoff:
                repeats += sum(len(set(row)) < n for row in floyd.tolist())
    assert repeats > 100


def test_enroll_is_deterministic_given_seed(pop):
    spec = DesignSpec(n_enrolled=40, arm_sizes=(20, 20), samples_per_plot=5,
                      sd_within_plot=1.02)
    a = enroll_and_assign(pop, spec, 9)
    b = enroll_and_assign(pop, spec, 9)
    assert np.array_equal(a.baseline_obs, b.baseline_obs)
    assert np.array_equal(a.outcome_obs, b.outcome_obs)
    assert np.array_equal(a.source_index, b.source_index)


def test_measurement_noise_has_requested_scale(pop):
    spec = DesignSpec(n_enrolled=200, arm_sizes=(100, 100),
                      samples_per_plot=5, sd_within_plot=1.02)
    rng = np.random.default_rng(0)
    gaps = []
    for _ in range(200):
        study = enroll_and_assign(pop, spec, rng)
        gaps.extend(study.baseline_obs - pop.baseline[study.source_index])
    gaps = np.array(gaps)
    assert gaps.mean() == pytest.approx(0.0, abs=0.01)
    assert gaps.std() == pytest.approx(1.02 / math.sqrt(5), rel=0.02)


def test_enrollment_and_assignment_are_uniform(pop):
    # every plot equally likely to be enrolled; every enrolled plot equally
    # likely to be treated
    spec = DesignSpec(n_enrolled=30, arm_sizes=(15, 15))
    counts = np.zeros(pop.n_plots)
    treated = np.zeros(pop.n_plots)
    rng = np.random.default_rng(123)
    reps = 4000
    for _ in range(reps):
        study = enroll_and_assign(pop, spec, rng)
        counts[study.source_index] += 1
        treated[study.source_index[study.arm == 1]] += 1
    enroll_rate = counts / reps
    assert enroll_rate.mean() == pytest.approx(30 / pop.n_plots, abs=1e-9)
    assert np.all(np.abs(enroll_rate - 0.1) < 0.04)
    with np.errstate(invalid="ignore"):
        cond = treated / counts
    assert np.nanmean(cond) == pytest.approx(0.5, abs=0.02)


def test_enrollment_larger_than_population_rejected(pop):
    spec = DesignSpec(n_enrolled=1000, arm_sizes=(500, 500))
    with pytest.raises(EnrollmentError):
        enroll_and_assign(pop, spec, 0)


def test_arm_count_mismatch_rejected(pop):
    spec = DesignSpec(n_enrolled=9, arm_sizes=(3, 3, 3))
    with pytest.raises(DesignError):
        enroll_and_assign(pop, spec, 0)


def test_study_validation():
    for source in ([0, 0, 1, 2], [3, 1, 2, 1]):
        with pytest.raises(DesignError, match="duplicate source_index"):
            ObservedStudy(baseline_obs=np.ones(4), outcome_obs=np.ones(4),
                          arm=np.array([0, 0, 1, 1]),
                          source_index=np.array(source))
    with pytest.raises(DesignError):
        ObservedStudy(baseline_obs=np.ones(2), outcome_obs=np.ones(2),
                      arm=np.array([-1, 0]), source_index=np.array([0, 1]))
    # a study with no plots names no row, so a CSV names the file alone
    with pytest.raises(DesignError, match="^a study needs at least 1 "
                                          "plot$") as info:
        ObservedStudy(baseline_obs=np.ones(0), outcome_obs=np.ones(0),
                      arm=np.zeros(0, dtype=int),
                      source_index=np.zeros(0, dtype=int))
    assert info.value.row is None
    # columns that are not vectors of one length, and covariates that are
    # not a matrix of one row per plot with a column, are refused before
    # any column is indexed
    for rest in (np.arange(6), np.zeros((6, 2), dtype=int)):
        with pytest.raises(DimensionError, match="^study columns must be "
                                                 "equal-length vectors$"):
            ObservedStudy(baseline_obs=np.ones((6, 2)), outcome_obs=rest,
                          arm=rest, source_index=rest)
    for cov in (np.ones(2), np.ones((2, 0)), np.ones((3, 2))):
        with pytest.raises(DimensionError, match="^covariates_obs must have "
                                                 "one row per plot"):
            ObservedStudy(baseline_obs=np.ones(2), outcome_obs=np.ones(2),
                          arm=[0, 1], source_index=[0, 1],
                          covariates_obs=cov)


@pytest.mark.parametrize("source", [
    np.array([0, 1, 2, 2**63], dtype=np.uint64), [0, 1, 2, 2**63],
    [0, 1, 2, 2**64], [0.0, 1.0, 2.0, 2.0**63], [0.0, 1.0, 2.0, math.nan]],
    ids=["uint64", "list", "list-object", "float", "nan"])
def test_study_refuses_labels_past_intp(source):
    # a cast to intp would wrap 2**63 to -2**63, or raise OverflowError
    with pytest.raises(DesignError, match="column source_index: .* does not "
                                          "fit a 64-bit signed integer"):
        ObservedStudy(baseline_obs=np.ones(4), outcome_obs=np.ones(4),
                      arm=np.array([0, 0, 1, 1]), source_index=source)
    with pytest.raises(DesignError, match="column arm: .* does not fit a "
                                          "64-bit signed integer"):
        ObservedStudy(baseline_obs=np.ones(4), outcome_obs=np.ones(4),
                      arm=source, source_index=np.arange(4))


@pytest.mark.parametrize("arms, sources, fault", [
    ([0.5, 0.9, 1.7, 1.2, 0.0, 1.0], range(6), (0, "arm: 0.5")),
    ([0, 0, 1, 1], [0.2, 0.7, 2, 3], (0, "source_index: 0.2")),
    ([0, 0, 1, 1], [0, 1, 2, -0.5], (3, "source_index: -0.5")),
    (np.array([0.0, 0.0, 1.0, 1.5]), np.arange(4), (3, "arm: 1.5")),
], ids=["arm", "source", "negative-source", "float-array"])
def test_study_refuses_fractional_labels(arms, sources, fault):
    # a cast to intp would truncate 0.5 to 0
    row, what = fault
    n = len(arms)
    with pytest.raises(DesignError) as info:
        ObservedStudy(baseline_obs=np.ones(n), outcome_obs=np.ones(n),
                      arm=arms, source_index=list(sources))
    assert str(info.value) == f"column {what} is not an integer"
    assert info.value.row == row


def test_study_takes_whole_float_labels():
    study = ObservedStudy(baseline_obs=np.ones(4), outcome_obs=np.ones(4),
                          arm=np.array([0.0, 0.0, 1.0, 1.0]),
                          source_index=[0.0, 2 ** 63 - 1, 5, 6])
    assert study.arm.dtype == np.intp and study.arm.tolist() == [0, 0, 1, 1]
    assert study.source_index.tolist() == [0, 2 ** 63 - 1, 5, 6]


def library_refusal(sources, arms):
    """The DesignError with which the constructor refuses the study of
    these label columns that a test's CSV holds."""
    with pytest.raises(DesignError) as info:
        ObservedStudy(baseline_obs=np.full(len(arms), 2.0),
                      outcome_obs=np.full(len(arms), 2.5), arm=arms,
                      source_index=sources)
    return info.value


@pytest.mark.parametrize("sources, arms, fault", [
    ([0, 1, 0, 2**63], [0, 0, 1, 1], "5: column source_index: "
                                     "9223372036854775808"),
    ([0, 1, 2, 3], [0, -1, 10**20, 1], "4: column arm: "
                                       "100000000000000000000"),
    ([0, 1, 2, -2**63 - 1], [0, 0, 1, -1], "5: column source_index: "
                                           "-9223372036854775809"),
    ([0, 1, 2, 2**64], [0, 0, 2**63, 1], "4: column arm: "
                                         "9223372036854775808"),
    ([0, 1, 2, 2**63], [0, 0, 1, 2**64], "5: column source_index: "
                                         "9223372036854775808"),
], ids=["uint64", "object", "negative", "first-by-line", "source-first"])
def test_study_csv_refuses_integers_past_int64(tmp_path, sources, arms,
                                               fault):
    # a cell past int64 is refused as a cell fault is: before the rules
    # across rows (distinct sources, nonnegative arms)
    path = tmp_path / "study.csv"
    path.write_text("plot_id,source_index,arm,baseline_obs,outcome_obs\n"
                    + "".join(f"{i},{src},{arm},2.0,2.5\n" for i, (src, arm)
                              in enumerate(zip(sources, arms))))
    with pytest.raises(SchemaError) as info:
        ObservedStudy.from_csv(path)
    assert str(info.value) == (f"{path}:{fault} does not fit a 64-bit "
                               f"signed integer")
    # the constructor refuses the same columns at the same row, alike
    library = library_refusal(sources, arms)
    assert str(info.value) == f"{path}:{library.row + 2}: {library}"


def test_study_diffs_and_counts(pop):
    spec = DesignSpec(n_enrolled=10, arm_sizes=(6, 4))
    study = enroll_and_assign(pop, spec, 5)
    assert np.array_equal(study.diffs,
                          study.outcome_obs - study.baseline_obs)
    assert list(np.bincount(study.arm)) == [6, 4]


def test_study_csv_roundtrip(tmp_path, pop):
    spec = DesignSpec(n_enrolled=12, arm_sizes=(6, 6), samples_per_plot=5,
                      sd_within_plot=1.02)
    study = enroll_and_assign(pop, spec, 77)
    path = tmp_path / "study.csv"
    study.to_csv(path)
    back = ObservedStudy.from_csv(path)
    assert np.array_equal(back.baseline_obs, study.baseline_obs)
    assert np.array_equal(back.outcome_obs, study.outcome_obs)
    assert np.array_equal(back.arm, study.arm)
    assert np.array_equal(back.source_index, study.source_index)


@pytest.mark.parametrize("sources, arms, fault", [
    ([0, 1, 2, 3], [0, 0, 1, 1], None),
    ([0, 1, 2, 1], [0, 0, 1, 1], "5: duplicate source_index 1"),
    ([0, 1, 2, 1], [0, -1, 1, 1], "3: arm labels must be nonnegative, "
                                  "got -1"),
    ([0, 1, 2, 1], [0, 0, 1, -2], "5: arm labels must be nonnegative, "
                                  "got -2"),
    ([0, 1, 0, 1], [0, 0, 1, -1], "4: duplicate source_index 0"),
], ids=["clean", "repeat", "negative-first", "both-on-one-line",
        "repeat-first"])
def test_study_csv_reports_the_first_fault_by_line(tmp_path, sources, arms,
                                                   fault):
    path = tmp_path / "study.csv"
    path.write_text("plot_id,source_index,arm,baseline_obs,outcome_obs\n"
                    + "".join(f"{i},{src},{arm},2.0,2.5\n" for i, (src, arm)
                              in enumerate(zip(sources, arms))))
    if fault is None:
        assert ObservedStudy.from_csv(path).source_index.tolist() == sources
        return
    with pytest.raises(SchemaError) as info:
        ObservedStudy.from_csv(path)
    assert str(info.value) == f"{path}:{fault}"
    # the constructor refuses the same columns at the same row, alike
    library = library_refusal(sources, arms)
    assert str(info.value) == f"{path}:{library.row + 2}: {library}"


def test_study_csv_bad_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("plot_id,arm,baseline_obs,outcome_obs\n")
    with pytest.raises(SchemaError):
        ObservedStudy.from_csv(path)
    path.write_text("plot_id,source_index,arm,baseline_obs,outcome_obs\n")
    with pytest.raises(SchemaError):
        ObservedStudy.from_csv(path)
