import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from riskchoice import (
    GeneratorConfig,
    InputError,
    ScenarioArrays,
    UndefinedEffectSizeError,
    cramers_v,
    design_matrix,
    eta_squared,
    generate_dataset,
    select_features,
)
from riskchoice.features import (
    CANDIDATE_KINDS,
    DEFAULT_TAU_V,
    RAW_NAMES,
    SYMBOLIC_NAMES,
)


def _scenarios(safe, risky, p, frame):
    n = len(safe)
    return ScenarioArrays(
        id=np.arange(n),
        safe=np.asarray(safe, dtype=float),
        risky=np.asarray(risky, dtype=float),
        p=np.asarray(p, dtype=float),
        frame=np.asarray(frame, dtype=np.int64),
        choice=np.zeros(n, dtype=np.int64),
    )


def _symbolic_row(safe, risky, p, frame):
    return design_matrix(_scenarios([safe], [risky], [p], [frame]), SYMBOLIC_NAMES)[0]


def _raw_row(safe, risky, p, frame):
    return design_matrix(_scenarios([safe], [risky], [p], [frame]), RAW_NAMES)[0]


class TestFeatureMaps:
    def test_symbolic_example(self):
        assert SYMBOLIC_NAMES == ("intercept", "frame", "low_prob", "magnitude", "dominance")
        # 0.15 * 120 = 18 does not beat the sure 50, so dominance is 0
        np.testing.assert_allclose(
            _symbolic_row(50.0, 120.0, 0.15, 1), [1.0, 1.0, 1.0, 0.7, 0.0], atol=1e-15
        )

    def test_magnitude_zero_when_payoffs_equal(self):
        assert _symbolic_row(80.0, 80.0, 0.5, -1)[3] == 0.0

    def test_low_prob_boundary_is_strict(self):
        assert _symbolic_row(10.0, 20.0, 0.2, 1)[2] == 0.0
        assert _symbolic_row(10.0, 20.0, 0.1999, 1)[2] == 1.0

    def test_raw_passthrough(self):
        assert RAW_NAMES == ("intercept", "safe", "risky", "p", "frame")
        np.testing.assert_array_equal(
            _raw_row(50.0, 120.0, 0.15, 1), [1.0, 50.0, 120.0, 0.15, 1.0]
        )

    def test_raw_frame_sign(self):
        row = _raw_row(5.0, 5.0, 0.5, -1)
        assert row[-1] == -1.0
        assert len(row) == 5

    def test_matrix_builders_agree_with_per_scenario_maps(self):
        rng = np.random.Generator(np.random.PCG64(4))
        n = 20
        arrays = _scenarios(
            rng.uniform(0, 100, n),
            rng.uniform(0, 150, n),
            rng.uniform(0.1, 0.9, n),
            rng.integers(0, 2, n) * 2 - 1,
        )
        symbolic = design_matrix(arrays, SYMBOLIC_NAMES)
        raw = design_matrix(arrays, RAW_NAMES)
        for i in range(n):
            safe, risky, p, frame = arrays.safe[i], arrays.risky[i], arrays.p[i], arrays.frame[i]
            # the per-scenario maps written out, one scalar at a time
            np.testing.assert_array_equal(
                symbolic[i],
                [1.0, float(frame), float(p < 0.2), (risky - safe) / 100.0, float(p * risky > safe)],
            )
            np.testing.assert_array_equal(raw[i], [1.0, safe, risky, p, float(frame)])
            np.testing.assert_array_equal(_symbolic_row(safe, risky, p, frame), symbolic[i])
            np.testing.assert_array_equal(_raw_row(safe, risky, p, frame), raw[i])


class TestCramersV:
    def test_screening_scores_equal_the_public_functions(self):
        # select_features sorts the outcome once for every candidate and
        # reads each column as a row of one design's k x n storage (at odd
        # n, rows after the first start off 16-byte alignment); each verdict
        # must equal scoring that candidate's own column
        for n in (3000, 2999):
            data = generate_dataset(GeneratorConfig(n=n, seed=5))
            for entry in select_features(data).entries:
                col = design_matrix(data, (entry.name,))[:, 0]
                score = cramers_v if entry.metric == "cramers_v" else eta_squared
                try:
                    expected = score(col, data.choice)
                except UndefinedEffectSizeError:
                    expected = None
                assert entry.value == expected

    def test_perfect_association_is_one(self):
        x = np.array([0, 0, 1, 1, 0, 1, 1, 0])
        assert cramers_v(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_exact_independence_is_zero(self):
        # balanced 2x2 with equal cell counts
        x = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 0, 1])
        assert cramers_v(x, y) == pytest.approx(0.0, abs=1e-15)

    def test_pinned_small_instance(self):
        # contingency table [[2,1],[1,2]], chi2 = 2/3, V = sqrt((2/3)/6) = 1/3
        x = np.array([0, 0, 1, 1, 0, 1])
        y = np.array([0, 0, 1, 1, 1, 0])
        assert cramers_v(x, y) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_scipy_chi2_on_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for _ in range(200):
            n = int(rng.integers(10, 120))
            x = rng.integers(0, int(rng.integers(2, 5)), n)
            y = rng.integers(0, 2, n)
            if len(np.unique(x)) < 2 or len(np.unique(y)) < 2:
                continue
            table = np.zeros((len(np.unique(x)), 2))
            xi = np.searchsorted(np.unique(x), x)
            np.add.at(table, (xi, y), 1)
            chi2 = chi2_contingency(table, correction=False).statistic
            expected = np.sqrt(chi2 / (n * (min(table.shape) - 1)))
            assert cramers_v(x, y) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.Generator(np.random.PCG64(8))
        x = rng.integers(0, 3, 60)
        y = rng.integers(0, 2, 60)
        relabeled = np.array([10, -4, 7])[x]
        assert cramers_v(x, y) == cramers_v(relabeled, y)

    def test_constant_inputs_are_undefined(self):
        with pytest.raises(UndefinedEffectSizeError):
            cramers_v(np.ones(10), np.arange(10) % 2)
        with pytest.raises(UndefinedEffectSizeError):
            cramers_v(np.arange(10) % 2, np.zeros(10))

    def test_shape_errors(self):
        with pytest.raises(InputError):
            cramers_v(np.array([1, 2, 3]), np.array([1, 2]))
        with pytest.raises(InputError):
            cramers_v(np.array([1]), np.array([0]))

    @settings(max_examples=300)
    @given(
        pool=st.lists(
            st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -2.5]) | st.floats(),
            min_size=1,
            max_size=5,
        ),
        y_levels=st.lists(st.integers(-5, 5), min_size=2, max_size=3, unique=True),
        data=st.data(),
    )
    def test_matches_unique_inverse_reference_bitwise(self, pool, y_levels, data):
        # floats drawn from a small pool, so levels repeat; NaNs form one
        # level and -0.0 shares the level of 0.0
        n = data.draw(st.integers(2, 40))
        x = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(st.sampled_from(y_levels), min_size=n, max_size=n)))

        x_levels, xi = np.unique(x, return_inverse=True)
        y_unique, yi = np.unique(y, return_inverse=True)
        r, c = x_levels.shape[0], y_unique.shape[0]
        if r < 2 or c < 2:
            with pytest.raises(UndefinedEffectSizeError):
                cramers_v(x, y)
            return
        observed = np.zeros((r, c))
        np.add.at(observed, (xi, yi), 1.0)
        expected = observed.sum(axis=1, keepdims=True) @ observed.sum(axis=0, keepdims=True) / n
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        v2 = chi2 / (n * (min(r, c) - 1))
        reference = float(min(max(np.sqrt(max(v2, 0.0)), 0.0), 1.0))
        assert cramers_v(x, y).hex() == reference.hex()


class TestEtaSquared:
    @settings(max_examples=300)
    @given(
        x_pool=st.lists(
            st.sampled_from([np.nan, -0.0, 0.0, 1.0, -2.5, 1e-300]) | st.floats(-1e6, 1e6),
            min_size=1,
            max_size=6,
        ),
        y_pool=st.lists(st.integers(-5, 5), min_size=1, max_size=3, unique=True).map(
            lambda v: np.array(v, dtype=np.int64)
        )
        | st.lists(
            st.sampled_from([np.nan, -0.0, 0.0, 1.0, -3.5]), min_size=1, max_size=4
        ).map(lambda v: np.array(v, dtype=float)),
        data=st.data(),
    )
    def test_matches_unique_inverse_reference_bitwise(self, x_pool, y_pool, data):
        # NaN outcomes form one group and -0.0 shares the group of 0.0, as
        # np.unique groups them; pool [nan, 0.0] holds two groups
        n = data.draw(st.integers(2, 40))
        x = np.array(data.draw(st.lists(st.sampled_from(x_pool), min_size=n, max_size=n)))
        y = y_pool[data.draw(st.lists(st.integers(0, len(y_pool) - 1), min_size=n, max_size=n))]

        levels, inverse = np.unique(y, return_inverse=True)
        if levels.shape[0] < 2 or np.all(x == x[0]):
            with pytest.raises(UndefinedEffectSizeError):
                eta_squared(x, y)
            return
        x = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
        grand = x.mean()
        ss_total = float(((x - grand) ** 2).sum())
        ss_between = 0.0
        for j in range(levels.shape[0]):
            xg = x[inverse == j]
            ss_between += xg.shape[0] * (xg.mean() - grand) ** 2
        reference = float(min(max(ss_between / ss_total, 0.0), 1.0))
        assert eta_squared(x, y).hex() == reference.hex()

    def test_pinned_small_instance(self):
        # groups (1,2) and (3,4): SS_between = 4, SS_total = 5
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([0, 0, 1, 1])
        assert eta_squared(x, y) == pytest.approx(0.8, abs=1e-15)

    def test_equal_group_means_gives_zero(self):
        x = np.array([1.0, 3.0, 2.0, 2.0])
        y = np.array([0, 0, 1, 1])
        assert eta_squared(x, y) == pytest.approx(0.0, abs=1e-15)

    def test_zero_within_group_variance_gives_one(self):
        x = np.array([2.0, 2.0, 5.0, 5.0, 5.0])
        y = np.array([0, 0, 1, 1, 1])
        assert eta_squared(x, y) == pytest.approx(1.0, abs=1e-15)

    def test_affine_invariance(self):
        rng = np.random.Generator(np.random.PCG64(13))
        x = rng.normal(size=80)
        y = rng.integers(0, 2, 80)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        base = eta_squared(x, y)
        assert eta_squared(3.5 * x - 12.0, y) == pytest.approx(base, rel=1e-10)

    def test_extreme_scales(self):
        y = np.array([0, 1, 1])
        for scale in (5e-324, 1e-300, 1.0, 1e300):
            assert eta_squared(scale * np.array([1.0, -1.0, 1.0]), y) == pytest.approx(
                0.25, rel=1e-15
            )

    def test_undefined_cases(self):
        # the mean of these 29 equal values rounds away from the value itself
        y = np.zeros(29, dtype=int)
        y[-1] = 1
        with pytest.raises(UndefinedEffectSizeError):
            eta_squared(np.full(29, 72316.07003176934), y)
        with pytest.raises(UndefinedEffectSizeError):
            eta_squared(np.full(6, 2.5), np.arange(6) % 2)
        with pytest.raises(UndefinedEffectSizeError):
            eta_squared(np.arange(6, dtype=float), np.ones(6))

    def test_shape_errors(self):
        with pytest.raises(InputError, match="equal-length vectors"):
            eta_squared(np.array([1.0, 2.0, 3.0]), np.array([0, 1]))
        with pytest.raises(InputError, match="equal-length vectors"):
            eta_squared(np.ones((2, 2)), np.array([0, 1]))
        with pytest.raises(InputError, match="at least 2 observations"):
            eta_squared(np.array([1.0]), np.array([0]))


categorical = st.integers(min_value=0, max_value=4)
continuous = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def column_and_outcome(draw, values):
    """An n-row column of ``values`` and an n-row binary outcome."""
    n = draw(st.integers(min_value=2, max_value=60))
    x = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return x, y


EFFECT_SIZES = [(cramers_v, categorical), (eta_squared, continuous)]
EFFECT_SIZE_IDS = ["cramers_v", "eta_squared"]


class TestEffectSizeProperties:
    @pytest.mark.parametrize("metric, values", EFFECT_SIZES, ids=EFFECT_SIZE_IDS)
    @settings(max_examples=200)
    @given(data=st.data())
    def test_in_unit_interval(self, metric, values, data):
        x, y = data.draw(column_and_outcome(values))
        assume(len(np.unique(x)) > 1 and len(np.unique(y)) > 1)
        assert 0.0 <= metric(x, y) <= 1.0

    @pytest.mark.parametrize("metric, values", EFFECT_SIZES, ids=EFFECT_SIZE_IDS)
    @settings(max_examples=100)
    @given(data=st.data())
    def test_constant_column_is_undefined(self, metric, values, data):
        _, y = data.draw(column_and_outcome(values))
        x = np.full(y.shape[0], data.draw(values))
        with pytest.raises(UndefinedEffectSizeError):
            metric(x, y)

    @pytest.mark.parametrize("metric, values", EFFECT_SIZES, ids=EFFECT_SIZE_IDS)
    @settings(max_examples=100)
    @given(data=st.data())
    def test_single_class_outcome_is_undefined(self, metric, values, data):
        x, y = data.draw(column_and_outcome(values))
        y[:] = data.draw(st.integers(0, 1))
        with pytest.raises(UndefinedEffectSizeError):
            metric(x, y)


@pytest.fixture(scope="module")
def default_data():
    return generate_dataset(GeneratorConfig())


class TestSelection:
    def test_default_run_screening(self, default_data):
        report = select_features(default_data)
        verdicts = {e.name: e for e in report.entries}
        assert verdicts["frame"].retained
        assert verdicts["magnitude"].retained
        assert verdicts["dominance"].retained
        # the low-probability indicator fires on only ~12.5% of scenarios,
        # so its marginal association sits below the default gate
        assert not verdicts["low_prob"].retained
        assert verdicts["low_prob"].value == pytest.approx(0.0558, abs=0.02)
        assert report.retained_names() == ("intercept", "frame", "magnitude", "dominance")

    def test_constant_candidate_is_dropped_with_a_warning(self, default_data, caplog):
        # with no scenario at p < 0.2 the low-probability indicator is constant
        data = default_data.take(np.flatnonzero(default_data.p >= 0.2))
        with caplog.at_level(logging.WARNING, logger="riskchoice.features"):
            report = select_features(data)
        verdicts = {e.name: e for e in report.entries}
        assert verdicts["low_prob"].value is None
        assert not verdicts["low_prob"].retained
        assert "low_prob" not in report.retained_names()
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, "dropping feature 'low_prob': x is constant; Cramér's V is undefined")
        ]

    def test_lower_threshold_recovers_low_prob(self, default_data):
        report = select_features(default_data, tau_v=0.05)
        verdicts = {e.name: e for e in report.entries}
        assert verdicts["low_prob"].retained

    def test_metric_assignment(self, default_data):
        report = select_features(default_data)
        metric = {e.name: e.metric for e in report.entries}
        assert metric == {
            "frame": "cramers_v",
            "low_prob": "cramers_v",
            "magnitude": "eta_squared",
            "dominance": "cramers_v",
        }

    def test_pure_noise_indicator_not_retained(self, default_data):
        rng = np.random.Generator(np.random.PCG64(2024))
        noise = rng.integers(0, 2, len(default_data)).astype(float)
        assert cramers_v(noise, default_data.choice) < DEFAULT_TAU_V

    def test_selection_is_deterministic(self, default_data):
        assert select_features(default_data) == select_features(default_data)

    def test_report_serialization(self, default_data):
        doc = select_features(default_data).to_json_list()
        assert [e["name"] for e in doc] == list(CANDIDATE_KINDS)
        assert all(
            set(e) == {"name", "metric", "value", "threshold", "retained"} for e in doc
        )

    def test_too_small_input(self):
        one = generate_dataset(GeneratorConfig(n=1, seed=0))
        with pytest.raises(InputError):
            select_features(one)


# Each feature's column as design_matrix built it with np.column_stack.
REFERENCE_COLUMNS = {
    "intercept": lambda a: np.ones(len(a)),
    "frame": lambda a: a.frame.astype(float),
    "low_prob": lambda a: (a.p < 0.2).astype(float),
    "magnitude": lambda a: (a.risky - a.safe) / 100.0,
    "dominance": lambda a: (a.p * a.risky > a.safe).astype(float),
    "safe": lambda a: a.safe.copy(),
    "risky": lambda a: a.risky.copy(),
    "p": lambda a: a.p.copy(),
}


@settings(max_examples=200)
@given(
    n=st.integers(1, 30),
    names=st.lists(st.sampled_from(sorted(REFERENCE_COLUMNS)), min_size=1, max_size=8),
    data=st.data(),
)
def test_design_matrix_has_the_column_stack_values(n, names, data):
    payoffs = st.sampled_from([-0.0, 0.0, 5e-324, 20.0]) | st.floats(-1e300, 1e300)
    probs = st.sampled_from([0.2, np.nextafter(0.2, 0.0), 0.5]) | st.floats(
        0.0, 1.0, exclude_min=True, exclude_max=True
    )
    arrays = _scenarios(
        *(data.draw(st.lists(s, min_size=n, max_size=n)) for s in (payoffs, payoffs, probs)),
        data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)),
    )
    reference = np.column_stack([REFERENCE_COLUMNS[name](arrays) for name in names])
    X = design_matrix(arrays, names)
    assert np.array_equal(X, reference)
    # the same bits, -0.0 included, stored column-major
    assert X.tobytes() == reference.tobytes() and X.flags.f_contiguous


def test_design_matrix_columns():
    arrays = generate_dataset(GeneratorConfig(n=50, seed=6))
    X = design_matrix(arrays, ("intercept", "frame", "magnitude"))
    assert X.shape == (50, 3)
    np.testing.assert_array_equal(X[:, 0], np.ones(50))
    np.testing.assert_array_equal(X[:, 1], arrays.frame.astype(float))
    np.testing.assert_allclose(X[:, 2], (arrays.risky - arrays.safe) / 100.0)

    with pytest.raises(InputError):
        design_matrix(arrays, ("intercept", "no_such_feature"))
    with pytest.raises(InputError):
        design_matrix(arrays, ())
