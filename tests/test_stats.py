import math
import random
from collections import Counter

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from depmetrics.errors import DegenerateInput, EmptyDistribution, NonPositiveX
from depmetrics.stats import (
    Distribution,
    _doubled_midranks,
    entropy,
    ols_fit,
    significance_stars,
    spearman,
    spearman_from_counts,
    t_two_sided_p,
)

from .reference_analysis import midranks as reference_midranks
from .reference_analysis import spearman as reference_spearman


# --- Distribution ------------------------------------------------------------


def test_distribution_probabilities_sum_to_one():
    dist = Distribution({1: 3, 2: 5, 7: 11})
    assert abs(sum(dist.probabilities().values()) - 1.0) <= 1e-12
    assert dist.total == 19
    assert dist.support() == [1, 2, 7]
    assert dist.probabilities().get(2, 0.0) == 5 / 19
    assert dist.probabilities().get(99, 0.0) == 0.0


def test_distribution_rejects_empty_and_negative():
    with pytest.raises(EmptyDistribution):
        Distribution({})
    with pytest.raises(EmptyDistribution):
        Distribution({1: 0})
    with pytest.raises(ValueError):
        Distribution({1: -2})


# --- entropy -------------------------------------------------------------------


def test_entropy_uniform_four_values():
    assert entropy(Distribution({1: 1, 2: 1, 3: 1, 4: 1})) == pytest.approx(2.0, abs=1e-12)


def test_entropy_point_mass_is_zero():
    assert entropy(Distribution({5: 42})) == 0.0


def test_entropy_half_quarter_quarter():
    assert entropy(Distribution({1: 2, 2: 1, 3: 1})) == pytest.approx(1.5, abs=1e-12)


def test_entropy_ignores_zero_counts():
    assert entropy(Distribution({1: 2, 2: 0, 3: 2})) == pytest.approx(1.0, abs=1e-12)


def test_entropy_is_permutation_invariant_in_labels():
    assert entropy(Distribution({1: 5, 2: 3})) == entropy(Distribution({9: 5, -4: 3}))


def test_entropy_maximal_for_uniform_support():
    uniform = entropy(Distribution({1: 2, 2: 2, 3: 2}))
    skewed = entropy(Distribution({1: 4, 2: 1, 3: 1}))
    assert uniform > skewed


def test_entropy_base_rescaling():
    dist = Distribution({1: 2, 2: 1, 3: 1})
    bits = entropy(dist, base=2.0)
    nats = entropy(dist, base=math.e)
    assert nats == pytest.approx(bits * math.log(2.0), abs=1e-12)
    assert entropy(dist, base=10.0) == pytest.approx(bits * math.log10(2.0), abs=1e-12)


# --- Spearman -------------------------------------------------------------------


def midranks(values):
    """Each value's rank, read from the doubled midranks of the value counts."""
    ranks = _doubled_midranks(Counter(values))
    return [ranks[value] / 2 for value in values]


def test_midranks_with_ties():
    assert _doubled_midranks(Counter([10, 20, 20, 40])) == {10: 2, 20: 5, 40: 8}
    assert midranks([10, 20, 20, 40]) == reference_midranks([10, 20, 20, 40]) == [1.0, 2.5, 2.5, 4.0]


# Few distinct values, so that most lists hold ties: ints, floats, and an int equal to a float.
TIED_VALUES = st.integers(-3, 3) | st.sampled_from([-0.0, 0.0, 0.5, 2.0, math.inf]) | st.floats(allow_nan=False)


@settings(max_examples=500, deadline=None)
@given(st.lists(TIED_VALUES))
def test_midranks_match_the_tie_loop_reference(values):
    ranks = midranks(values)
    assert ranks == reference_midranks(values)
    assert all(type(rank) is float for rank in ranks)


def test_spearman_perfect_monotone():
    up = spearman((1, 2, 3), (10, 20, 30))
    assert up.rho == 1.0
    assert up.p_value == 0.0
    down = spearman((1, 2, 3), (3, 2, 1))
    assert down.rho == -1.0
    assert down.p_value == 0.0


def test_spearman_tied_example_matches_hand_ranking():
    # ranks x: (1, 2.5, 2.5, 4); ranks y: (1, 3, 2, 4); Pearson = 3/sqrt(10)
    result = spearman((1, 2, 2, 4), (1, 3, 2, 4))
    assert result.rho == pytest.approx(3 / math.sqrt(10), abs=1e-14)
    reference = scipy.stats.spearmanr((1, 2, 2, 4), (1, 3, 2, 4))
    assert result.rho == pytest.approx(reference.statistic, abs=1e-12)
    assert result.p_value == pytest.approx(reference.pvalue, abs=1e-12)


def test_spearman_is_symmetric_and_transform_invariant():
    rng = random.Random(7)
    xs = [rng.uniform(0.1, 9) for _ in range(30)]
    ys = [rng.uniform(0.1, 9) for _ in range(30)]
    a = spearman(xs, ys)
    assert a.rho == spearman(ys, xs).rho
    assert a.rho == spearman([math.exp(x) for x in xs], ys).rho  # strictly increasing map


def test_spearman_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        spearman((1, 1, 1), (1, 2, 3))
    with pytest.raises(DegenerateInput):
        spearman((1, 2), (1, 2))
    with pytest.raises(ValueError):
        spearman((1, 2, 3), (1, 2))


def test_spearman_tie_free_matches_classic_formula():
    rng = random.Random(123)
    for _ in range(100):
        n = rng.randint(4, 40)
        xs = rng.sample(range(1000), n)
        ys = rng.sample(range(1000), n)
        rho = spearman(xs, ys).rho
        rx, ry = midranks(xs), midranks(ys)
        d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
        classic = 1 - 6 * d2 / (n * (n * n - 1))
        assert rho == pytest.approx(classic, abs=1e-12)


@st.composite
def paired_samples(draw):
    """Two samples of one length: short ones drawn value by value, or up to 4,000 seeded values
    over a drawn number of distinct ints or floats, the ys a noisy function of the xs."""
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(TIED_VALUES, TIED_VALUES), max_size=30))
        return [x for x, _ in pairs], [y for _, y in pairs]
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_value=3, max_value=4000))
    spread = draw(st.integers(min_value=0, max_value=n))
    slope = draw(st.sampled_from([-2, -1, 0, 1, 3]))
    scale = draw(st.sampled_from([1, 7.0, 0.1]))  # 1: ints; otherwise floats
    xs = [rng.randint(0, spread) for _ in range(n)]
    ys = [slope * x + rng.randint(0, spread // 2) for x in xs]
    if scale != 1:
        xs = [x / scale for x in xs]
        ys = [y * scale for y in ys]
    return xs, ys


def _outcome(correlate, xs, ys):
    """The result's floats as their bits, or the message of a ``DegenerateInput``."""
    try:
        result = correlate(xs, ys)
    except DegenerateInput as exc:
        return "DegenerateInput", str(exc)
    return result.rho.hex(), result.p_value.hex(), result.n


@settings(max_examples=300, deadline=None)
@given(paired_samples())
def test_spearman_equals_the_rank_pearson_reference_bit_for_bit(samples):
    xs, ys = samples
    assert _outcome(spearman, xs, ys) == _outcome(reference_spearman, xs, ys)


def test_spearman_from_counts_takes_each_pair_as_often_as_it_is_counted():
    xs, ys = (1, 1, 1, 2, 5, 5), (3, 3, 3, 1, 4, 2)
    assert spearman_from_counts({(1, 3): 3, (2, 1): 1, (5, 4): 1, (5, 2): 1}) == spearman(xs, ys)
    unseen = {(1, 3): 3, (2, 1): 0, (5, 4): 1, (5, 2): 1}
    assert spearman_from_counts(unseen) == spearman(xs[:3] + xs[4:], ys[:3] + ys[4:])
    with pytest.raises(DegenerateInput, match="^need >= 3 observations, got 2$"):
        spearman_from_counts({(1, 3): 1, (2, 1): 1})
    with pytest.raises(DegenerateInput, match="^constant vector: correlation is undefined$"):
        spearman_from_counts({(1, 3): 2, (1, 4): 1})


def test_spearman_p_matches_scipy_on_random_data():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(5, 60)
        xs = [rng.gauss(0, 1) for _ in range(n)]
        ys = [0.4 * x + rng.gauss(0, 1) for x in xs]
        mine = spearman(xs, ys)
        ref = scipy.stats.spearmanr(xs, ys)
        assert mine.rho == pytest.approx(ref.statistic, abs=1e-12)
        assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-10)


# --- Student-t tail --------------------------------------------------------------


def test_t_two_sided_p_against_scipy():
    for df in (1, 2, 5, 17, 100):
        for t in (0.0, 0.37, 1.0, 2.1, 11.0, 37.0):
            mine = t_two_sided_p(t, df)
            ref = 2.0 * scipy.stats.t.sf(t, df)
            assert mine == pytest.approx(ref, abs=1e-13, rel=1e-10)
    assert t_two_sided_p(math.inf, 5) == 0.0
    with pytest.raises(ValueError):
        t_two_sided_p(1.0, 0)


# --- OLS ---------------------------------------------------------------------------


def test_ols_recovers_exact_linear_data():
    xs = list(range(2, 21))
    fit = ols_fit(xs, [0.6267 * x - 0.4861 for x in xs])
    assert fit.slope == pytest.approx(0.6267, abs=1e-9)
    assert fit.intercept == pytest.approx(-0.4861, abs=1e-9)
    assert fit.adj_r2 == pytest.approx(1.0, abs=1e-9)
    assert fit.p_slope < 1e-100  # float rounding leaves a sub-ulp residual
    assert fit.n == 19


def test_ols_recovers_exact_loglinear_data():
    xs = list(range(2, 21))
    fit = ols_fit(xs, [1.0753 * math.log(x) + 0.5643 for x in xs], model_form="log-linear")
    assert fit.slope == pytest.approx(1.0753, abs=1e-9)
    assert fit.intercept == pytest.approx(0.5643, abs=1e-9)
    assert fit.adj_r2 == pytest.approx(1.0, abs=1e-9)


def test_ols_log_base_ten_rescales_slope():
    xs = list(range(2, 21))
    ys = [2.0 * math.log10(x) + 1.0 for x in xs]
    fit = ols_fit(xs, ys, model_form="log-linear", log_base=10.0)
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(1.0, abs=1e-9)


def test_ols_planted_noise_within_three_standard_errors():
    rng = random.Random(4711)
    xs = list(range(2, 21))  # n = 19
    ys = [2.0 * x + 1.0 + rng.gauss(0.0, 0.1) for x in xs]
    fit = ols_fit(xs, ys)
    assert abs(fit.slope - 2.0) <= 3.0 * fit.se_slope
    assert abs(fit.intercept - 1.0) <= 3.0 * fit.se_intercept
    assert fit.p_slope < 1e-6


def test_ols_matches_scipy_linregress():
    rng = random.Random(99)
    xs = [rng.uniform(1, 30) for _ in range(25)]
    ys = [3.5 * x - 2 + rng.gauss(0, 1.3) for x in xs]
    mine = ols_fit(xs, ys)
    ref = scipy.stats.linregress(xs, ys)
    assert mine.slope == pytest.approx(ref.slope, abs=1e-12)
    assert mine.intercept == pytest.approx(ref.intercept, abs=1e-12)
    assert mine.se_slope == pytest.approx(ref.stderr, abs=1e-12)
    assert mine.se_intercept == pytest.approx(ref.intercept_stderr, abs=1e-12)
    assert mine.p_slope == pytest.approx(ref.pvalue, abs=1e-12)
    assert mine.adj_r2 == pytest.approx(1 - (1 - ref.rvalue**2) * 24 / 23, abs=1e-12)


def test_ols_residuals_orthogonal_to_regressor():
    rng = random.Random(11)
    xs = [rng.uniform(1, 50) for _ in range(40)]
    ys = [0.7 * x + 4 + rng.gauss(0, 2) for x in xs]
    fit = ols_fit(xs, ys)
    residuals = [y - (fit.intercept + fit.slope * x) for x, y in zip(xs, ys)]
    scale = max(abs(y) for y in ys)
    assert abs(math.fsum(residuals)) <= 1e-9 * scale * len(xs)
    assert abs(math.fsum(r * x for r, x in zip(residuals, xs))) <= 1e-9 * scale * sum(map(abs, xs))


def test_ols_degenerate_and_nonpositive_inputs():
    with pytest.raises(DegenerateInput):
        ols_fit((3, 3, 3), (1, 2, 3))
    with pytest.raises(DegenerateInput):
        ols_fit((1, 2), (1, 2))
    with pytest.raises(NonPositiveX):
        ols_fit((0, 1, 2), (1, 2, 3), model_form="log-linear")
    with pytest.raises(ValueError):
        ols_fit((1, 2, 3), (1, 2, 3), model_form="quadratic")
    with pytest.raises(ValueError, match="^length mismatch: 3 vs 2$"):
        ols_fit((1, 2, 3), (1, 2))


def test_ols_constant_response():
    fit = ols_fit((1, 2, 3, 4), (5.0, 5.0, 5.0, 5.0))
    assert fit.slope == 0.0
    assert fit.intercept == 5.0
    assert fit.adj_r2 == 1.0
    assert fit.p_slope == 1.0  # zero coefficient, zero error: no evidence either way
    assert fit.p_intercept == 0.0


def test_model_string_rendering():
    fit = ols_fit(list(range(2, 21)), [0.6479 * x - 0.8269 for x in range(2, 21)])
    assert fit.model_string() == "y = 0.6479x - 0.8269"
    logfit = ols_fit(
        list(range(2, 21)),
        [0.9714 * math.log(x) + 0.5578 for x in range(2, 21)],
        model_form="log-linear",
    )
    assert logfit.model_string() == "y = 0.9714log(x) + 0.5578"


def test_significance_stars_convention():
    assert significance_stars(0.01) == "***"
    assert significance_stars(0.049999) == "***"
    assert significance_stars(0.05) == "**"
    assert significance_stars(0.099) == "**"
    assert significance_stars(0.1) == ""
    assert significance_stars(0.9) == ""
