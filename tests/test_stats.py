import itertools
import math
import operator
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import numpy as np
import pytest

from conftest import z_two_proportions_from_rates
from hyposcreen.errors import (
    ConstantInput,
    DataError,
    DegenerateMargins,
    EmptySubgroup,
    TooShort,
    UnknownColumn,
    ZeroExpectedCell,
    ZeroPooledVariance,
)
from hyposcreen.stats import (
    average_ranks,
    build_bias_report,
    chi_square,
    fisher_exact,
    normal_approx_ci,
    spearman,
    z_two_proportions,
    WALD_Z,
    _chi2_sf,
    _t_sf,
)


# --- two-proportion z-test ------------------------------------------------------

def test_z_test_checkpoint_values():
    res = z_two_proportions_from_rates(0.141, 361, 0.129, 466)
    assert abs(res.statistic - 0.52) < 0.05
    assert abs(res.p_value - 0.60) < 0.03
    assert res.preconditions_met

    res2 = z_two_proportions_from_rates(0.194, 103, 0.043, 46)
    assert abs(res2.statistic - 2.40) < 0.05
    assert res2.p_value < 0.05


def test_z_test_counts_equal_rates_parameterization():
    a = z_two_proportions(20, 100, 30, 150)
    b = z_two_proportions_from_rates(0.2, 100, 0.2, 150)
    assert a.statistic == b.statistic and a.p_value == b.p_value
    assert a.statistic == 0.0 and math.isclose(a.p_value, 1.0)


def test_z_test_hand_computation():
    # 10/50 vs 20/50: pooled 0.3, se = sqrt(0.3*0.7*(2/50))
    res = z_two_proportions(10, 50, 20, 50)
    se = math.sqrt(0.3 * 0.7 * (2 / 50))
    assert math.isclose(res.statistic, (0.2 - 0.4) / se, rel_tol=1e-12)
    assert math.isclose(res.p_value,
                        math.erfc(abs(res.statistic) / math.sqrt(2)),
                        rel_tol=1e-12)


def test_z_test_degenerate_and_precondition_flags():
    with pytest.raises(ZeroPooledVariance):
        z_two_proportions(0, 50, 0, 80)
    with pytest.raises(ZeroPooledVariance):
        z_two_proportions(50, 50, 80, 80)
    with pytest.raises(DataError):
        z_two_proportions(5, 0, 1, 10)
    with pytest.raises(DataError):
        z_two_proportions(11, 10, 1, 10)
    with pytest.raises(DataError):
        z_two_proportions_from_rates(1.2, 10, 0.5, 10)
    assert not z_two_proportions(1, 12, 2, 12).preconditions_met


# --- Fisher exact test ------------------------------------------------------------

def _fisher_oracle(a, b, c, d):
    """Exact two-sided p by rational hypergeometric enumeration."""
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2

    def prob(k):
        return Fraction(math.comb(r1, k) * math.comb(r2, c1 - k),
                        math.comb(n, c1))

    p_obs = prob(a)
    total = Fraction(0)
    for k in range(max(0, c1 - r2), min(r1, c1) + 1):
        pk = prob(k)
        if pk <= p_obs:
            total += pk
    return float(total)


def test_fisher_checkpoint_table():
    res = fisher_exact(15, 55, 0, 7)
    assert res.statistic == 0.0
    assert 0.32 <= res.p_value <= 0.35
    assert math.isclose(res.p_value, _fisher_oracle(15, 55, 0, 7),
                        abs_tol=1e-10)


def test_fisher_matches_rational_enumeration_on_random_tables():
    rng = np.random.default_rng(90)
    checked = 0
    while checked < 120:
        a, b, c, d = (int(v) for v in rng.integers(0, 16, size=4))
        if a + b == 0 or c + d == 0:
            continue
        res = fisher_exact(a, b, c, d)
        if a + c == 0 or b + d == 0:
            assert res.p_value == 1.0
        else:
            assert math.isclose(res.p_value, _fisher_oracle(a, b, c, d),
                                abs_tol=1e-10)
        checked += 1


def test_fisher_odds_orientation_and_degeneracies():
    # second-row odds over first-row odds
    res = fisher_exact(10, 10, 5, 20)
    assert math.isclose(res.statistic, (5 * 10) / (10 * 20))
    assert math.isinf(fisher_exact(0, 10, 5, 5).statistic)
    assert fisher_exact(5, 5, 0, 10).statistic == 0.0
    nan_res = fisher_exact(0, 10, 0, 10)
    assert math.isnan(nan_res.statistic)
    assert nan_res.p_value == 1.0  # zero column margin: only one table fits
    assert nan_res.to_dict()["statistic"] is None
    inf_doc = fisher_exact(0, 10, 5, 5).to_dict()
    assert inf_doc["statistic"] == "inf"
    with pytest.raises(DegenerateMargins):
        fisher_exact(0, 0, 5, 5)
    with pytest.raises(DataError):
        fisher_exact(-1, 2, 3, 4)
    with pytest.raises(DataError):
        fisher_exact(1.5, 2, 3, 4)


# --- chi-square tail -------------------------------------------------------------

def _decimal_pi() -> Decimal:
    """pi to the context precision, by the series of the decimal module docs."""
    getcontext().prec += 2
    three = Decimal(3)
    lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    getcontext().prec -= 2
    return +s


def _chi2_sf_by_lower_series(x: float, df: int) -> float:
    """1 - P(df/2, x/2), with the lower incomplete gamma P summed as its power
    series y^a e^-y sum_n y^n / gamma(a + n + 1) at 150 digits, enough to
    keep the tails down to 1e-110 exact after the subtraction."""
    with localcontext() as ctx:
        ctx.prec = 150
        a = Decimal(df) / 2
        y = Decimal(x) / 2
        if y == 0:
            return 1.0
        gamma = _decimal_pi().sqrt() if df % 2 else Decimal(1)  # gamma(1/2 or 1)
        k = Decimal(1) / 2 if df % 2 else Decimal(1)
        while k <= a:  # gamma(a + 1) by k -> k + 1 steps
            gamma *= k
            k += 1
        term = y ** a * (-y).exp() / gamma
        total = term
        n = 1
        while term > Decimal(10) ** -130 or n < y:
            term = term * y / (a + n)
            total += term
            n += 1
        return float(1 - total)


def test_chi2_tail_equals_an_independent_series_to_1e_12():
    stats = ([0.0, 1e-8, 1e-3, 0.1, 0.5]
             + [float(v) for v in np.linspace(1.0, 500.0, 24)])
    worst = 0.0
    for df in range(1, 41):
        for x in stats:
            want = _chi2_sf_by_lower_series(x, df)
            got = _chi2_sf(x, df)
            worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-12


def test_chi_square_hand_example():
    res = chi_square([[10, 20], [20, 10]])
    assert math.isclose(res.statistic, 20.0 / 3.0, rel_tol=1e-12)
    assert res.notes["df"] == 1
    # df=1 survival has a closed erfc form
    assert math.isclose(res.p_value, math.erfc(math.sqrt(res.statistic / 2.0)),
                        rel_tol=1e-10)
    assert res.preconditions_met


def test_chi_square_precondition_flag_and_errors():
    assert not chi_square([[1, 2], [2, 1]]).preconditions_met
    with pytest.raises(ZeroExpectedCell):
        chi_square([[0, 5], [0, 7]])
    with pytest.raises(DegenerateMargins):
        chi_square([[0, 0], [0, 0]])
    with pytest.raises(DataError):
        chi_square([[1, 2]])
    with pytest.raises(DataError):
        chi_square([[1, -2], [3, 4]])


# --- Spearman ---------------------------------------------------------------------

def test_average_ranks_hand_and_oracle():
    assert average_ranks([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]
    rng = np.random.default_rng(91)
    for _ in range(30):
        v = rng.integers(0, 6, size=int(rng.integers(2, 25))).astype(float)
        ranks = average_ranks(v)
        for i, vi in enumerate(v):
            less = np.sum(v < vi)
            eq = np.sum(v == vi)
            assert ranks[i] == less + (eq + 1) / 2.0


def test_spearman_perfect_monotone():
    x = np.arange(12, dtype=float)
    res = spearman(x, 3.0 * x + 1.0)
    assert res.statistic == 1.0 and res.p_value == 0.0
    res = spearman(x, -x ** 3)
    assert res.statistic == -1.0 and res.p_value == 0.0
    assert res.notes["method"] == "t_approximation"


def test_spearman_exact_enumeration_matches_independent_count():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [2.0, 1.0, 4.0, 3.0, 5.0]
    res = spearman(x, y)
    assert math.isclose(res.statistic, 0.8, rel_tol=1e-12)
    assert res.notes["method"] == "exact_permutation"
    # tie-free ranks admit the d^2 identity, so the oracle never calls
    # the package's correlation code
    n = 5
    hits = 0
    for perm in itertools.permutations(range(1, n + 1)):
        d2 = sum((i + 1 - p) ** 2 for i, p in enumerate(perm))
        r = 1.0 - 6.0 * d2 / (n * (n * n - 1))
        hits += abs(r) >= 0.8 - 1e-12
    assert math.isclose(res.p_value, hits / math.factorial(n), abs_tol=1e-12)


def _doubled_centred_ranks(values):
    """2 * average rank - (n + 1), an integer, counted from the values."""
    n = len(values)
    return [2 * sum(w < v for w in values) + sum(w == v for w in values) + 1
            - (n + 1) for v in values]


def test_spearman_exact_p_equals_brute_force_count():
    # 102 tie-heavy instances; n = 9 (362,880 pairings) is the slow oracle
    sizes = [3, 4, 5, 6, 7, 8] * 16 + [9] * 6
    rng = np.random.default_rng(94)
    checked = 0
    while checked < len(sizes):
        n = sizes[checked]
        x = rng.integers(0, int(rng.integers(2, n + 1)), size=n).astype(float)
        if checked % 2:  # an error indicator, as build_bias_report passes it
            y = rng.integers(0, 2, size=n).astype(float)
        else:
            y = rng.integers(0, int(rng.integers(2, n + 1)), size=n) * 0.5
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        res = spearman(x, y)
        assert res.notes == {"n": n, "method": "exact_permutation"}
        xc = _doubled_centred_ranks(list(x))
        yc = _doubled_centred_ranks(list(y))
        observed = abs(sum(map(operator.mul, xc, yc)))
        hits = sum(abs(sum(map(operator.mul, xc, perm))) >= observed
                   for perm in itertools.permutations(yc))
        assert res.p_value == hits / math.factorial(n), (x, y)
        rho = sum(map(operator.mul, xc, yc)) / math.sqrt(
            sum(v * v for v in xc) * sum(v * v for v in yc))
        assert math.isclose(res.statistic, rho, rel_tol=1e-12, abs_tol=1e-15)
        checked += 1


def test_spearman_errors():
    with pytest.raises(TooShort):
        spearman([1.0, 2.0], [2.0, 1.0])
    with pytest.raises(ConstantInput):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConstantInput):
        spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    with pytest.raises(DataError):
        spearman([1.0, 2.0, 3.0], [1.0, 2.0])


def test_t_survival_against_cauchy_and_normal_limits():
    for t in (0.0, 0.5, 1.3, 2.7):
        # df=1 is Cauchy
        assert math.isclose(_t_sf(t, 1.0), 0.5 - math.atan(t) / math.pi,
                            rel_tol=1e-10)
        # huge df approaches the normal tail
        normal = 0.5 * math.erfc(t / math.sqrt(2.0))
        assert math.isclose(_t_sf(t, 1e7), normal, rel_tol=1e-3, abs_tol=1e-9)
    assert math.isclose(_t_sf(-1.3, 1.0), 1.0 - _t_sf(1.3, 1.0), rel_tol=1e-12)
    assert _t_sf(math.inf, 5.0) == 0.0


# --- rate confidence intervals --------------------------------------------------

def test_normal_approx_ci_checkpoints():
    ci1 = normal_approx_ci(0.141 * 361, 361)
    assert math.isclose(ci1.point, 0.141, rel_tol=1e-12)
    expect1 = 1.96 * math.sqrt(0.141 * 0.859 / 361)
    assert math.isclose(ci1.half_width, expect1, rel_tol=1e-12)
    assert abs(ci1.half_width - 0.036) < 0.0005

    ci2 = normal_approx_ci(0.129 * 466, 466)
    expect2 = 1.96 * math.sqrt(0.129 * 0.871 / 466)
    assert math.isclose(ci2.half_width, expect2, rel_tol=1e-12)
    assert abs(ci2.half_width - 0.030) < 0.0005


def test_normal_approx_ci_truncation_and_flags():
    raw = normal_approx_ci(1, 10)
    assert raw.lo < 0.0
    assert not raw.preconditions_met
    assert normal_approx_ci(50, 100).preconditions_met
    assert normal_approx_ci(0, 10).half_width == 0.0
    with pytest.raises(DataError):
        normal_approx_ci(5, 0)
    with pytest.raises(DataError):
        normal_approx_ci(11, 10)


def test_z_for_level_reference_points():
    # the interval is fixed at the 95% level, with z rounded to 1.96
    assert WALD_Z == 1.96
    assert math.isclose(0.5 * math.erfc(-WALD_Z / math.sqrt(2.0)), 0.975,
                        abs_tol=3e-5)
    ci = normal_approx_ci(30, 100)
    assert ci.half_width == 1.96 * math.sqrt(0.3 * 0.7 / 100)
    assert (ci.lo, ci.hi) == (0.3 - ci.half_width, 0.3 + ci.half_width)


# --- bias report ----------------------------------------------------------------

def _planted_two_group_data():
    """Group A: 50/500 overdiagnosed controls; group B: 100/500."""
    labels = np.zeros(1000, dtype=int)
    scores = np.zeros(1000)
    scores[:50] = 0.9
    scores[500:600] = 0.9
    sex = ["a"] * 500 + ["b"] * 500
    return labels, scores, {"sex": sex}


def test_bias_report_detects_planted_rate_gap():
    labels, scores, demo = _planted_two_group_data()
    report = build_bias_report(labels, scores, demo, "sex", 0.5)
    assert report.group_kind == "categorical"
    a = report.groups["a"]["rates"]["misclassification"]
    b = report.groups["b"]["rates"]["misclassification"]
    assert a["point"] == 0.1 and b["point"] == 0.2
    assert a["events"] == 50 and b["events"] == 100
    mis = [c for c in report.comparisons if c["rate"] == "misclassification"]
    assert len(mis) == 1
    assert mis[0]["method"] == "z_two_proportions"
    assert mis[0]["result"]["p_value"] < 0.01
    assert report.homogeneity["misclassification"]["p_value"] < 0.01
    # no positives anywhere: underdiagnosis has no denominator
    assert report.groups["a"]["rates"]["underdiagnosis"] is None
    assert report.homogeneity["underdiagnosis"]["note"]
    assert report.rank_association == {}


def test_bias_report_missing_values_become_unknown_group():
    labels = np.array([0, 0, 1, 1, 0, 1])
    scores = np.array([0.1, 0.9, 0.8, 0.2, 0.1, 0.9])
    demo = {"ethnicity": ["x", "x", None, "y", "y", None]}
    report = build_bias_report(labels, scores, demo, "ethnicity", 0.5)
    assert set(report.groups) == {"unknown", "x", "y"}
    assert report.groups["unknown"]["n"] == 2


def test_bias_report_fisher_fallback_on_small_groups():
    labels = np.zeros(12, dtype=int)
    scores = np.zeros(12)
    scores[0] = 0.9
    demo = {"site": ["a"] * 6 + ["b"] * 6}
    report = build_bias_report(labels, scores, demo, "site", 0.5)
    mis = [c for c in report.comparisons if c["rate"] == "misclassification"]
    assert mis[0]["method"] == "fisher_exact"
    assert mis[0]["result"]["test"] == "fisher_exact"


def test_bias_report_binned_continuous_column():
    rng = np.random.default_rng(93)
    n = 120
    labels = rng.integers(0, 2, size=n)
    scores = rng.random(n)
    age = list(np.linspace(40.0, 80.0, n - 2)) + [39.0, None]
    report = build_bias_report(labels, scores, {"age": age}, "age", 0.5,
                               bin_edges=[40, 60, 80])
    assert report.group_kind == "binned"
    assert set(report.groups) == {"[40, 60)", "[60, 80]"}
    assert report.notes["out_of_range_rows"] == 1
    assert report.notes["missing_value_rows"] == 1
    # the right edge of the last bin is included
    sizes = {k: v["n"] for k, v in report.groups.items()}
    assert sum(sizes.values()) == n - 2
    assert set(report.rank_association) == {"misclassification",
                                            "underdiagnosis", "overdiagnosis"}


def test_bias_report_bin_validation_and_errors():
    labels = np.array([0, 1, 0, 1])
    scores = np.array([0.1, 0.9, 0.2, 0.8])
    demo = {"age": [41.0, 42.0, 43.0, 44.0]}
    with pytest.raises(DataError):
        build_bias_report(labels, scores, demo, "age", 0.5, bin_edges=[60, 40])
    with pytest.raises(DataError):
        build_bias_report(labels, scores, demo, "age", 0.5, bin_edges=[40])
    with pytest.raises(EmptySubgroup):
        build_bias_report(labels, scores, demo, "age", 0.5,
                          bin_edges=[40, 50, 60])
    with pytest.raises(UnknownColumn):
        build_bias_report(labels, scores, demo, "height", 0.5)
    with pytest.raises(DataError):
        build_bias_report(labels, scores, {"age": [1.0]}, "age", 0.5,
                          bin_edges=[0, 2])


def test_bias_report_rejects_nan_edges_and_text_values_when_binned():
    labels = np.array([0, 1, 0, 1])
    scores = np.array([0.1, 0.9, 0.2, 0.8])
    demo = {"age": [41.0, 42.0, 43.0, 44.0]}
    for edges in ([35, math.nan, 86], [math.nan, 50], [35, math.nan],
                  [35, 50, math.nan, 86]):
        with pytest.raises(DataError, match="strictly increasing") as info:
            build_bias_report(labels, scores, demo, "age", 0.5, bin_edges=edges)
        assert type(info.value) is DataError, edges
    report = build_bias_report(labels, scores, demo, "age", 0.5,
                               bin_edges=[-math.inf, 42.5, math.inf])
    assert [g["n"] for g in report.groups.values()] == [2, 2]
    with pytest.raises(DataError, match="not numeric"):
        build_bias_report(labels, scores, {"ethnicity": ["a", "b", "a", None]},
                          "ethnicity", 0.5, bin_edges=[1, 2])
