import itertools
import math
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
    UnknownColumn,
    ZeroExpectedCell,
    ZeroPooledVariance,
)
from hyposcreen.stats import (
    RATE_TYPES,
    average_ranks,
    build_bias_report,
    chi_square,
    fisher_exact,
    normal_approx_ci,
    rank_sum,
    z_two_proportions,
    WALD_Z,
    _chi2_sf,
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


# --- rank-sum test ----------------------------------------------------------------

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


def _doubled_centred_ranks(values):
    """2 * average rank - (n + 1), an integer, counted from the values."""
    n = len(values)
    return [2 * sum(w < v for w in values) + sum(w == v for w in values) + 1
            - (n + 1) for v in values]


def _permutation_p(values, flags):
    """The rank test's p-value before the rank-sum test replaced it: the share
    of all n! pairings of the two rank vectors whose |Spearman cross product|
    reaches the observed one."""
    n = len(values)
    xc = np.array(_doubled_centred_ranks(list(values)), dtype=np.int64)
    yc = np.array(_doubled_centred_ranks(list(flags)), dtype=np.int64)
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int8, count=math.factorial(n) * n).reshape(-1, n)
    cross = np.abs(yc[perms] @ xc)
    return np.count_nonzero(cross >= abs(int(yc @ xc))) / cross.shape[0]


def _tie_heavy_case(rng, n):
    values = rng.integers(0, int(rng.integers(2, n + 1)), size=n).astype(float)
    flags = rng.integers(0, 2, size=n)
    return values, flags


def test_rank_sum_exact_p_equals_permutation_count():
    # 102 tie-heavy cases; at n = 9 the count runs over 362,880 pairings
    sizes = [3, 4, 5, 6, 7, 8] * 16 + [9] * 6
    rng = np.random.default_rng(94)
    checked = 0
    while checked < len(sizes):
        n = sizes[checked]
        values, flags = _tie_heavy_case(rng, n)
        if np.all(values == values[0]) or np.all(flags == flags[0]):
            continue
        res = rank_sum(values, flags)
        assert res.notes == {"n": n, "n_flagged": int(flags.sum()),
                             "method": "exact_permutation"}
        assert res.p_value == _permutation_p(values, flags), (values, flags)
        checked += 1


def test_rank_sum_statistic_equals_brute_force_pair_count():
    rng = np.random.default_rng(95)
    checked = 0
    while checked < 60:
        values, flags = _tie_heavy_case(rng, int(rng.integers(3, 30)))
        if np.all(values == values[0]) or np.all(flags == flags[0]):
            continue
        flagged = values[flags == 1].tolist()
        unflagged = values[flags == 0].tolist()
        u = sum(Fraction(int(a > b) + int(a >= b), 2)
                for a in flagged for b in unflagged)
        pairs = len(flagged) * len(unflagged)
        res = rank_sum(values, flags)
        # r = 2U / (n1 * n0) - 1, correctly rounded from the exact count
        assert res.statistic == float(2 * u / pairs - 1), (values, flags)
        checked += 1


def test_rank_sum_normal_tail_matches_hand_worked_example_with_ties():
    values = [1, 2, 2, 3, 3, 3, 4, 5, 5, 6]
    flags = [0, 0, 1, 0, 1, 1, 0, 1, 1, 1]
    res = rank_sum(values, flags)
    # ranks 1, 2.5, 2.5, 5, 5, 5, 7, 8.5, 8.5, 10: the flagged rows' sum is
    # 39.5, so U = 39.5 - 6 * 7 / 2 = 18.5 of n1 * n0 = 24 pairs; ties of
    # sizes 2, 3 and 2 give var(U) = 24 / 12 * (11 - (6 + 24 + 6) / 90) = 21.2
    z = (18.5 - 12.0) / math.sqrt(21.2)
    assert res.test == "rank_sum"
    assert res.statistic == 13 / 24
    assert res.notes["method"] == "normal_approximation"
    assert (res.notes["n"], res.notes["n_flagged"]) == (10, 6)
    assert math.isclose(res.notes["z"], z, rel_tol=1e-12)
    assert math.isclose(res.p_value, math.erfc(z / math.sqrt(2.0)), rel_tol=1e-12)
    # errors at smaller values turn the sign and keep the p-value
    mirrored = rank_sum([-v for v in values], flags)
    assert mirrored.statistic == -13 / 24
    assert mirrored.p_value == res.p_value


def test_rank_sum_errors_name_the_constant_input():
    with pytest.raises(ConstantInput, match="^values") as exc:
        rank_sum([1.0, 1.0, 1.0], [0, 1, 1])
    assert exc.value.which == "values"
    with pytest.raises(ConstantInput, match="^flags") as exc:
        rank_sum([1.0, 2.0, 3.0], [1, 1, 1])
    assert exc.value.which == "flags"
    with pytest.raises(DataError):
        rank_sum([1.0, 2.0, 3.0], [0, 1])
    with pytest.raises(DataError):
        rank_sum([1.0, 2.0, 3.0], [0, 1, 2])
    with pytest.raises(DataError):
        rank_sum([1.0, math.nan, 3.0], [0, 1, 1])


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
    report = build_bias_report(labels, scores >= 0.5, demo, "sex")
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
    report = build_bias_report(labels, scores >= 0.5, demo, "ethnicity")
    assert set(report.groups) == {"unknown", "x", "y"}
    assert report.groups["unknown"]["n"] == 2


def test_bias_report_fisher_fallback_on_small_groups():
    labels = np.zeros(12, dtype=int)
    scores = np.zeros(12)
    scores[0] = 0.9
    demo = {"site": ["a"] * 6 + ["b"] * 6}
    report = build_bias_report(labels, scores >= 0.5, demo, "site")
    mis = [c for c in report.comparisons if c["rate"] == "misclassification"]
    assert mis[0]["method"] == "fisher_exact"
    assert mis[0]["result"]["test"] == "fisher_exact"


def test_bias_report_binned_continuous_column():
    rng = np.random.default_rng(93)
    n = 120
    labels = rng.integers(0, 2, size=n)
    scores = rng.random(n)
    age = list(np.linspace(40.0, 80.0, n - 2)) + [39.0, None]
    report = build_bias_report(labels, scores >= 0.5, {"age": age}, "age",
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


def test_bias_rank_note_names_the_constant_input():
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    scores = np.array([0.9, 0.1, 0.2, 0.8, 0.7, 0.3, 0.1, 0.9])
    same_age = build_bias_report(labels, scores >= 0.5, {"age": [50.0] * 8}, "age",
                                 bin_edges=[40, 60])
    assert same_age.rank_association == {
        rt: {"note": "column 'age' is constant"} for rt in RATE_TYPES}
    # every row right: the error indicator is constant, the ages are not
    ages = {"age": [41.0 + i for i in range(8)]}
    no_errors = build_bias_report(labels, labels, ages, "age", bin_edges=[40, 60])
    assert no_errors.rank_association == {
        rt: {"note": "error indicator is constant"} for rt in RATE_TYPES}


def test_bias_report_bin_validation_and_errors():
    labels = np.array([0, 1, 0, 1])
    scores = np.array([0.1, 0.9, 0.2, 0.8])
    demo = {"age": [41.0, 42.0, 43.0, 44.0]}
    with pytest.raises(DataError):
        build_bias_report(labels, scores >= 0.5, demo, "age", bin_edges=[60, 40])
    with pytest.raises(DataError):
        build_bias_report(labels, scores >= 0.5, demo, "age", bin_edges=[40])
    with pytest.raises(EmptySubgroup):
        build_bias_report(labels, scores >= 0.5, demo, "age",
                          bin_edges=[40, 50, 60])
    with pytest.raises(UnknownColumn):
        build_bias_report(labels, scores >= 0.5, demo, "height")
    with pytest.raises(DataError):
        build_bias_report(labels, scores >= 0.5, {"age": [1.0]}, "age",
                          bin_edges=[0, 2])
    # a score in place of a decision is not read as one
    with pytest.raises(DataError, match="predicted must be 0 or 1"):
        build_bias_report(labels, scores, demo, "age", bin_edges=[40, 50])


def test_bias_report_rejects_nan_edges_and_text_values_when_binned():
    labels = np.array([0, 1, 0, 1])
    scores = np.array([0.1, 0.9, 0.2, 0.8])
    demo = {"age": [41.0, 42.0, 43.0, 44.0]}
    for edges in ([35, math.nan, 86], [math.nan, 50], [35, math.nan],
                  [35, 50, math.nan, 86]):
        with pytest.raises(DataError, match="strictly increasing") as info:
            build_bias_report(labels, scores >= 0.5, demo, "age", bin_edges=edges)
        assert type(info.value) is DataError, edges
    report = build_bias_report(labels, scores >= 0.5, demo, "age",
                               bin_edges=[-math.inf, 42.5, math.inf])
    assert [g["n"] for g in report.groups.values()] == [2, 2]
    with pytest.raises(DataError, match="not numeric"):
        build_bias_report(labels, scores >= 0.5,
                          {"ethnicity": ["a", "b", "a", None]}, "ethnicity",
                          bin_edges=[1, 2])
