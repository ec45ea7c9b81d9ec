"""Subgroup bias statistics.

Implements the comparison tests directly (no stats dependency): pooled
two-proportion z-test, log-space Fisher exact test, the Mann-Whitney rank-sum
test (exact over every placement of the flags up to n = 9, its tie-corrected
normal tail above), chi-square homogeneity with its exact upper tail at
integer degrees of freedom, and 95% Wald rate intervals.

:func:`build_bias_report` takes each row's 0/1 decision as given, so the
threshold that made it is the caller's; a row is an error where its
decision differs from its label.  It makes one pass per rate type: it
counts each subgroup's rows and errors once, then fills that rate's group
entries, its pairwise comparisons, its homogeneity test and, for a binned
column, its rank-sum test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ConstantInput,
    DataError,
    DegenerateMargins,
    EmptySubgroup,
    UnknownColumn,
    ZeroExpectedCell,
    ZeroPooledVariance,
)

RELATIVE_TIE_SLACK = 1e-12


@dataclass
class TestResult:
    test: str
    statistic: float
    p_value: float
    preconditions_met: bool = True
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        stat = self.statistic
        if stat is not None and math.isnan(stat):
            stat = None
        elif stat is not None and math.isinf(stat):
            stat = "inf" if stat > 0 else "-inf"
        return {"test": self.test, "statistic": stat,
                "p_value": self.p_value,
                "preconditions_met": self.preconditions_met,
                "notes": self.notes}


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# --- two-proportion z-test -----------------------------------------------------

def z_two_proportions(x1: float, n1: float, x2: float, n2: float) -> TestResult:
    """Pooled two-proportion z-test from event counts.

    The usual CLT preconditions (pooled expected events and non-events of at
    least 5 in each sample) are reported as a flag, not enforced.
    """
    if n1 <= 0 or n2 <= 0:
        raise DataError("sample sizes must be positive")
    if not 0 <= x1 <= n1 or not 0 <= x2 <= n2:
        raise DataError("event counts must lie in [0, n]")
    p1, p2 = x1 / n1, x2 / n2
    pooled = (x1 + x2) / (n1 + n2)
    if pooled in (0.0, 1.0):
        raise ZeroPooledVariance(pooled)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    z = (p1 - p2) / se
    p_value = 2.0 * _norm_sf(abs(z))
    ok = all(v >= 5.0 for v in (n1 * pooled, n1 * (1 - pooled),
                                n2 * pooled, n2 * (1 - pooled)))
    return TestResult(test="z_two_proportions", statistic=float(z),
                      p_value=float(p_value), preconditions_met=ok,
                      notes={"p1": p1, "p2": p2, "pooled": pooled})


# --- Fisher exact test -----------------------------------------------------------

def fisher_exact(a: int, b: int, c: int, d: int) -> TestResult:
    """Two-sided Fisher exact test of the 2x2 table [[a, b], [c, d]].

    Rows are the two groups (events, non-events).  The statistic is the odds
    of the second row relative to the first, (c/d) / (a/b); the two-sided p
    sums every hypergeometric table whose probability does not exceed the
    observed one (within 1e-12 relative slack).
    """
    cells = (a, b, c, d)
    if any(int(v) != v or v < 0 for v in cells):
        raise DataError("table cells must be non-negative integers")
    a, b, c, d = (int(v) for v in cells)
    r1, r2 = a + b, c + d
    if r1 == 0 or r2 == 0:
        raise DegenerateMargins()
    c1, c2 = a + c, b + d
    notes: dict = {"table": [[a, b], [c, d]]}
    if a * d == 0 and c * b == 0:
        odds = float("nan")
        notes["odds_ratio_degenerate"] = True
    elif a * d == 0:
        odds = float("inf")
    else:
        odds = (c * b) / (a * d)
    if c1 == 0 or c2 == 0:
        # only one table is consistent with the margins
        return TestResult(test="fisher_exact", statistic=odds, p_value=1.0,
                          notes=notes)

    n = r1 + r2
    log_denom = (math.lgamma(n + 1) - math.lgamma(c1 + 1)
                 - math.lgamma(n - c1 + 1))

    def log_prob(k: int) -> float:
        return (math.lgamma(r1 + 1) - math.lgamma(k + 1)
                - math.lgamma(r1 - k + 1)
                + math.lgamma(r2 + 1) - math.lgamma(c1 - k + 1)
                - math.lgamma(r2 - (c1 - k) + 1) - log_denom)

    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    lp_obs = log_prob(a)
    cutoff = lp_obs + math.log1p(RELATIVE_TIE_SLACK)
    p = 0.0
    for k in range(lo, hi + 1):
        lp = log_prob(k)
        if lp <= cutoff:
            p += math.exp(lp)
    return TestResult(test="fisher_exact", statistic=odds,
                      p_value=float(min(p, 1.0)), notes=notes)


# --- chi-square homogeneity -------------------------------------------------------

def _chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution at an integer ``df``.

    The tail is the regularized upper incomplete gamma Q(df/2, x/2), and
    Q(a + 1, y) = Q(a, y) + y^a e^-y / gamma(a + 1), so from
    Q(1/2, y) = erfc(sqrt(y)) (odd ``df``) or Q(0, y) = 0 (even ``df``) it is
    a finite sum of positive terms, each taken in log space.
    """
    y = x / 2.0
    if y == 0.0:
        return 1.0
    k = 0.5 if df % 2 else 0.0
    p = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    while k < df / 2.0:
        p += math.exp(k * math.log(y) - y - math.lgamma(k + 1.0))
        k += 1.0
    return p


def chi_square(observed) -> TestResult:
    """Pearson chi-square homogeneity test on an r x c count table."""
    O = np.asarray(observed, dtype=float)
    if O.ndim != 2 or O.shape[0] < 2 or O.shape[1] < 2:
        raise DataError("need a table with at least 2 rows and 2 columns")
    if np.any(O < 0):
        raise DataError("counts must be non-negative")
    row = O.sum(axis=1)
    col = O.sum(axis=0)
    total = O.sum()
    if total == 0:
        raise DegenerateMargins()
    E = np.outer(row, col) / total
    zero = np.argwhere(E == 0.0)
    if zero.size:
        raise ZeroExpectedCell(int(zero[0][0]), int(zero[0][1]))
    stat = float(np.sum((O - E) ** 2 / E))
    df = (O.shape[0] - 1) * (O.shape[1] - 1)
    p = _chi2_sf(stat, df)
    ok = bool(np.all(E >= 5.0))
    return TestResult(test="chi_square", statistic=stat, p_value=float(p),
                      preconditions_met=ok, notes={"df": df})


# --- rank-sum test -------------------------------------------------------------

def average_ranks(values) -> np.ndarray:
    """1-based ranks, ties sharing their average rank."""
    _, group, counts = np.unique(np.asarray(values, dtype=float),
                                 return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts - 1) / 2.0 + 1.0)[group]


EXACT_PERMUTATION_LIMIT = 9


def rank_sum(values, flags) -> TestResult:
    """Mann-Whitney rank-sum test of whether flagged rows sit at other values.

    The statistic is the rank-biserial correlation r = 2U / (n1 * n0) - 1,
    where U counts the (flagged, unflagged) pairs whose flagged value is the
    larger, ties counting 1/2; r > 0 when flagged rows sit at larger values.
    On doubled centred average ranks c = 2 * rank - (n + 1), which are
    integers summing to 0, the flagged rows' sum T equals r * n1 * n0.

    p-value: up to n = 9, the exact share of the C(n, n1) placements of the
    flags whose |T| reaches the observed one; from n = 10, the tie-corrected
    normal tail, z = T / sqrt(n1 * n0 * sum(c^2) / (n * (n - 1))), with no
    continuity correction.
    """
    values = np.asarray(values, dtype=float)
    flags = np.asarray(flags)
    if values.shape != flags.shape or values.ndim != 1:
        raise DataError("values and flags must be 1-D and of equal length")
    if np.any(np.isnan(values)):
        raise DataError("values must not be NaN")
    if np.any((flags != 0) & (flags != 1)):
        raise DataError("flags must be 0 or 1")
    if np.unique(values).size < 2:
        raise ConstantInput("values")
    flags = flags.astype(bool)
    n, n1 = flags.size, int(np.count_nonzero(flags))
    if n1 in (0, n):
        raise ConstantInput("flags")
    n0 = n - n1
    c = (2.0 * average_ranks(values) - (n + 1)).astype(np.int64)
    t = int(c[flags].sum())
    notes: dict = {"n": n, "n_flagged": n1}
    if n > EXACT_PERMUTATION_LIMIT:
        z = t / math.sqrt(n1 * n0 * int(c @ c) / (n * (n - 1)))
        p = 2.0 * _norm_sf(abs(z))
        notes.update(method="normal_approximation", z=z)
    else:
        placements = np.array(list(itertools.combinations(range(n), n1)))
        sums = np.abs(c[placements].sum(axis=1))
        p = np.count_nonzero(sums >= abs(t)) / placements.shape[0]
        notes["method"] = "exact_permutation"
    return TestResult(test="rank_sum", statistic=t / (n1 * n0), p_value=float(p),
                      notes=notes)


# --- rate confidence interval -------------------------------------------------------

@dataclass
class RateCI:
    point: float
    lo: float
    hi: float
    half_width: float
    preconditions_met: bool

    def to_dict(self) -> dict:
        return asdict(self)


WALD_Z = 1.96  # the 95% level, by reporting convention


def normal_approx_ci(event_count: float, n: float) -> RateCI:
    """95% Wald interval p +- 1.96 * sqrt(p(1-p)/n).

    The interval is reported as computed: it can poke outside [0, 1] near
    the boundaries.
    """
    if n <= 0:
        raise DataError("n must be positive")
    if not 0 <= event_count <= n:
        raise DataError("event count must lie in [0, n]")
    p = event_count / n
    half = WALD_Z * math.sqrt(p * (1.0 - p) / n)
    ok = (n * p >= 5.0) and (n * (1.0 - p) >= 5.0)
    return RateCI(point=float(p), lo=float(p - half), hi=float(p + half),
                  half_width=float(half), preconditions_met=ok)


# --- bias report ----------------------------------------------------------------------

RATE_TYPES = ("misclassification", "underdiagnosis", "overdiagnosis")


@dataclass
class BiasReport:
    group_column: str
    group_kind: str  # "categorical" or "binned"
    groups: dict
    comparisons: list
    homogeneity: dict
    rank_association: dict
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _subgroups(values, group: str, bin_edges):
    """The subgroup names in report order, a row mask for each, the numeric
    column (``None`` for a categorical one) and the report notes.

    A categorical column groups by value, a missing one as ``"unknown"``.
    A binned column counts its rows outside every bin and its missing
    values in the notes, and a bin with no row raises :class:`EmptySubgroup`.
    """
    if bin_edges is None:
        norm = ["unknown" if v is None else str(v) for v in values]
        names = sorted(set(norm))
        return names, [np.array([v == name for v in norm]) for name in names], None, {}
    edges = [float(e) for e in bin_edges]
    if len(edges) < 2 or not all(b > a for a, b in zip(edges, edges[1:])):
        raise DataError("bin_edges must be strictly increasing, length >= 2")
    try:
        numeric = np.array([math.nan if v is None else float(v) for v in values])
    except ValueError:
        raise DataError(f"column {group!r} is not numeric; bin_edges need a "
                        f"continuous column") from None
    last = len(edges) - 2  # the last bin is closed on the right
    names, masks = [], []
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        names.append(f"[{lo:g}, {hi:g}{']' if i == last else ')'}")
        masks.append((numeric >= lo) & ((numeric <= hi) if i == last else (numeric < hi)))
    missing = int(np.sum(np.isnan(numeric)))
    # the bins are disjoint and hold no NaN
    out_of_range = numeric.shape[0] - missing - sum(int(np.sum(m)) for m in masks)
    notes = {}
    if out_of_range:
        notes["out_of_range_rows"] = out_of_range
    if missing:
        notes["missing_value_rows"] = missing
    for name, mask in zip(names, masks):
        if not np.any(mask):
            raise EmptySubgroup(name)
    return names, masks, numeric, notes


def _compare(e1: int, n1: int, e2: int, n2: int) -> dict:
    """The method and result of one pairwise rate comparison: the z-test,
    or the Fisher exact test wherever the z-test's CLT preconditions fail
    or the pooled rate is 0 or 1.  A z-test that ran but fell back is kept
    as ``z_test``."""
    try:
        z = z_two_proportions(e1, n1, e2, n2)
    except ZeroPooledVariance:
        z = None
    if z is not None and z.preconditions_met:
        return {"method": "z_two_proportions", "result": z.to_dict()}
    record = {"method": "fisher_exact",
              "result": fisher_exact(e1, n1 - e1, e2, n2 - e2).to_dict()}
    if z is not None:
        record["z_test"] = z.to_dict()
    return record


def build_bias_report(labels, predicted, demographics: dict, group: str,
                      bin_edges=None) -> BiasReport:
    """Subgroup error rates with CIs, pairwise tests, and homogeneity checks.

    A row is an error where its 0/1 decision in ``predicted`` differs from
    its label.  Categorical columns are grouped by value; continuous columns
    require ``bin_edges``.  One pass per rate type counts each subgroup's
    rows and errors once and fills that rate's group entries, its pairwise
    comparisons (see :func:`_compare`), its chi-square homogeneity entry
    and, for a binned column, its rank-sum test of the error indicator
    against the raw value.
    """
    labels = np.asarray(labels, dtype=np.int64)
    predicted = np.asarray(predicted)
    if labels.shape[0] != predicted.shape[0]:
        raise DataError("labels and predicted differ in length")
    if np.any((predicted != 0) & (predicted != 1)):
        raise DataError("predicted must be 0 or 1")
    if group not in demographics:
        raise UnknownColumn(group)
    values = demographics[group]
    if len(values) != labels.shape[0]:
        raise DataError(f"column {group!r} has wrong length")
    # a row's error indicator is the same for every rate that counts the row:
    # underdiagnosis counts the cases (label 1), overdiagnosis the controls
    wrong = predicted != labels
    names, masks, numeric, notes = _subgroups(values, group, bin_edges)
    groups = {name: {"n": int(np.sum(mask)), "rates": {}}
              for name, mask in zip(names, masks)}
    comparisons, homogeneity, rank_association = [], {}, {}
    for rate, truth in zip(RATE_TYPES, (None, 1, 0)):
        rows = np.ones_like(wrong) if truth is None else labels == truth
        usable = []  # (name, events, n) of the groups the rate applies to
        for name, mask in zip(names, masks):
            n = int(np.sum(mask & rows))
            events = int(np.sum(mask & rows & wrong))
            if not n:
                groups[name]["rates"][rate] = None
                continue
            groups[name]["rates"][rate] = {"events": events, "n": n,
                                           **normal_approx_ci(events, n).to_dict()}
            usable.append((name, events, n))
        for (g1, e1, n1), (g2, e2, n2) in itertools.combinations(usable, 2):
            comparisons.append({"rate": rate, "groups": [g1, g2],
                                **_compare(e1, n1, e2, n2)})
        if len(usable) < 2:
            homogeneity[rate] = {"note": "fewer than two usable groups"}
        else:
            try:
                homogeneity[rate] = chi_square(
                    [[e, n - e] for _, e, n in usable]).to_dict()
            except ZeroExpectedCell:
                homogeneity[rate] = {"note": "a margin of the error table is zero"}
        if numeric is None:
            continue
        ranked = rows & ~np.isnan(numeric)
        if int(np.sum(ranked)) < 3:
            rank_association[rate] = {"note": "too few rows"}
            continue
        try:
            rank_association[rate] = rank_sum(numeric[ranked], wrong[ranked]).to_dict()
        except ConstantInput as exc:
            what = f"column {group!r}" if exc.which == "values" else "error indicator"
            rank_association[rate] = {"note": f"{what} is constant"}

    return BiasReport(group_column=group,
                      group_kind="categorical" if numeric is None else "binned",
                      groups=groups, comparisons=comparisons,
                      homogeneity=homogeneity,
                      rank_association=rank_association, notes=notes)
