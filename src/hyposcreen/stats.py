"""Subgroup bias statistics.

Implements the comparison tests directly (no stats dependency): pooled
two-proportion z-test, log-space Fisher exact test, Spearman rank correlation
exact over every rank permutation up to n = 9, chi-square homogeneity with its
exact upper tail at integer degrees of freedom, and 95% Wald rate intervals.
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
    TooShort,
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


# --- Spearman rank correlation ---------------------------------------------------

def average_ranks(values) -> np.ndarray:
    """1-based ranks, ties sharing their average rank."""
    _, group, counts = np.unique(np.asarray(values, dtype=float),
                                 return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts - 1) / 2.0 + 1.0)[group]


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(np.dot(xc, xc)) * float(np.dot(yc, yc)))
    return float(np.dot(xc, yc)) / denom


def _t_sf(t: float, df: float) -> float:
    """Student-t one-sided survival probability via the incomplete beta."""
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    p = 0.5 * _betai(df / 2.0, 0.5, x)
    return p if t >= 0 else 1.0 - p


def _betai(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    bt = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                  + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


BETACF_TOL = 3e-16
BETACF_MAX_ITER = 300


def _betacf(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < BETACF_TOL:
            break
    return h


EXACT_PERMUTATION_LIMIT = 9


def _exact_permutation_p(rx: np.ndarray, ry: np.ndarray) -> float:
    """Share of all n! pairings of the ranks whose |rho| reaches the observed.

    Doubled average ranks are integers and keep their sum under permutation,
    so each pairing's centred cross product is an exact integer and a pairing
    tied with the observed one counts exactly.
    """
    n = rx.shape[0]
    xc = (2.0 * rx - (n + 1)).astype(np.int64)
    yc = (2.0 * ry - (n + 1)).astype(np.int64)
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int8, count=math.factorial(n) * n).reshape(-1, n)
    cross = np.abs(yc[perms] @ xc)
    return np.count_nonzero(cross >= abs(int(yc @ xc))) / cross.shape[0]


def spearman(x, y) -> TestResult:
    """Spearman rho on average ranks.

    p-value: exact enumeration of every rank permutation for n <= 9, the
    t-approximation from n = 10.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise DataError("x and y differ in length")
    n = x.shape[0]
    if n < 3:
        raise TooShort(n, 3)
    if np.all(x == x[0]):
        raise ConstantInput("x")
    if np.all(y == y[0]):
        raise ConstantInput("y")
    rx = average_ranks(x)
    ry = average_ranks(y)
    rho = _pearson(rx, ry)
    notes: dict = {"n": n}
    if n > EXACT_PERMUTATION_LIMIT:
        if abs(rho) >= 1.0:
            p = 0.0
        else:
            t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
            p = 2.0 * _t_sf(abs(t), n - 2)
        notes["method"] = "t_approximation"
    else:
        p = _exact_permutation_p(rx, ry)
        notes["method"] = "exact_permutation"
    return TestResult(test="spearman", statistic=float(rho),
                      p_value=float(min(p, 1.0)), notes=notes)


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


def _error_indicators(labels: np.ndarray, predicted: np.ndarray):
    """Row mask and error flag per rate type."""
    mis = predicted != labels
    return {
        "misclassification": (np.ones_like(labels, dtype=bool), mis),
        "underdiagnosis": (labels == 1, predicted == 0),
        "overdiagnosis": (labels == 0, predicted == 1),
    }


def _bin_label(lo, hi, last: bool) -> str:
    return f"[{lo:g}, {hi:g}{']' if last else ')'}"


def build_bias_report(labels, scores, demographics: dict, group: str,
                      threshold: float, bin_edges=None) -> BiasReport:
    """Subgroup error rates with CIs, pairwise tests, and homogeneity checks.

    Categorical columns are grouped by value; continuous columns require
    ``bin_edges``.  Pairwise comparisons use the z-test and fall back to the
    Fisher exact test whenever the CLT preconditions fail.  Continuous
    columns also get a Spearman association between the raw value and each
    error indicator.
    """
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=float)
    if labels.shape[0] != scores.shape[0]:
        raise DataError("labels and scores differ in length")
    if group not in demographics:
        raise UnknownColumn(group)
    values = demographics[group]
    if len(values) != labels.shape[0]:
        raise DataError(f"column {group!r} has wrong length")
    predicted = (scores >= threshold).astype(np.int64)
    continuous = bin_edges is not None

    notes: dict = {}
    if continuous:
        edges = [float(e) for e in bin_edges]
        if len(edges) < 2 or not all(b > a for a, b in zip(edges, edges[1:])):
            raise DataError("bin_edges must be strictly increasing, length >= 2")
        try:
            numeric = np.array([math.nan if v is None else float(v) for v in values])
        except ValueError:
            raise DataError(f"column {group!r} is not numeric; bin_edges need a "
                            f"continuous column") from None
        assignment = np.full(labels.shape[0], -1)
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            last = i == len(edges) - 2
            in_bin = (numeric >= lo) & ((numeric <= hi) if last else (numeric < hi))
            assignment[in_bin] = i
        out_of_range = int(np.sum((assignment < 0) & ~np.isnan(numeric)))
        missing = int(np.sum(np.isnan(numeric)))
        if out_of_range:
            notes["out_of_range_rows"] = out_of_range
        if missing:
            notes["missing_value_rows"] = missing
        group_labels = [_bin_label(lo, hi, i == len(edges) - 2)
                        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))]
        for i, name in enumerate(group_labels):
            if not np.any(assignment == i):
                raise EmptySubgroup(name)
        membership = {name: assignment == i for i, name in enumerate(group_labels)}
    else:
        norm = ["unknown" if v is None else str(v) for v in values]
        group_labels = sorted(set(norm))
        membership = {name: np.array([v == name for v in norm])
                      for name in group_labels}

    indicators = _error_indicators(labels, predicted)
    groups_out: dict = {}
    rate_counts: dict = {rt: {} for rt in RATE_TYPES}
    for name in group_labels:
        mask = membership[name]
        entry: dict = {"n": int(np.sum(mask)), "rates": {}}
        for rt in RATE_TYPES:
            applicable, err = indicators[rt]
            denom = int(np.sum(mask & applicable))
            events = int(np.sum(mask & applicable & err))
            rate_counts[rt][name] = (events, denom)
            if denom == 0:
                entry["rates"][rt] = None
                continue
            ci = normal_approx_ci(events, denom)
            entry["rates"][rt] = {"events": events, "n": denom,
                                  **ci.to_dict()}
        groups_out[name] = entry

    comparisons = []
    for rt in RATE_TYPES:
        usable = [g for g in group_labels if rate_counts[rt][g][1] > 0]
        for g1, g2 in itertools.combinations(usable, 2):
            e1, n1 = rate_counts[rt][g1]
            e2, n2 = rate_counts[rt][g2]
            record = {"rate": rt, "groups": [g1, g2]}
            try:
                res = z_two_proportions(e1, n1, e2, n2)
                needs_fallback = not res.preconditions_met
            except ZeroPooledVariance:
                res = None
                needs_fallback = True
            if needs_fallback:
                fisher = fisher_exact(e1, n1 - e1, e2, n2 - e2)
                record["method"] = "fisher_exact"
                record["result"] = fisher.to_dict()
                if res is not None:
                    record["z_test"] = res.to_dict()
            else:
                record["method"] = "z_two_proportions"
                record["result"] = res.to_dict()
            comparisons.append(record)

    homogeneity = {}
    for rt in RATE_TYPES:
        usable = [g for g in group_labels if rate_counts[rt][g][1] > 0]
        if len(usable) < 2:
            homogeneity[rt] = {"note": "fewer than two usable groups"}
            continue
        table = [[rate_counts[rt][g][0],
                  rate_counts[rt][g][1] - rate_counts[rt][g][0]]
                 for g in usable]
        try:
            homogeneity[rt] = chi_square(table).to_dict()
        except ZeroExpectedCell:
            homogeneity[rt] = {"note": "a margin of the error table is zero"}

    rank_association = {}
    if continuous:
        for rt in RATE_TYPES:
            applicable, err = indicators[rt]
            rows = applicable & ~np.isnan(numeric)
            if int(np.sum(rows)) < 3:
                rank_association[rt] = {"note": "too few rows"}
                continue
            try:
                res = spearman(numeric[rows], err[rows].astype(float))
                rank_association[rt] = res.to_dict()
            except ConstantInput:
                rank_association[rt] = {"note": "error indicator is constant"}

    return BiasReport(group_column=group,
                      group_kind="binned" if continuous else "categorical",
                      groups=groups_out, comparisons=comparisons,
                      homogeneity=homogeneity,
                      rank_association=rank_association, notes=notes)
