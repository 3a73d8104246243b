"""Descriptive summaries and paired nonparametric/parametric tests.

The tests are implemented directly (t CDF through the regularized
incomplete beta, signed-rank through the tie-corrected normal
approximation with continuity correction, normality through Royston's
1995 approximation of the Shapiro-Wilk W) so the suite can check them
against an independent reference implementation instead of re-exporting
one.

scipy.special is imported inside the two functions that need it, so
importing lungcover (and every command but cohort) loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    AllZeroDifferences,
    DegenerateVariance,
    EmptyInput,
    LengthMismatch,
    TooFewSamples,
    TooManySamples,
    ValidationError,
)

ALPHA = 0.05  # normality cutoff for the paired-test decision rule


def _as_finite_array(xs, name: str = "samples") -> np.ndarray:
    arr = np.asarray(xs, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyInput(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class DescriptiveSummary:
    n: int
    mean: float
    sd: float | None  # sample sd (n-1); None when n == 1
    min: float
    max: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class QuartileSummary:
    n: int
    median: float
    q1: float
    q3: float
    min: float
    max: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    p_value: float
    n: int
    df: int | None = None

    def as_dict(self) -> dict:
        d = {"name": self.name, "statistic": self.statistic,
             "p_value": self.p_value, "n": self.n}
        if self.df is not None:
            d["df"] = self.df
        return d


def describe(xs) -> DescriptiveSummary:
    """Mean, sample sd, min, max."""
    arr = _as_finite_array(xs)
    n = arr.size
    sd = float(arr.std(ddof=1)) if n > 1 else None
    return DescriptiveSummary(n=n, mean=float(arr.mean()), sd=sd,
                              min=float(arr.min()), max=float(arr.max()))


def describe_quartiles(xs) -> QuartileSummary:
    """Median and quartiles, linear interpolation at p*(n-1) (zero-based)."""
    arr = _as_finite_array(xs)
    q1, med, q3 = (float(v) for v in np.percentile(arr, [25.0, 50.0, 75.0], method="linear"))
    return QuartileSummary(n=arr.size, median=med, q1=q1, q3=q3,
                           min=float(arr.min()), max=float(arr.max()))


def _paired_diffs(xs, ys) -> np.ndarray:
    ax = _as_finite_array(xs, "xs")
    ay = _as_finite_array(ys, "ys")
    if ax.size != ay.size:
        raise LengthMismatch(f"paired samples differ in length: {ax.size} vs {ay.size}")
    return ax - ay


def paired_t_test(xs, ys) -> TestResult:
    """Two-sided dependent-samples t test.

    t = mean(d) / (sd(d)/sqrt(n)); p = I_x(df/2, 1/2) with
    x = df/(df + t^2), the regularized incomplete beta.
    """
    d = _paired_diffs(xs, ys)
    n = d.size
    if n < 2:
        raise TooFewSamples("paired t test needs at least 2 pairs")
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateVariance("paired differences have zero variance")
    t = float(d.mean()) / (sd / math.sqrt(n))
    df = n - 1
    from scipy.special import betainc  # deferred: keeps scipy out of import lungcover

    p = 1.0 if t == 0.0 else float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TestResult(name="paired_t", statistic=t, p_value=p, n=n, df=df)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg = (upper - counts + 1 + upper) / 2.0
    return avg[inverse]


def wilcoxon_signed_rank(xs, ys) -> TestResult:
    """Two-sided Wilcoxon signed-rank test, normal approximation.

    Zero differences are dropped; |d| ties share average ranks. The
    statistic is W = min(W+, W-); p uses the tie-corrected variance and
    a 0.5 continuity correction toward the mean.
    """
    d = _paired_diffs(xs, ys)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise AllZeroDifferences("all paired differences are zero")
    if n < 5:
        raise TooFewSamples("signed-rank needs at least 5 nonzero differences")
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    mn = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(np.abs(d), return_counts=True)
    var -= float((counts.astype(np.float64) ** 3 - counts).sum()) / 48.0
    z = (w - mn - 0.5 * np.sign(w - mn)) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))  # == 2 * normal_sf(|z|)
    return TestResult(name="wilcoxon", statistic=w, p_value=min(p, 1.0), n=n)


# Royston (1995) polynomial coefficients, ascending powers.
_SW_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_SMALL = (0.5440, -0.39978, 0.025054, -0.0006714)          # mu, 4 <= n <= 11
_SW_SMALL_S = (1.3822, -0.77857, 0.062767, -0.0020322)        # log sigma
_SW_BIG = (-1.5861, -0.31082, -0.083751, 0.0038915)           # mu, n >= 12 (in ln n)
_SW_BIG_S = (-0.4803, -0.082676, 0.0030302)                   # log sigma


def _poly(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _shapiro_coefficients(n: int) -> np.ndarray:
    """Weight vector a (antisymmetric, unit norm) for the W numerator."""
    from scipy.special import ndtri  # deferred: keeps scipy out of import lungcover

    m = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    summ2 = float((m * m).sum())
    rsn = 1.0 / math.sqrt(n)
    a = np.empty(n, dtype=np.float64)
    an = m[-1] / math.sqrt(summ2) + _poly(_SW_C1, rsn)
    if n > 5:
        an1 = m[-2] / math.sqrt(summ2) + _poly(_SW_C2, rsn)
        fac = math.sqrt((summ2 - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2)
                        / (1.0 - 2.0 * an ** 2 - 2.0 * an1 ** 2))
        a[2:-2] = m[2:-2] / fac
        a[-1], a[-2] = an, an1
        a[0], a[1] = -an, -an1
    else:
        fac = math.sqrt((summ2 - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * an ** 2))
        if n > 3:
            a[1:-1] = m[1:-1] / fac
        a[-1] = an
        a[0] = -an
    return a


def shapiro_wilk(xs) -> TestResult:
    """Shapiro-Wilk normality test, Royston's 1995 approximation (3<=n<=5000)."""
    arr = _as_finite_array(xs)
    n = arr.size
    if n < 3:
        raise TooFewSamples("Shapiro-Wilk needs at least 3 samples")
    if n > 5000:
        raise TooManySamples("Shapiro-Wilk approximation holds up to n = 5000")
    x = np.sort(arr)
    ssq = float(((x - x.mean()) ** 2).sum())
    if ssq == 0.0:
        raise DegenerateVariance("all samples identical")
    if n == 3:
        a = np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    else:
        a = _shapiro_coefficients(n)
    w = float((a * x).sum()) ** 2 / ssq
    w = min(w, 1.0)
    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
    else:
        one_minus = 1.0 - w
        if one_minus <= 0.0:
            p = 1.0
        elif n <= 11:
            g = -2.273 + 0.459 * n
            mu = _poly(_SW_SMALL, float(n))
            sigma = math.exp(_poly(_SW_SMALL_S, float(n)))
            y = -math.log(g - math.log(one_minus))
            p = 0.5 * math.erfc((y - mu) / (sigma * math.sqrt(2.0)))
        else:
            u = math.log(n)
            mu = _poly(_SW_BIG, u)
            sigma = math.exp(_poly(_SW_BIG_S, u))
            y = math.log(one_minus)
            p = 0.5 * math.erfc((y - mu) / (sigma * math.sqrt(2.0)))
    return TestResult(name="shapiro_wilk", statistic=w, p_value=p, n=n)


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of the paired-test decision rule."""

    chosen: str          # "paired_t" or "wilcoxon"
    result: TestResult
    normality: TestResult | None
    note: str

    def as_dict(self) -> dict:
        return {
            "chosen": self.chosen,
            "result": self.result.as_dict(),
            "normality": self.normality.as_dict() if self.normality else None,
            "note": self.note,
        }


def paired_compare(xs, ys) -> PairedComparison:
    """Paired test with a normality-driven choice of method.

    Shapiro-Wilk runs on the paired differences; p below the fixed
    cutoff ALPHA = 0.05 selects the signed-rank test, otherwise the
    paired t test. When a method's preconditions fail the other one
    runs instead and the note says so.
    Raises AllZeroDifferences when the samples are identical.
    """
    d = _paired_diffs(xs, ys)
    if not np.any(d != 0.0):
        raise AllZeroDifferences("samples are identical, nothing to compare")
    normality: TestResult | None = None
    try:
        normality = shapiro_wilk(d)
        prefer = "wilcoxon" if normality.p_value < ALPHA else "paired_t"
        note = (f"shapiro_wilk on differences: p={normality.p_value:.4g} "
                f"{'<' if normality.p_value < ALPHA else '>='} {ALPHA}")
    except DegenerateVariance:
        prefer = "wilcoxon"
        note = "differences have zero variance, treated as non-normal"
    except TooFewSamples:
        prefer = "paired_t"
        note = "too few differences for a normality test"
    runners = {"paired_t": paired_t_test, "wilcoxon": wilcoxon_signed_rank}
    order = [prefer] + [k for k in runners if k != prefer]
    first_error: Exception | None = None
    for name in order:
        try:
            result = runners[name](xs, ys)
        except (TooFewSamples, DegenerateVariance, AllZeroDifferences) as exc:
            if first_error is None:
                first_error = exc
            continue
        if name != prefer:
            note += f"; {prefer} not applicable ({first_error}), fell back to {name}"
        return PairedComparison(chosen=name, result=result, normality=normality, note=note)
    raise first_error  # type: ignore[misc]
