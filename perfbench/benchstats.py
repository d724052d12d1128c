"""Statistics helpers of the repository benchmark.

Timings are reported as medians, with a tail at the highest percentile that
has at least ten samples beyond it; with fewer than forty samples there is no
such tail, and the median stands in for it.
"""

import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10
MIN_SAMPLES_FOR_TAIL = 40


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def iqr_share(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, p):
    """Linear-interpolated percentile p (0..100) of the values."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile out of range: %r" % (p,))
    xs = sorted(values)
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest candidate percentile with at least ten of n samples beyond it.

    None when n < 40: the percentile the rule would give is no tail.
    """
    if n < MIN_SAMPLES_FOR_TAIL:
        return None
    for p in TAIL_PERCENTILES:
        # Tolerance for 100 - 99.9 not being exact in binary floating point.
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def tail(values, guaranteed_n):
    """The tail of `values` at the percentile the rule picks for the sample
    count every run guarantees (so the percentile does not move with speed);
    the median when that count allows no tail."""
    p = tail_percentile(guaranteed_n)
    if p is None:
        return median(values)
    if len(values) < guaranteed_n:
        raise ValueError("%d samples, %d guaranteed" % (len(values), guaranteed_n))
    return percentile(values, p)
