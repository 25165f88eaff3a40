"""Independent naive reference for the 11 time-domain features.

Pure-python loops, math.fsum and an exact mean, written separately from the
library so the two paths share no code. Order matches the canonical feature
order.
"""

import math
from fractions import Fraction

LOG_EPS = 1e-12


def naive_features(xs):
    xs = [float(v) for v in xs]
    n = len(xs)
    assert n >= 2

    iav = math.fsum(abs(v) for v in xs)
    mav = iav / n

    def w1(i):
        return 1.0 if 0.25 * n <= i <= 0.75 * n else 0.5

    def w2(i):
        if 0.25 * n <= i <= 0.75 * n:
            return 1.0
        if i < 0.25 * n:
            return 4.0 * i / n
        return 4.0 * (i - n) / n

    mmav1 = math.fsum(w1(i) * abs(v) for i, v in enumerate(xs, start=1)) / n
    mmav2 = math.fsum(w2(i) * abs(v) for i, v in enumerate(xs, start=1)) / n
    ssi = math.fsum(v * v for v in xs)
    # deviations from the exact mean: a rounded mean would make the central
    # moments of a window whose samples differ by a few ulps rounding noise
    mu = sum(map(Fraction, xs)) / n
    dev = [float(Fraction(v) - mu) for v in xs]
    var = math.fsum(d * d for d in dev) / (n - 1)
    rms = math.sqrt(ssi / n)
    wl = math.fsum(abs(b - a) for a, b in zip(xs, xs[1:]))
    log = math.fsum(math.log10(max(abs(v), LOG_EPS)) for v in xs) / n
    m2 = math.fsum(d * d for d in dev) / n
    m3 = math.fsum(d ** 3 for d in dev) / n
    m4 = math.fsum(d ** 4 for d in dev) / n
    skew = m3 / m2**1.5
    kurt = m4 / var**2
    return [iav, mav, mmav1, mmav2, ssi, var, rms, wl, log, skew, kurt]
