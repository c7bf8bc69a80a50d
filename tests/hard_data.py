"""Small competing-risks datasets of awkward shapes, for fits that must hold
on any data, not only on the caption parents.

:func:`hard_datasets` draws ``count`` datasets from one seed. Each has n
records, n from 3 to 60, whose times come from one of four families:

- a mixture of one to three exponentials, each with a scale between 1e-3
  and 1e3;
- a lognormal, with log-scale sd between 0.01 and 3;
- a Weibull of shape 0.2 to 5;
- a power u**k of a uniform u, with k between 0.01 and 10.

Narrow families (a small sd or power) give Weibull profiles whose maximum
lies at a lambda of 100 or more, where exp(lambda log t) leaves double
range once the times are rescaled by a few powers of 4. Failure modes are
drawn uniformly from the tie and the two risks. Half of the datasets are
Type-I censored: every record past a random quantile of its times is
censored at that time.
"""

import numpy as np

from bvf import CompetingRisksData

_FAMILIES = ("exponential-mixture", "lognormal", "weibull", "uniform-power")


def _times(rng, family, n):
    if family == "exponential-mixture":
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=rng.integers(1, 4))
        return rng.exponential(scales[rng.integers(0, scales.size, size=n)])
    if family == "lognormal":
        return rng.lognormal(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-2.0, np.log10(3.0)), n)
    if family == "weibull":
        return rng.weibull(rng.uniform(0.2, 5.0), n)
    return rng.uniform(size=n) ** 10.0 ** rng.uniform(-2.0, 1.0)


def hard_datasets(seed: int, count: int) -> list:
    """``count`` datasets drawn at ``seed``, as (family, CompetingRisksData)
    pairs; see the module docstring."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        family = _FAMILIES[rng.integers(0, len(_FAMILIES))]
        n = int(rng.integers(3, 61))
        t = _times(rng, family, n)
        delta = rng.integers(0, 3, size=n).astype(np.int8)
        if rng.uniform() < 0.5:
            c = np.quantile(t, rng.uniform(0.3, 1.0), method="inverted_cdf")
            delta[t >= c] = 3
            t = np.minimum(t, c)
        if not (np.isfinite(t).all() and (t > 0.0).all()):
            continue
        out.append((family, CompetingRisksData(t, delta)))
    return out
