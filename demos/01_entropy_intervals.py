"""Exact robust intervals for the expected entropy.

With a set of Dirichlet priors (fixed strength s, prior mean anywhere on
the simplex) the posterior expected entropy is not a number but an
interval: the min and max over all prior means.  Both endpoints have
closed forms, demonstrated here on a small two-category sample and on a
few sharper contrasts.
"""

import numpy as np

from idmbounds import (
    CountVector,
    EntropyKernel,
    IdmConfig,
    entropy_interval_exact,
    entropy_interval_rational,
    entropy_summand,
    max_concave_sum,
    min_concave_sum,
    sigma_of,
)


def describe(counts, s=1.0):
    cv = CountVector(counts)
    cfg = IdmConfig(s)
    kernel = EntropyKernel(cv.total + cfg.s)
    f = entropy_summand(kernel)

    lo = min_concave_sum(cv, cfg, f)
    hi = max_concave_sum(cv, cfg, f)
    iv = entropy_interval_exact(cv, cfg)

    print(f"counts={counts}  s={s}  sigma={sigma_of(cv, cfg):.4f}")
    print(f"  lower extremum at vertex {lo.vertex_index}: u* = {np.round(lo.u_star, 4)}")
    where = f"vertex {hi.vertex_index}" if hi.vertex_index is not None else "interior"
    print(f"  upper extremum ({where}, leveled m={hi.m_star}): u* = {np.round(hi.u_star, 4)}")
    print(f"  expected entropy in [{iv.lower:.4f}, {iv.upper:.4f}]  (width {iv.width:.4f})")
    rational = entropy_interval_rational(cv, cfg)
    if rational is not None:
        print(f"  exact rational endpoints: {rational[0]} and {rational[1]}")
    print()


if __name__ == "__main__":
    # The classic worked example: 3 and 6 observations, s = 1.
    describe([3, 6])

    # A sharper contrast moves the feasible region toward a vertex.
    describe([1, 6])

    # No data at all: the interval spans everything the prior family allows.
    describe([0, 0, 0])

    # More data at the same ratios: the interval shrinks like s / (n + s).
    describe([30, 60])
