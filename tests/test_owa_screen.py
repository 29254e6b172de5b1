"""The screened OWA bisection against the one it replays, weight for weight.

``bisected_weights`` is the solver as it was before the screen: every
bisection step evaluates the degree of optimism with numpy. The screen
decides most steps from a float evaluation instead, so every weight
vector must come out with the same bits.
"""

import numpy as np
import pytest

from beliefdecision.ignorance import max_entropy_owa_weights

BETAS = sorted({k / 32 for k in range(1, 32)} - {0.5}
               | {1e-3, 0.01, 0.1, 1 / 3, 2 / 3, 0.9, 0.99, 0.999, 1e-6, 1 - 1e-6})


def bisected_weights(s, beta):
    q = np.array([(s - i) / (s - 1) for i in range(1, s + 1)])

    def optimism(lam):
        z = lam * q
        z -= z.max()
        w = np.exp(z)
        w /= w.sum()
        return float(w @ q)

    lo, hi = -200.0, 200.0
    while optimism(lo) > beta:
        lo *= 2.0
    while optimism(hi) < beta:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if optimism(mid) < beta:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    lam = 0.5 * (lo + hi)
    z = lam * q
    z -= z.max()
    w = np.exp(z)
    w /= w.sum()
    return tuple(float(v) for v in w)


@pytest.mark.parametrize("s", [*range(2, 25), 40, 64])
def test_same_weights_as_the_plain_bisection(s):
    for beta in BETAS:
        assert max_entropy_owa_weights(s, beta).w == bisected_weights(s, beta), beta
