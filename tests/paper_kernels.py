"""The paper's double-integral kernels of S(2; 2) and S(2; 3), before the
change of variables u = t v.

S(2; q) = int int Li_{q-2}(w)/w log t log u dt du over the unit square,
with w = (1-t)(1-u). For q = 2 the kernel is singular at the corner
t = u = 0; the tests keep it as the oracle of eulersums'
double_integral_kernel and to reproduce what the tensor tanh-sinh rule
pays for that corner.
"""

import numpy as np


def raw_double_integral_kernel(q):
    """Li_{q-2}(w)/w log t log u for q = 2 or 3, with 1 - w written
    t (1-u) + u (q = 2) or t + u - t u (q = 3), free of cancellation."""
    if q == 2:  # Li_0(w)/w = 1/(1-w)
        return lambda t, u: np.log(t) * np.log(u) / (t * (1.0 - u) + u)
    if q == 3:  # Li_1(w)/w = -log(1-w)/w
        return lambda t, u: (
            -np.log(t + u - t * u) * np.log(t) * np.log(u) / ((1.0 - t) * (1.0 - u))
        )
    raise ValueError(f"the raw kernel is kept for q = 2 or 3, got {q}")
