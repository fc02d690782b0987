"""Reference grid tabulation, for tests only.

``reference_tabulation`` writes the diagonal table's rule with scipy alone:
Plackett's slope d/dz Phi2(z, z, rho) = 2 phi(z) Phi(c z), c = sqrt((1 -
rho) / (1 + rho)), at each node, with ``scipy.special.ndtr`` for Phi, and
its running integral from z_0 by ``scipy.integrate.cumulative_trapezoid``.
It shares no code with the library, and rounds in another order, so the
library's table must match it to a few ulps, not bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import ndtr

from levdiv import GridSpec


def reference_tabulation(rho: float, spec: GridSpec, extent: int | None = None) -> np.ndarray:
    """V(z_r) at the leading ``extent`` nodes (every node for None)."""
    nodes = np.linspace(spec.z_min, spec.z_max, spec.cells_per_axis + 1)[:extent]
    c = math.sqrt((1.0 - rho) / (1.0 + rho))
    slope = 2.0 * np.exp(-0.5 * nodes * nodes) / math.sqrt(2.0 * math.pi) * ndtr(c * nodes)
    return cumulative_trapezoid(slope, dx=spec.cell_width, initial=0.0)
