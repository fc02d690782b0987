"""Whole-array reference grid tabulation, for tests only.

This is ``tabulate_cdf_grid``'s body as it stood before the table was
filled in row blocks: the density over the whole m x m square in one
expression, the four-corner mean over the whole square, then the two
cumulative sums over whole arrays.  The library's tabulation must return
the same bits for every correlation, spec and extent.
"""

from __future__ import annotations

import numpy as np

from levdiv import CdfGrid, GridSpec


def reference_tabulation(rho: float, spec: GridSpec, extent: int | None = None) -> CdfGrid:
    rho = float(rho)
    nodes = np.linspace(spec.z_min, spec.z_max, spec.cells_per_axis + 1)[:extent]
    omr2 = 1.0 - rho * rho
    z1 = nodes[:, None]
    z2 = nodes[None, :]
    g = np.exp(-(z1 * z1 - 2.0 * rho * z1 * z2 + z2 * z2) / (2.0 * omr2))
    g /= 2.0 * np.pi * np.sqrt(omr2)
    corner_mean = 0.25 * (g[:-1, :-1] + g[1:, :-1] + g[:-1, 1:] + g[1:, 1:])
    cdf = np.zeros((nodes.size,) * 2)
    volumes = cdf[1:, 1:]
    np.cumsum(corner_mean * spec.cell_width**2, axis=0, out=volumes)
    np.cumsum(volumes, axis=1, out=volumes)
    nodes.setflags(write=False)
    cdf.setflags(write=False)
    return CdfGrid(spec=spec, rho=rho, axis_coordinates=nodes, node_values=cdf)
