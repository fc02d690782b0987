"""Whole-array reference grid tabulations, for tests only.

``reference_tabulation`` is the corner-mean fill as ``tabulate_cdf_grid``
had it before its table was filled in row blocks: the density over the
whole m x m square in one expression, the four-corner mean over the whole
square, then the two cumulative sums over whole arrays.  It sums the same
cell volumes as the library in another order, so it anchors the library's
accuracy.  ``trapezoid_tabulation`` is the library's own arithmetic over
whole arrays, which the library must match bit for bit.
"""

from __future__ import annotations

import math

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
    return CdfGrid(spec=spec, rho=rho, axis_coordinates=nodes, node_values=cdf, rows=np.arange(nodes.size))


def trapezoid_tabulation(rho: float, spec: GridSpec, extent: int | None = None) -> CdfGrid:
    """The library's arithmetic over whole arrays: the density without its
    normalising factor; its running sum Q down axis 0 from half the first
    row; the vertical trapezoid Q[i - 1] + Q[i] of each row i >= 1 (row 0
    is zero); pair sums along axis 1 and their running sum; then one scale.
    The library's tabulation must return the same bits for every
    correlation, spec, extent and set of kept rows."""
    rho = float(rho)
    nodes = np.linspace(spec.z_min, spec.z_max, spec.cells_per_axis + 1)[:extent]
    omr2 = (1.0 - rho) * (1.0 + rho)
    root_c = math.sqrt(0.5 / omr2)
    t = (root_c * nodes)[:, None] - root_c * rho * nodes
    g = np.exp(-0.5 * nodes * nodes - t * t)
    g[0] *= 0.5
    running = np.cumsum(g, axis=0)
    vertical = np.zeros_like(g)
    vertical[1:] = running[:-1] + running[1:]
    cdf = np.zeros_like(g)
    np.cumsum(vertical[:, :-1] + vertical[:, 1:], axis=1, out=cdf[:, 1:])
    cdf *= spec.cell_width**2 / (4.0 * 2.0 * math.pi * math.sqrt(omr2))
    nodes.setflags(write=False)
    cdf.setflags(write=False)
    return CdfGrid(spec=spec, rho=rho, axis_coordinates=nodes, node_values=cdf, rows=np.arange(nodes.size))
