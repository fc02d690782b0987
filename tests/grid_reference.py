"""Whole-array reference grid tabulations, for tests only.

``reference_tabulation`` and ``trapezoid_tabulation`` return the whole
m x m square of node values V(r, c), of which the library's diagonal table
holds V(r, r) and V(r + 1, r).  ``reference_tabulation`` is the corner-mean
fill as ``tabulate_cdf_grid`` had it before its table was filled in row
blocks: the density over the whole square in one expression, the
four-corner mean over the whole square, then the two cumulative sums over
whole arrays.  It sums the same cell volumes as the library in another
order, so it anchors the library's accuracy.  ``trapezoid_tabulation`` is
the product trapezoid rule as one running sum of density rows, the fill
the library had before it tabulated only the diagonal.
``diagonal_tabulation`` is the library's own arithmetic over whole arrays,
which the library must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from levdiv import CdfGrid, GridSpec


def diagonal_nodes(m: int) -> list[tuple[int, int]]:
    """The nodes (r, c) of an m-node axis that a diagonal table holds, in
    its order: (0, 0), (1, 0), (1, 1), (2, 1), ..., (m - 1, m - 1)."""
    return [(k - k // 2, k // 2) for k in range(2 * m - 1)]


def diagonal_entries(square: np.ndarray) -> np.ndarray:
    """The entries of an m x m array of node values that a diagonal table
    holds, in its order."""
    r, c = np.array(diagonal_nodes(len(square))).T
    return square[r, c]


def reference_tabulation(rho: float, spec: GridSpec, extent: int | None = None) -> np.ndarray:
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
    return cdf


def trapezoid_tabulation(rho: float, spec: GridSpec, extent: int | None = None) -> np.ndarray:
    """The library's arithmetic over whole arrays: the density without its
    normalising factor; its running sum Q down axis 0 from half the first
    row; the vertical trapezoid Q[i - 1] + Q[i] of each row i >= 1 (row 0
    is zero); pair sums along axis 1 and their running sum; then one scale."""
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
    return cdf


def diagonal_tabulation(rho: float, spec: GridSpec, extent: int | None = None) -> CdfGrid:
    """The library's arithmetic over whole arrays: the density without its
    normalising factor over the whole square; its running sum Q down axis
    0 from half the first row, and P_c = Q[c - 1, c]; E_0 = D[0, 0] / 4
    and E_a = D[a, a] + 2 P_a; V(r, r) = E_0 + ... + E_(r-1) + D[r, r] / 4
    + P_r and V(r + 1, r) = V(r, r) + (P_r + D[r, r] / 2) / 2 + (P_(r+1) -
    D[r, r + 1] / 2) / 2 for r >= 1, interleaved; then one scale.  The
    library's tabulation must return the same bits for every correlation,
    spec, extent and block size."""
    rho = float(rho)
    nodes = np.linspace(spec.z_min, spec.z_max, spec.cells_per_axis + 1)[:extent]
    omr2 = (1.0 - rho) * (1.0 + rho)
    root_c = math.sqrt(0.5 / omr2)
    t = (root_c * nodes)[:, None] - root_c * rho * nodes
    g = np.exp(-0.5 * nodes * nodes - t * t)
    d, s = np.diagonal(g).copy(), np.diagonal(g, 1).copy()
    g[0] *= 0.5
    p = np.concatenate(([0.0], np.diagonal(np.cumsum(g, axis=0), 1)))
    e = np.concatenate(([0.25 * d[0]], d[1:-1] + 2.0 * p[1:-1]))
    on = np.concatenate(([0.0], np.cumsum(e) + 0.25 * d[1:] + p[1:]))
    off = np.concatenate(([0.0], on[1:-1] + 0.5 * (p[1:-1] + 0.5 * d[1:-1]) + 0.5 * (p[2:] - 0.5 * s[1:])))
    table = np.empty(2 * nodes.size - 1)
    table[::2], table[1::2] = on, off
    table *= spec.cell_width**2 / (2.0 * math.pi * math.sqrt(omr2))
    nodes.setflags(write=False)
    table.setflags(write=False)
    return CdfGrid(spec=spec, rho=rho, axis_coordinates=nodes, node_values=table)
