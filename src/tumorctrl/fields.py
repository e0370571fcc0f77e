"""Discrete geometry and field algebra on uniform Neumann grids.

Cell-centered finite volumes in 1D or 2D with mirror ghost cells, so the
discrete Laplacian is symmetric, negative semidefinite and exactly
conservative (its volume-weighted sum vanishes to round-off).  States live on
time nodes (n_steps + 1 snapshots); controls are piecewise constant on the
intervals between nodes (n_steps slices).  All inner products are volume- and
tau-weighted so norms approximate their L^2 counterparts.

CSV output has one cell format (write_csv).  A field file can be written
in two parts at a snapshot boundary, the header and the snapshots before it
(write_field_csv with stop) and the rest (_write_snapshots), whose
concatenation is the whole file byte for byte: runner writes a large run's
second halves in a forked child.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


class ShapeMismatch(ValueError):
    """Fields do not live on compatible grids."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on a 1D interval or 2D rectangle."""

    dim: int
    n: tuple[int, ...]
    length: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "length", tuple(float(v) for v in self.length))
        if len(self.n) != self.dim or len(self.length) != self.dim:
            raise ValueError("n and length must have one entry per dimension")
        if any(v < 1 for v in self.n):
            raise ValueError("need at least one cell per axis")
        if any(v <= 0.0 for v in self.length):
            raise ValueError("domain extents must be positive")
        # the Laplacian divides by h^2, and h^2 and 1/h^2 must be floats
        for h in self.spacing:
            h2 = h * h
            if not (0.0 < h2 < math.inf and 1.0 / h2 < math.inf):
                raise ValueError(f"cell width {h:g} has h^2 = {h2:g}: need "
                                 "a finite positive h^2 and 1/h^2")

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.n))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / m for L, m in zip(self.length, self.n))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def cell_centers(self) -> tuple[np.ndarray, ...]:
        """Per-axis center coordinates broadcast to flat cell order."""
        axes = [(np.arange(m) + 0.5) * h for m, h in zip(self.n, self.spacing)]
        if self.dim == 1:
            return (axes[0],)
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        return X.ravel(), Y.ravel()


def grid1d(n: int, length: float = 1.0) -> GridSpec:
    return GridSpec(1, (n,), (length,))


def grid2d(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0) -> GridSpec:
    return GridSpec(2, (nx, ny), (lx, ly))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with n_steps intervals."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if not self.t_final > 0.0:
            raise ValueError("t_final must be positive")
        if int(self.n_steps) < 1:
            raise ValueError("need at least one time step")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        tau = self.tau
        if not (0.0 < tau < math.inf and 1.0 / tau < math.inf):
            raise ValueError(
                f"time.t_final = {self.t_final:g} over time.n_steps = "
                f"{self.n_steps} gives tau = {tau:g}: need a finite positive "
                "tau and 1/tau")

    @property
    def tau(self) -> float:
        return self.t_final / self.n_steps

    def node_times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps + 1)

    def slice_times(self) -> np.ndarray:
        """Midpoints of the control intervals (t_n, t_{n+1}]."""
        return (np.arange(self.n_steps) + 0.5) * self.tau

    def node_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights over the nodes (sum = T)."""
        w = np.full(self.n_steps + 1, self.tau)
        w[0] = w[-1] = 0.5 * self.tau
        return w


def prolong(values: np.ndarray, grid: GridSpec, space_scale: int,
            time_scale: int) -> np.ndarray:
    """Piecewise-constant prolongation of (slices, cells) values on grid to
    cells space_scale times narrower on every axis and slices time_scale
    times shorter."""
    out = np.repeat(values, time_scale, axis=0).reshape((-1,) + grid.n)
    for axis in range(1, grid.dim + 1):
        out = np.repeat(out, space_scale, axis=axis)
    return out.reshape(len(out), -1)


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("field values must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Field:
    """A single snapshot: one value per grid cell, flat storage."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = _freeze(np.ravel(self.values))
        if v.size != self.grid.n_cells:
            raise ShapeMismatch(
                f"expected {self.grid.n_cells} values, got {v.size}")
        object.__setattr__(self, "values", v)

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> "Field":
        return cls(grid, np.full(grid.n_cells, float(value)))


@dataclass(frozen=True)
class SpaceTimeField:
    """Time-indexed field: (n_slices, n_cells) storage.

    n_slices = n_steps + 1 means a node field (states, adjoints);
    n_slices = n_steps means a piecewise-constant interval field (controls,
    linearization sources).
    """

    timegrid: TimeGrid
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = _freeze(np.atleast_2d(self.values))
        nt = self.timegrid.n_steps
        if v.shape[1] != self.grid.n_cells or v.shape[0] not in (nt, nt + 1):
            raise ShapeMismatch(
                f"expected ({nt} or {nt + 1}, {self.grid.n_cells}) values, "
                f"got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def on_nodes(self) -> bool:
        return self.values.shape[0] == self.timegrid.n_steps + 1

    @property
    def n_slices(self) -> int:
        return self.values.shape[0]

    def time_weights(self) -> np.ndarray:
        if self.on_nodes:
            return self.timegrid.node_weights()
        return np.full(self.timegrid.n_steps, self.timegrid.tau)

    @classmethod
    def zeros(cls, timegrid: TimeGrid, grid: GridSpec,
              on_nodes: bool = False) -> "SpaceTimeField":
        ns = timegrid.n_steps + (1 if on_nodes else 0)
        return cls(timegrid, grid, np.zeros((ns, grid.n_cells)))


@dataclass(frozen=True)
class StateTriple:
    """Initial data (mu0, phi0, sigma0) as single snapshots."""

    mu: Field
    phi: Field
    sigma: Field

    def __post_init__(self):
        if not (self.mu.grid == self.phi.grid == self.sigma.grid):
            raise ShapeMismatch("state fields must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.mu.grid


@dataclass(frozen=True)
class Trajectory:
    """Time-resolved state (mu, phi, sigma), each on time nodes."""

    mu: SpaceTimeField
    phi: SpaceTimeField
    sigma: SpaceTimeField

    def __post_init__(self):
        for f in (self.mu, self.phi, self.sigma):
            if not f.on_nodes:
                raise ShapeMismatch("trajectory components live on time nodes")
        if not (self.mu.grid == self.phi.grid == self.sigma.grid):
            raise ShapeMismatch("trajectory components must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.mu.grid

    @property
    def timegrid(self) -> TimeGrid:
        return self.mu.timegrid


def make_laplacian(grid: GridSpec):
    """Return a callable applying the mirrored-ghost Neumann Laplacian.

    Works on arrays whose last axis is the flat cell index, so a whole
    space-time block can be processed in one call.
    """
    if grid.dim == 1:
        h2 = grid.spacing[0] ** 2
        if grid.n[0] == 1:
            # both mirror ghosts equal the single cell value
            return lambda v: np.zeros_like(np.asarray(v, dtype=float))

        def lap(v: np.ndarray) -> np.ndarray:
            v = np.asarray(v, dtype=float)
            out = np.empty_like(v)
            out[..., 1:-1] = v[..., :-2] - 2.0 * v[..., 1:-1] + v[..., 2:]
            out[..., 0] = v[..., 1] - v[..., 0]
            out[..., -1] = v[..., -2] - v[..., -1]
            out /= h2
            return out

        return lap

    nx, ny = grid.n
    hx2, hy2 = (s ** 2 for s in grid.spacing)

    def lap(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        w = v.reshape(v.shape[:-1] + (nx, ny))
        out = np.zeros_like(w)
        if nx > 1:  # x-direction (axis -2)
            out[..., 1:-1, :] += (w[..., :-2, :] - 2.0 * w[..., 1:-1, :]
                                  + w[..., 2:, :]) / hx2
            out[..., 0, :] += (w[..., 1, :] - w[..., 0, :]) / hx2
            out[..., -1, :] += (w[..., -2, :] - w[..., -1, :]) / hx2
        if ny > 1:  # y-direction (axis -1)
            out[..., :, 1:-1] += (w[..., :, :-2] - 2.0 * w[..., :, 1:-1]
                                  + w[..., :, 2:]) / hy2
            out[..., :, 0] += (w[..., :, 1] - w[..., :, 0]) / hy2
            out[..., :, -1] += (w[..., :, -2] - w[..., :, -1]) / hy2
        return out.reshape(v.shape)

    return lap


def _check_same_kind(a, b):
    if isinstance(a, Field) and isinstance(b, Field):
        if a.grid != b.grid:
            raise ShapeMismatch("fields on different grids")
        return "field"
    if isinstance(a, SpaceTimeField) and isinstance(b, SpaceTimeField):
        if a.grid != b.grid or a.timegrid != b.timegrid \
                or a.n_slices != b.n_slices:
            raise ShapeMismatch("space-time fields on different grids")
        return "spacetime"
    raise ShapeMismatch(f"cannot pair {type(a).__name__} with {type(b).__name__}")


def inner(a, b) -> float:
    """Volume-weighted (and tau-weighted) L^2 inner product."""
    kind = _check_same_kind(a, b)
    vol = a.grid.cell_volume
    if kind == "field":
        return float(vol * np.dot(a.values, b.values))
    w = a.time_weights()
    return float(vol * np.dot(w, np.einsum("ij,ij->i", a.values, b.values)))


def group_norms(values: np.ndarray, axis: int, weight: float) -> np.ndarray:
    """Weighted Euclidean norm sqrt(weight * <g, g>) of every group along axis.

    np.vecdot reduces each group exactly as np.dot does, so every norm equals
    the per-group sqrt(weight * np.dot(g, g)) bit for bit; the prox's
    zero-group law (a group vanishes iff its norm <= eta * kappa) relies on
    that.  Note that np.dot itself rounds a strided group differently from a
    contiguous copy of it.
    """
    return np.sqrt(weight * np.vecdot(values, values, axis=axis))


def slice_norms(u: SpaceTimeField, direction: str) -> np.ndarray:
    """Per-slice L^2 norms of a space-time field.

    direction "time": one spatial L^2(Omega) norm per time slice.
    direction "space": one temporal L^2(0,T) norm per cell (trapezoidal
    weights on node fields).
    """
    if direction == "time":
        return group_norms(u.values, 1, u.grid.cell_volume)
    if direction == "space":
        if u.on_nodes:
            return group_norms(np.sqrt(u.time_weights())[:, None] * u.values,
                               0, 1.0)
        return group_norms(u.values, 0, u.timegrid.tau)
    raise ValueError(f"direction must be 'time' or 'space', got {direction!r}")


def _format_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(int(x))


def _format_column(col):
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "f":
            return map(repr, col.tolist())
        if col.dtype.kind in "biu":  # int(): a bool as 0/1, not True/False
            return map(str, map(int, col.tolist()))
        col = col.tolist()
    return map(_format_cell, col)


def repr_column(col: np.ndarray) -> list:
    """repr of each entry of a float column, each distinct value formatted
    once.  Signed zeros compare equal: a column must not hold both."""
    values, index = np.unique(col, return_inverse=True)
    return np.array(list(map(repr, values.tolist())), dtype=object)[
        index].tolist()


# rows formatted at a time: write_csv holds one block's text;
# write_field_csv formats the coordinates once per file (one snapshot's
# worth) and joins a snapshot's rows one block at a time
_CSV_BLOCK_ROWS = 1024


def write_csv(path, header, columns) -> None:
    """Write a CSV table given column by column, all columns of one length.

    The one cell format of every artifact: a float is written as
    repr(float(x)), so the text round-trips exactly; an int (or bool) as its
    digits; None as an empty cell; a string as itself.  A float, int or
    bool array column is formatted in bulk.  Columns of unequal length raise
    ValueError.
    """
    n_rows = max(map(len, columns), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = (_format_column(c[lo:lo + _CSV_BLOCK_ROWS])
                     for c in columns)
            fh.writelines(",".join(row) + "\n"
                          for row in zip(*block, strict=True))


def write_field_csv(path, u: SpaceTimeField, name: str,
                    stop: int | None = None) -> None:
    """CSV export: one row per cell per snapshot, columns t, x[, y], value.

    Cells are formatted as by write_csv.  Each coordinate is formatted once
    per file and joined into one "x,y," prefix per cell, and the time once
    per snapshot; a snapshot's rows are joined one block at a time, so repr
    of the values is the only per-row Python work.  With stop, only the
    header and the snapshots before stop are written: _write_snapshots
    writes the rest of the file, from stop on, into another.
    """
    header = ["t", "x", "y"][: 1 + u.grid.dim] + [name]
    _write_snapshots(path, u, 0, stop, ",".join(header))


def _write_snapshots(path, u: SpaceTimeField, start: int,
                     stop: int | None = None, head: str = "") -> None:
    """Write head, then write_field_csv's rows of the snapshots from start
    to stop, each begun by a newline, into path; without stop, up to the
    last snapshot and the newline that ends the file."""
    times = u.timegrid.node_times() if u.on_nodes else u.timegrid.slice_times()
    prefix = [",".join(xy) + "," for xy in
              zip(*map(repr_column, u.grid.cell_centers()))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for t, row in zip(map(repr, times[start:stop].tolist()),
                          u.values[start:stop]):
            sep = "\n" + t + ","
            for lo in range(0, row.size, _CSV_BLOCK_ROWS):
                hi = lo + _CSV_BLOCK_ROWS
                fh.write(sep + sep.join(map(operator.add, prefix[lo:hi],
                                            map(repr, row[lo:hi].tolist()))))
        if stop is None:
            fh.write("\n")
