import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tumorctrl.fields import (Field, ShapeMismatch, SpaceTimeField, TimeGrid,
                              _write_snapshots, grid1d, grid2d, inner,
                              make_laplacian, slice_norms, write_csv,
                              write_field_csv)


class TestGrids:
    def test_cell_volume(self):
        assert grid1d(10, 2.0).cell_volume == pytest.approx(0.2)
        assert grid2d(4, 5, 2.0, 1.0).cell_volume == pytest.approx(0.1)

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            grid1d(0)
        with pytest.raises(ValueError):
            grid1d(4, -1.0)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    def test_rejects_spacing_without_float_h2(self):
        # the Laplacian needs h^2 and 1/h^2 as finite positive floats
        for make in (lambda: grid1d(16, 1e160), lambda: grid1d(16, 1e-160),
                     lambda: grid2d(12, 12, 1e300, 1.0)):
            with pytest.raises(ValueError, match="finite positive h"):
                make()
        # far lengths whose h^2 is a float stay valid
        for length in (1e6, 1e-6, 1e-150):
            assert grid1d(16, length).cell_volume == length / 16

    def test_rejects_tau_without_float_reciprocal(self):
        # the schemes divide by tau: tau and 1/tau must be finite positive
        # floats, so a t_final that is no float over n_steps is refused
        for t_final, n_steps in ((5e-324, 40), (1e-310, 1), (math.inf, 4)):
            with pytest.raises(ValueError, match="finite positive tau"):
                TimeGrid(t_final, n_steps)
        assert TimeGrid(1e-300, 40).tau == 1e-300 / 40
        assert TimeGrid(1e308, 1).tau == 1e308

    def test_time_weights_sum_to_T(self):
        tg = TimeGrid(0.7, 9)
        assert tg.node_weights().sum() == pytest.approx(0.7)
        assert tg.tau == pytest.approx(0.7 / 9)


class TestFieldTypes:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Field(grid1d(2), [1.0, np.nan])

    def test_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            Field(grid1d(3), [1.0, 2.0])
        tg = TimeGrid(1.0, 4)
        with pytest.raises(ShapeMismatch):
            SpaceTimeField(tg, grid1d(3), np.zeros((3, 3)))

    def test_node_vs_slice_fields(self):
        tg = TimeGrid(1.0, 4)
        g = grid1d(3)
        assert SpaceTimeField.zeros(tg, g, on_nodes=True).on_nodes
        assert not SpaceTimeField.zeros(tg, g).on_nodes

    def test_values_frozen(self):
        f = Field(grid1d(3), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            f.values[0] = 5.0


class TestLaplacian:
    def test_constant_maps_to_zero(self):
        for grid in (grid1d(16), grid2d(5, 7)):
            f = Field.full(grid, 3.7)
            assert np.max(np.abs(make_laplacian(grid)(f.values))) == 0.0

    def test_eigenfunction_convergence_order(self):
        errs = []
        for n in (16, 32, 64):
            g = grid1d(n, 1.0)
            x = g.cell_centers()[0]
            f = Field(g, np.cos(np.pi * x))
            lap = make_laplacian(g)(f.values)
            errs.append(np.max(np.abs(lap + np.pi**2 * f.values)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_conservation(self, rng):
        for grid in (grid1d(33), grid2d(7, 9, 1.3, 0.8)):
            f = Field(grid, rng.standard_normal(grid.n_cells))
            total = grid.cell_volume * np.sum(make_laplacian(grid)(f.values))
            assert abs(total) <= 1e-12 * math.sqrt(inner(f, f))

    def test_green_identity_symmetry(self, rng):
        for grid in (grid1d(24), grid2d(6, 5)):
            a = Field(grid, rng.standard_normal(grid.n_cells))
            b = Field(grid, rng.standard_normal(grid.n_cells))
            lap = make_laplacian(grid)
            lhs = inner(Field(grid, lap(a.values)), b)
            rhs = inner(a, Field(grid, lap(b.values)))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_negative_semidefinite(self, rng):
        for grid in (grid1d(24), grid2d(6, 5)):
            a = Field(grid, rng.standard_normal(grid.n_cells))
            lap_a = Field(grid, make_laplacian(grid)(a.values))
            assert inner(lap_a, a) <= 1e-12

    @staticmethod
    def stencil(grid, v):
        """The mirrored-ghost stencil cell by cell on Python floats: per
        axis the neighbour differences over h^2, a - 2 b + c inside and
        the one neighbour's difference at an end (none on a 1-cell axis);
        on a 2D grid 0.0 + x part + y part."""
        def axis(line, i, h2):
            n = len(line)
            if i == 0:
                return (line[1] - line[0]) / h2
            if i == n - 1:
                return (line[n - 2] - line[n - 1]) / h2
            return (line[i - 1] - 2.0 * line[i] + line[i + 1]) / h2

        h2s = [h * h for h in grid.spacing]
        if grid.dim == 1:
            n = grid.n[0]
            return [0.0 if n == 1 else axis(v, i, h2s[0]) for i in range(n)]
        (nx, ny), w = grid.n, [v[i * grid.n[1]:(i + 1) * grid.n[1]]
                               for i in range(grid.n[0])]
        out = []
        for i in range(nx):
            for j in range(ny):
                acc = 0.0
                if nx > 1:
                    acc += axis([row[j] for row in w], i, h2s[0])
                if ny > 1:
                    acc += axis(w[i], j, h2s[1])
                out.append(acc)
        return out

    @pytest.mark.parametrize("grid", [
        grid1d(1, 1.3), grid1d(2, 1.3), grid1d(3, 1.3), grid1d(16, 1.3),
        grid2d(1, 5, 1.3, 0.8), grid2d(5, 1, 1.3, 0.8),
        grid2d(4, 6, 1.3, 0.8)], ids=lambda g: "x".join(map(str, g.n)))
    def test_bits_are_the_stencils(self, grid, rng):
        # signed values of one magnitude per member, over many magnitudes
        # (neighbours of one magnitude round apart where the order of the
        # operations differs), with zeros of both signs in four members
        # and only such zeros in four more, as a (members, cells) batch
        # and one field at a time: every bit, and the sign of every zero,
        # is the per-cell stencil's
        v = (rng.standard_normal((12, grid.n_cells))
             * 10.0 ** rng.integers(-20, 21, (12, 1)))
        v[8:] = 0.0
        v[:4][rng.random((4, grid.n_cells)) < 0.2] = 0.0
        v[:4][rng.random((4, grid.n_cells)) < 0.2] = -0.0
        v[8:][rng.random((4, grid.n_cells)) < 0.5] = -0.0
        lap = make_laplacian(grid)
        want = np.array([self.stencil(grid, row.tolist()) for row in v])
        assert lap(v).tobytes() == want.tobytes()
        for row, expected in zip(v, want):
            assert lap(row).tobytes() == expected.tobytes()


class TestInnerProducts:
    def test_single_cell_arithmetic(self):
        g = grid1d(1, 1.0)
        assert inner(Field(g, [2.0]), Field(g, [3.0])) == pytest.approx(6.0)

    def test_single_cell_spacetime(self):
        tg = TimeGrid(1.0, 1)
        g = grid1d(1, 1.0)
        u = SpaceTimeField(tg, g, [[2.0]])
        assert slice_norms(u, "time")[0] == pytest.approx(2.0)
        assert inner(u, u) == pytest.approx(4.0)

    @given(st.integers(2, 30), st.integers(0, 1000))
    def test_cauchy_schwarz(self, n, seed):
        r = np.random.default_rng(seed)
        g = grid1d(n, 1.5)
        a = Field(g, r.standard_normal(n))
        b = Field(g, r.standard_normal(n))
        assert abs(inner(a, b)) <= math.sqrt(inner(a, a) * inner(b, b)) + 1e-12

    def test_positive(self, rng):
        g = grid1d(12)
        a = Field(g, rng.standard_normal(12))
        assert inner(a, a) >= 0.0

    def test_shape_mismatch(self):
        a = Field(grid1d(3), np.ones(3))
        b = Field(grid1d(4), np.ones(4))
        with pytest.raises(ShapeMismatch):
            inner(a, b)
        with pytest.raises(ShapeMismatch):
            inner(a, SpaceTimeField(TimeGrid(1.0, 2), grid1d(3), np.ones((2, 3))))


class TestSliceNorms:
    def test_zero_field(self):
        u = SpaceTimeField.zeros(TimeGrid(1.0, 4), grid1d(3))
        assert np.all(slice_norms(u, "time") == 0.0)
        assert np.all(slice_norms(u, "space") == 0.0)

    def test_fubini_consistency(self, rng):
        tg = TimeGrid(0.8, 5)
        g = grid1d(4, 1.3)
        u = SpaceTimeField(tg, g, rng.standard_normal((5, 4)))
        by_time = np.sum(tg.tau * slice_norms(u, "time") ** 2)
        by_space = np.sum(g.cell_volume * slice_norms(u, "space") ** 2)
        total = inner(u, u)
        assert by_time == pytest.approx(total, rel=1e-12)
        assert by_space == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("steps,cells", [(1, 1), (5, 7), (16, 120),
                                             (3, 1024)])
    def test_rounds_like_per_group_dot(self, rng, steps, cells):
        # the prox's zero-group law relies on exactly this rounding
        tg, g = TimeGrid(0.8, steps), grid1d(cells, 1.3)
        vals = rng.standard_normal((steps, cells))
        u = SpaceTimeField(tg, g, vals)
        by_time = [np.sqrt(g.cell_volume * np.dot(r, r)) for r in vals]
        by_space = [np.sqrt(tg.tau * np.dot(c, c)) for c in vals.T]
        assert slice_norms(u, "time").tobytes() == np.array(by_time).tobytes()
        assert (slice_norms(u, "space").tobytes()
                == np.array(by_space).tobytes())

    def test_direction_validation(self):
        u = SpaceTimeField.zeros(TimeGrid(1.0, 2), grid1d(2))
        with pytest.raises(ValueError):
            slice_norms(u, "sideways")


def test_csv_export(tmp_path, rng):
    tg = TimeGrid(0.5, 2)
    g = grid2d(2, 2)
    u = SpaceTimeField(tg, g, rng.standard_normal((3, 4)))
    path = tmp_path / "phi.csv"
    write_field_csv(path, u, "phi")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x,y,phi"
    assert len(lines) == 1 + 3 * 4
    t, x, y, v = (float(s) for s in lines[1].split(","))
    assert (t, x, y) == (0.0, 0.25, 0.25)
    assert v == u.values[0, 0]
    assert path.read_text() == _field_csv_per_cell(u, "phi")


def _field_csv_per_cell(u, name):
    """The reference: one row per cell per snapshot, each cell by repr."""
    times = u.timegrid.node_times() if u.on_nodes else u.timegrid.slice_times()
    coords = u.grid.cell_centers()
    rows = [["t", "x", "y"][: 1 + u.grid.dim] + [name]] + [
        [repr(float(c)) for c in (t, *(xy[j] for xy in coords), u.values[k, j])]
        for k, t in enumerate(times) for j in range(u.grid.n_cells)]
    return "".join(",".join(row) + "\n" for row in rows)


_REPR_EDGES = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
               1e-5, 1e16, -1e16, 0.1, 1.0 / 3.0]


def _repr_edge_field():
    u = SpaceTimeField(TimeGrid(0.3, 2), grid1d(len(_REPR_EDGES)),
                       np.zeros((3, len(_REPR_EDGES))))
    # SpaceTimeField rejects non-finite values; set them past that check to
    # pin the writer's format on every repr edge case
    values = np.array([_REPR_EDGES, _REPR_EDGES[::-1], _REPR_EDGES])
    object.__setattr__(u, "values", values)
    return u


@pytest.mark.parametrize("make_field", [
    pytest.param(lambda rng: SpaceTimeField(
        TimeGrid(0.7, 3), grid1d(9, 2.5), rng.standard_normal((4, 9))),
        id="1d-nodes"),
    pytest.param(lambda rng: SpaceTimeField(
        TimeGrid(1.0, 5), grid2d(3, 4, 1.0, 0.7), rng.standard_normal((5, 12))),
        id="2d-slices"),
    pytest.param(lambda rng: SpaceTimeField(
        TimeGrid(0.5, 2), grid2d(40, 33), rng.standard_normal((3, 1320))),
        id="2d-partial-last-block"),
    pytest.param(lambda rng: SpaceTimeField(
        TimeGrid(0.5, 2), grid1d(1), rng.standard_normal((3, 1))),
        id="1-cell"),
    pytest.param(lambda rng: _repr_edge_field(), id="repr-edges"),
])
def test_field_csv_matches_per_cell_loop(tmp_path, rng, make_field):
    u = make_field(rng)
    path = tmp_path / "u.csv"
    write_field_csv(path, u, "u")
    assert path.read_text() == _field_csv_per_cell(u, "u")


@pytest.mark.parametrize("on_nodes", [True, False], ids=["nodes", "slices"])
def test_field_csv_splits_at_every_snapshot(tmp_path, rng, on_nodes):
    # the header and the snapshots before stop, then the rest from stop on
    # in another file: together the bytes of the whole file
    tg = TimeGrid(0.5, 3)
    u = SpaceTimeField(tg, grid2d(3, 2), rng.standard_normal(
        (tg.n_steps + on_nodes, 6)))
    whole = _field_csv_per_cell(u, "u")
    for stop in range(u.n_slices + 1):
        write_field_csv(tmp_path / "head.csv", u, "u", stop)
        _write_snapshots(tmp_path / "rest.part", u, stop)
        assert (tmp_path / "head.csv").read_text() \
            + (tmp_path / "rest.part").read_text() == whole


def test_field_csv_memory_is_one_snapshot(tmp_path, rng):
    # the writer holds one snapshot's text at most, never the whole file
    # (4.7 MB here)
    u = SpaceTimeField(TimeGrid(1.0, 8), grid2d(96, 96),
                       rng.standard_normal((9, 96 * 96)))
    path = tmp_path / "u.csv"
    write_field_csv(path, u, "u")
    tracemalloc.start()
    try:
        write_field_csv(path, u, "u")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def test_write_csv_cell_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d"],
              [[np.float64(0.1)], [None], [float("nan")], [np.int64(1)]])
    assert path.read_text() == "a,b,c,d\n0.1,,nan,1\n"
    # bulk columns: float arrays by repr, int and bool arrays by digits
    write_csv(path, ["x", "i", "f"],
              [np.array([0.1, -0.0, 1e-300]), np.arange(3),
               np.array([True, False, True])])
    assert path.read_text() == "x,i,f\n0.1,0,1\n-0.0,1,0\n1e-300,2,1\n"
    # a table longer than one formatting block, and a length mismatch
    x = np.random.default_rng(1).standard_normal(10_000)
    write_csv(path, ["i", "x"], [np.arange(x.size), x])
    assert path.read_text() == "i,x\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(x.tolist()))
    with pytest.raises(ValueError):
        write_csv(path, ["i", "x"], [np.arange(x.size - 1), x])
