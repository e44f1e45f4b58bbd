"""Tests for decomposition helpers: block partition, dims_create,
Cartesian grids, halo exchange."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import juwels_booster
from repro.vmpi import (
    CartGrid,
    Machine,
    block_partition,
    dims_create,
    ghost_faces,
    halo_exchange,
    phantom_faces,
    run_spmd,
)


class TestBlockPartition:
    def test_even_split(self):
        assert block_partition(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_first(self):
        parts = block_partition(10, 3)
        sizes = [hi - lo for lo, hi in parts]
        assert sizes == [4, 3, 3]

    def test_more_parts_than_items(self):
        parts = block_partition(2, 4)
        sizes = [hi - lo for lo, hi in parts]
        assert sizes == [1, 1, 0, 0]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            block_partition(4, 0)

    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=64))
    def test_covers_range_exactly(self, n, parts):
        out = block_partition(n, parts)
        assert out[0][0] == 0
        assert out[-1][1] == n
        for (lo1, hi1), (lo2, _) in zip(out, out[1:]):
            assert hi1 == lo2
        sizes = [hi - lo for lo, hi in out]
        assert max(sizes) - min(sizes) <= 1


class TestDimsCreate:
    def test_product_is_nranks(self):
        for n in (1, 6, 24, 64, 2560):
            dims = dims_create(n, 3)
            assert int(np.prod(dims)) == n

    def test_balanced(self):
        assert dims_create(8, 3) == (2, 2, 2)
        assert dims_create(64, 2) == (8, 8)

    def test_extent_aware_minimises_surface(self):
        """A 100x1 domain over 4 ranks should split 4x1, not 2x2."""
        dims = dims_create(4, 2, extents=(1000, 4))
        assert dims == (4, 1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            dims_create(0, 2)

    @given(st.integers(min_value=1, max_value=256),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_always_valid_factorisation(self, n, k):
        dims = dims_create(n, k)
        assert len(dims) == k
        assert int(np.prod(dims)) == n
        assert all(d >= 1 for d in dims)


class TestCartGrid:
    def test_coords_roundtrip(self):
        g = CartGrid(dims=(3, 4), periodic=(True, True))
        for r in range(12):
            assert g.rank_of(g.coords(r)) == r

    def test_neighbors_periodic(self):
        g = CartGrid(dims=(3,), periodic=(True,))
        assert g.neighbor(0, 0, -1) == 2
        assert g.neighbor(2, 0, +1) == 0

    def test_neighbors_walls(self):
        g = CartGrid(dims=(3,), periodic=(False,))
        assert g.neighbor(0, 0, -1) is None
        assert g.neighbor(2, 0, +1) is None
        assert g.neighbor(1, 0, +1) == 2

    def test_local_shape_balanced(self):
        g = CartGrid(dims=(3,), periodic=(True,))
        shapes = [g.local_shape((10,), r) for r in range(3)]
        assert shapes == [(4,), (3,), (3,)]

    def test_size_mismatch_checked(self):
        g = CartGrid(dims=(2, 2), periodic=(True, True))
        with pytest.raises(ValueError):
            g.coords(4)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            CartGrid(dims=(2, 0), periodic=(True, True))
        with pytest.raises(ValueError):
            CartGrid(dims=(2,), periodic=(True, True))

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_neighbor_is_involution_periodic(self, n, ndims):
        g = CartGrid.for_ranks(n, ndims, periodic=True)
        for r in range(g.size):
            for d in range(ndims):
                fwd = g.neighbor(r, d, +1)
                assert g.neighbor(fwd, d, -1) == r

    @pytest.mark.parametrize("dims,periodic", [
        ((3, 4), (True, False)),
        ((1, 2, 5), (True, True, False)),
        ((2, 1, 3, 2), (False, True, True, False)),
    ])
    def test_neighbor_matches_coordinate_step(self, dims, periodic):
        """The stride arithmetic agrees with stepping the coordinates."""
        g = CartGrid(dims=dims, periodic=periodic)
        for r in range(g.size):
            for d in range(len(dims)):
                for step in (-1, +1):
                    c = list(g.coords(r))
                    c[d] += step
                    want = (None if not periodic[d]
                            and not 0 <= c[d] < dims[d]
                            else g.rank_of(tuple(c)))
                    assert g.neighbor(r, d, step) == want

    def test_neighbor_rank_out_of_range(self):
        g = CartGrid(dims=(2, 2), periodic=(True, True))
        with pytest.raises(ValueError):
            g.neighbor(4, 0, +1)
        with pytest.raises(ValueError):
            g.neighbor(-1, 0, +1)


class TestHaloExchange:
    def test_faces_arrive_from_correct_neighbors(self):
        def prog(comm):
            cart = CartGrid(dims=(2, 2), periodic=(True, True))
            field = np.full((4, 4), float(comm.rank))
            recv = yield from halo_exchange(comm, cart, ghost_faces(field))
            return {k: float(v[0, 0]) for k, v in recv.items()}

        res = run_spmd(prog, machine=Machine.on(juwels_booster(), 4))
        # rank 0 at (0,0): dim-0 neighbours are rank 2, dim-1 are rank 1
        assert res.values[0][(0, -1)] == 2.0
        assert res.values[0][(1, -1)] == 1.0

    def test_nonperiodic_boundary_receives_nothing(self):
        def prog(comm):
            cart = CartGrid(dims=(comm.size,), periodic=(False,))
            field = np.full((3,), float(comm.rank))
            recv = yield from halo_exchange(comm, cart, ghost_faces(field))
            return sorted(recv.keys())

        res = run_spmd(prog, machine=Machine.on(juwels_booster(), 3))
        assert res.values[0] == [(0, 1)]       # only a right neighbour
        assert res.values[1] == [(0, -1), (0, 1)]
        assert res.values[2] == [(0, -1)]

    def test_ghost_faces_shapes(self):
        f = np.arange(24.0).reshape(2, 3, 4)
        faces = ghost_faces(f)
        assert faces[(0, -1)].shape == (1, 3, 4)
        assert faces[(1, +1)].shape == (2, 1, 4)
        assert faces[(2, -1)].shape == (2, 3, 1)

    def test_ghost_faces_width(self):
        f = np.arange(64.0).reshape(8, 8)
        faces = ghost_faces(f, width=2)
        assert faces[(0, -1)].shape == (2, 8)
        np.testing.assert_array_equal(faces[(0, -1)], f[:2])

    def test_ghost_faces_invalid_width(self):
        with pytest.raises(ValueError):
            ghost_faces(np.zeros((2, 2)), width=0)

    def test_phantom_faces_sizes(self):
        faces = phantom_faces((10, 20, 30), itemsize=8)
        assert faces[(0, -1)].nbytes == 20 * 30 * 8
        assert faces[(1, +1)].nbytes == 10 * 30 * 8
        assert faces[(2, -1)].nbytes == 10 * 20 * 8

    def test_halo_conservation_sum(self):
        """Total of all shipped faces equals total of all received faces."""

        def prog(comm):
            cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
            field = np.random.default_rng(comm.rank).random((4, 4))
            faces = ghost_faces(field)
            sent = sum(float(v.sum()) for v in faces.values())
            recv = yield from halo_exchange(comm, cart, faces)
            got = sum(float(v.sum()) for v in recv.values())
            return sent, got

        res = run_spmd(prog, machine=Machine.on(juwels_booster(), 4))
        total_sent = sum(v[0] for v in res.values)
        total_got = sum(v[1] for v in res.values)
        assert total_sent == pytest.approx(total_got)
