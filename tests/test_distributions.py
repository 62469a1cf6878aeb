"""Tests for the Version 1/2/3 data distribution (one ``Layout``)."""

import math

import pytest

from repro.errors import DistributionError
from repro.parallel.distributions import Layout


class TestBlockCyclic:
    def test_version1_ownership(self):
        lay = Layout(4, b=1)
        assert lay.version == 1
        assert [lay.owner(j) for j in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_version2_ownership(self):
        lay = Layout(3, b=2)
        assert lay.version == 2
        assert [lay.owner(j) for j in range(8)] == [0, 0, 1, 1, 2, 2, 0, 0]

    def test_blocks_partition(self):
        lay = Layout(4, b=3)
        p = 26
        seen = []
        for r in range(4):
            mine = lay.blocks_of(r, p)
            assert mine == sorted(mine)
            seen.extend(mine)
        assert sorted(seen) == list(range(p))

    def test_invalid_params(self):
        with pytest.raises(DistributionError):
            Layout(0)
        with pytest.raises(DistributionError):
            Layout(2, b=0)
        with pytest.raises(DistributionError):
            Layout(2).owner(-1)


class TestSpread:
    def test_ownership_adjacent(self):
        lay = Layout(8, b=0.5)
        assert lay.owner(0, 0) == 0
        assert lay.owner(0, 1) == 1
        assert lay.owner(1, 0) == 2
        assert lay.owner(4, 1) == 1  # wraps

    def test_chunks_partition(self):
        lay = Layout(6, b=1 / 3)
        p = 7
        seen = []
        for r in range(6):
            mine = lay.chunks_of(r, p)
            assert mine == sorted(mine)
            seen.extend(mine)
        assert sorted(seen) == [(j, c) for j in range(p) for c in range(3)]

    def test_chunk_width(self):
        lay = Layout(4, b=0.25)
        assert lay.chunk_width(8) == 2
        with pytest.raises(DistributionError):
            lay.chunk_width(6)

    def test_invalid_params(self):
        with pytest.raises(DistributionError, match="spread"):
            Layout(4, b=0.2)               # spread 5 > NP
        with pytest.raises(DistributionError):
            Layout(4, b=0.5).owner(0, 2)


class TestMakeLayout:
    """``b`` picks the Version."""

    def test_b_one_is_version1(self):
        lay = Layout(4, b=1)
        assert (lay.version, lay.group_size, lay.spread) == (1, 1, 1)

    def test_b_integer_is_version2(self):
        lay = Layout(4, b=8)
        assert (lay.version, lay.group_size, lay.spread) == (2, 8, 1)

    def test_b_fraction_is_version3(self):
        lay = Layout(8, b=0.25)
        assert (lay.version, lay.group_size, lay.spread) == (3, 1, 4)

    def test_invalid_b(self):
        with pytest.raises(DistributionError):
            Layout(4, b=1.5)
        with pytest.raises(DistributionError):
            Layout(4, b=0.3)

    @pytest.mark.parametrize("b", [0, -1, math.nan, math.inf])
    def test_non_positive_or_non_finite_b_is_typed(self, b):
        with pytest.raises(DistributionError, match="finite and positive"):
            Layout(4, b=b)


#: ``(b, NP)``: each b of Figure 5's three Versions at every NP from 2
#: to 8 that can hold a spread block.
FIGURE5 = [(b, nproc) for b in (1, 2, 3, 1 / 2, 1 / 3, 1 / 4)
           for nproc in range(2, 9) if b >= 1 or round(1 / b) <= nproc]


@pytest.mark.parametrize("b,nproc", FIGURE5,
                         ids=[f"b={b:.3g}-NP={n}" for b, n in FIGURE5])
def test_owner_follows_figure5(b, nproc):
    """Block ``j`` is on PE ``(j // b) mod NP`` for ``b ≥ 1``; chunk ``c``
    of block ``j`` on PE ``(j·s + c) mod NP`` for ``b = 1/s``; every
    ``(block, chunk)`` pair has exactly one owner."""
    lay = Layout(nproc, b)
    s = 1 if b >= 1 else round(1 / b)
    p = 2 * nproc * max(int(b), 1) + 1
    pairs = [(j, c) for j in range(p) for c in range(s)]
    for j, c in pairs:
        want = (j // int(b)) % nproc if b >= 1 else (j * s + c) % nproc
        assert lay.owner(j, c) == want
    mine = [lay.chunks_of(r, p) for r in range(nproc)]
    assert all(m == sorted(m) for m in mine)
    assert sorted(jc for m in mine for jc in m) == pairs
