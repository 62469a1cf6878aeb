"""Packed storage for the upper-triangular Schur factor ``R``.

Every Schur solve reuses ``R``, and a dense ``n × n`` array spends half
its words on the zeros below the diagonal.  :class:`PackedUpper` keeps
``R`` in LAPACK's rectangular full packed (RFP) format (Gustavson,
Waśniewski, Dongarra & Langou, ACM TOMS 37(2), 2010) with
``TRANSR='T'``, ``UPLO='U'``: ``n(n+1)/2`` words, with triangular solves
that still run through level-3 ``?tfsm`` (panels) or level-2
``?trsv``/``?gemv`` on contiguous blocks (single vectors).

Layout.  With ``n1 = n // 2`` and ``n2 = n − n1`` split
``R = [[A11, A12], [0, A22]]``.  The buffer, viewed as a C-ordered
``(2·n1 + 1) × n2`` array ``P``, holds

* ``P[:n1]`` = ``A12`` (dense ``n1 × n2``);
* the upper triangle of ``P[n1:n1 + n2]`` = ``A22``;
* the lower triangle of ``P[n1 + 1:, :n1]`` = ``A11ᵀ``.

For even ``n`` those are three contiguous ``n1 × n1`` blocks, which is
what lets a single vector solve with three BLAS-2 calls on them instead
of ``?tfsm``, which is markedly slower at one column.  For odd ``n`` the
``A11`` block has a leading dimension of ``n2``, which the SciPy BLAS
wrappers cannot express, so vectors go through ``?tfsm`` too.

Entry ``R[r, c]`` (``r ≤ c``) sits at ``P[r, c − n1]`` when ``c ≥ n1``
and at ``P[n1 + 1 + c, r]`` otherwise, so a block of ``R`` on one side
of column ``n1`` is one slice of ``P``.  The block helpers
(:meth:`PackedUpper.write_block`, :meth:`~PackedUpper.write_columns`,
:meth:`~PackedUpper.block_row`, :meth:`~PackedUpper.block_column`) use
that to let the distributed workers write and read ``R`` in a shared
packed buffer.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack

from repro.blas import primitives as blas
from repro.errors import ShapeError

__all__ = ["PackedUpper", "packed_size"]

#: dtype → (trsv, gemv, tfsm) kernels.
_KERNELS = {
    np.dtype(np.float64): (_blas.dtrsv, _blas.dgemv, _lapack.dtfsm),
    np.dtype(np.float32): (_blas.strsv, _blas.sgemv, _lapack.stfsm),
}


def packed_size(n: int) -> int:
    """Words needed to store an ``n × n`` triangle: ``n(n+1)/2``."""
    return n * (n + 1) // 2


class PackedUpper:
    """An ``n × n`` upper-triangular matrix in RFP storage.

    ``data`` is the 1-D RFP buffer (``TRANSR='T'``, ``UPLO='U'``), float64
    or float32.  It may be a read-only memory map: nothing but
    :meth:`write_rows` writes to it, and rows are written before the
    first solve or :attr:`dense` read.
    """

    def __init__(self, data: np.ndarray, n: int):
        n = int(n)
        if data.ndim != 1 or data.shape[0] != packed_size(n):
            raise ShapeError(
                f"packed buffer of shape {data.shape} does not hold an "
                f"order-{n} triangle ({packed_size(n)} words)")
        if data.dtype not in _KERNELS:
            raise ShapeError(
                f"packed buffer dtype {data.dtype} is not float64/float32")
        self.data = data
        self.n = n
        self._dense: np.ndarray | None = None
        # R[r, c] (r <= c) is _p[r, c - n1] for c >= n1, else _u11[r, c].
        n1 = n // 2
        self._n1 = n1
        self._p = data.reshape(2 * n1 + 1, n - n1)
        self._u11 = self._p[n1 + 1:, :n1].T

    @classmethod
    def zeros(cls, n: int, dtype=np.float64) -> "PackedUpper":
        """An all-zero order-``n`` triangle."""
        return cls(np.zeros(packed_size(n), dtype=dtype), n)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def _views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(U11, A12, U22)``: square views whose upper triangles are
        ``A11`` and ``A22``, and the dense ``A12`` block."""
        n1 = self._n1
        return self._u11, self._p[:n1], self._p[n1:self.n]

    # ------------------------------------------------------------------
    def write_rows(self, start: int, rows: np.ndarray) -> None:
        """Store rows ``start, start+1, …`` of ``R`` from the diagonal on.

        ``rows[t, j]`` is ``R[start + t, start + j]``.  Only entries on or
        above the diagonal are stored; what lies below (rounding residue
        in a pivot block) is dropped.
        """
        self.write_block(start, start, rows)

    def write_block(self, r0: int, c0: int, blk: np.ndarray) -> None:
        """Store ``R[r0:r0+h, c0:c0+w] = blk`` on and above the diagonal.

        Entries of ``blk`` below the diagonal are dropped, as in
        :meth:`write_rows`; nothing else in the buffer is written, so
        processes sharing the buffer may write disjoint blocks at once.
        """
        h, w = blk.shape
        n1 = self._n1
        if r0 + h <= c0 + 1:            # wholly on or above the diagonal
            if c0 >= n1:
                self._p[r0:r0 + h, c0 - n1:c0 - n1 + w] = blk
                return
            if c0 + w <= n1:
                self._u11[r0:r0 + h, c0:c0 + w] = blk
                return
        if c0 < n1 < c0 + w:            # straddles the RFP split
            self.write_block(r0, c0, blk[:, :n1 - c0])
            self.write_block(r0, n1, blk[:, n1 - c0:])
            return
        k = r0 - c0                     # blk[t, j] is stored iff j - t >= k
        d = min(k + h - 1, w)           # leading columns that cross it
        h = min(h, w - k)               # later rows lie wholly below it
        if h <= 0:
            return
        dst = (self._p[r0:r0 + h, c0 - n1:c0 - n1 + w] if c0 >= n1
               else self._u11[r0:r0 + h, c0:c0 + w])
        np.copyto(dst[:, :d], blk[:h, :d], where=_triu_mask(h, d, k))
        dst[:, d:] = blk[:h, d:]

    def write_columns(self, r0: int, cols: np.ndarray,
                      strip: np.ndarray) -> None:
        """Store ``R[r0:r0+h, cols] = strip`` for ascending ``cols`` that
        all lie right of the strip's last row, so every entry is above
        the diagonal; nothing else in the buffer is written."""
        h = strip.shape[0]
        split = int(np.searchsorted(cols, self._n1))  # cols[:split] < n1
        if split:
            self._u11[r0:r0 + h, cols[:split]] = strip[:, :split]
        if split < len(cols):
            self._p[r0:r0 + h, cols[split:] - self._n1] = strip[:, split:]

    def block_row(self, r0: int, h: int, cols: np.ndarray) -> np.ndarray:
        """``R[r0:r0+h, cols]`` as a new array; ``cols`` ascending.

        Entries below the diagonal read as zero.
        """
        cols = np.asarray(cols, dtype=np.intp)
        n1 = self._n1
        split = int(np.searchsorted(cols, n1))    # cols[:split] < n1
        if split == 0:
            out = self._p[r0:r0 + h, cols - n1]
        elif r0 + h <= n1:
            out = self._u11[r0:r0 + h, cols[:split]]
            if split < cols.size:
                out = np.concatenate(
                    (out, self._p[r0:r0 + h, cols[split:] - n1]), axis=1)
        else:                           # rows straddle the split too
            out = np.zeros((h, cols.size), dtype=self.dtype)
            hl = max(0, n1 - r0)
            out[:hl, :split] = self._u11[r0:r0 + hl, cols[:split]]
            out[:, split:] = self._p[r0:r0 + h, cols[split:] - n1]
        if cols.size and r0 + h - 1 > cols[0]:
            out[np.arange(r0, r0 + h)[:, None] > cols] = 0
        return out

    def block_column(self, c0: int, w: int) -> np.ndarray:
        """``R[:c0, c0:c0+w]``, the strip above the diagonal block at
        ``(c0, c0)``.

        A read-only view of the buffer when the strip lies on one side of
        the RFP split (``n // 2``), otherwise a new array.
        """
        n1 = self._n1
        if c0 >= n1:
            strip = self._p[:c0, c0 - n1:c0 - n1 + w]
        elif c0 + w <= n1:
            strip = self._u11[:c0, c0:c0 + w]
        else:
            return np.hstack([self._u11[:c0, c0:n1],
                              self._p[:c0, :c0 + w - n1]])
        strip = strip.view()
        strip.flags.writeable = False
        return strip

    def diagonal(self) -> np.ndarray:
        """The diagonal of ``R`` (a copy)."""
        u11, _, u22 = self._views()
        return np.concatenate([np.diagonal(u11), np.diagonal(u22)])

    @property
    def dense(self) -> np.ndarray:
        """Read-only dense ``n × n`` copy, exact zeros below the diagonal.

        Unpacked on first access and kept, so repeated reads cost
        nothing more; solves never use it.
        """
        if self._dense is None:
            n1 = self.n // 2
            u11, a12, u22 = self._views()
            r = np.zeros((self.n, self.n), dtype=self.dtype)
            r[:n1, :n1] = np.triu(u11)
            r[:n1, n1:] = a12
            r[n1:, n1:] = np.triu(u22)
            r.flags.writeable = False
            self._dense = r
        return self._dense

    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray, *, trans: bool = False,
              overwrite_b: bool = False) -> np.ndarray:
        """Solve ``R X = B`` (``Rᵀ X = B`` when ``trans``).

        ``B`` is a length-``n`` vector or an ``n × k`` panel; the result
        has ``B``'s shape and the factor's dtype.  With ``overwrite_b``
        the solve runs in ``B``'s own storage when its dtype and layout
        allow (Fortran order for panels), otherwise on one copy.
        """
        b = np.asarray(b)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ShapeError(
                f"right-hand side of shape {b.shape} does not match an "
                f"order-{self.n} factor")
        nrhs = 1 if b.ndim == 1 else b.shape[1]
        blas.charge(self.n * self.n * nrhs, "trsm", dtype=self.dtype.name)
        trsv, gemv, tfsm = _KERNELS[self.dtype]
        if nrhs == 1 and self.n % 2 == 0:
            x = _work(b.reshape(self.n), self.dtype, overwrite_b)
            self._vector_solve(x, trans, trsv, gemv)
            return x.reshape(b.shape)
        x = _work(b.reshape(self.n, nrhs), self.dtype, overwrite_b)
        x = tfsm(1.0, self.data, x, transr="T", uplo="U",
                 trans="T" if trans else "N", overwrite_b=1)
        return x.reshape(b.shape)

    def _vector_solve(self, x, trans, trsv, gemv) -> None:
        """In-place vector solve on the three blocks (even ``n`` only).

        BLAS sees each C-ordered block through its transpose:
        ``f11`` is upper with ``A11``, ``f22`` lower with ``A22ᵀ``, and
        ``f12`` is ``A12ᵀ``.
        """
        u11, a12, u22 = self._views()
        f11, f12, f22 = u11, a12.T, u22.T
        n1 = self.n // 2
        x1, x2 = x[:n1], x[n1:]
        if trans:
            trsv(f11, x1, trans=1, overwrite_x=1)
            gemv(-1.0, f12, x1, beta=1.0, y=x2, overwrite_y=1)
            trsv(f22, x2, lower=1, overwrite_x=1)
        else:
            trsv(f22, x2, lower=1, trans=1, overwrite_x=1)
            gemv(-1.0, f12, x2, beta=1.0, y=x1, trans=1, overwrite_y=1)
            trsv(f11, x1, overwrite_x=1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PackedUpper(n={self.n}, dtype={self.dtype.name})"


@functools.lru_cache(maxsize=64)
def _triu_mask(h: int, w: int, k: int) -> np.ndarray:
    """The ``h × w`` mask of ``j − t ≥ k`` (one per block shape, kept)."""
    mask = np.triu(np.ones((h, w), dtype=bool), k)
    mask.flags.writeable = False
    return mask


def _work(b: np.ndarray, dtype: np.dtype, overwrite: bool) -> np.ndarray:
    """``b`` itself when it may be solved in place, else a Fortran-ordered
    copy in ``dtype``."""
    if (overwrite and b.dtype == dtype and b.flags.f_contiguous
            and b.flags.writeable):
        return b
    return np.array(b, dtype=dtype, order="F")
