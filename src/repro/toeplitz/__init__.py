"""Block Toeplitz matrix substrate.

This subpackage provides the structured-matrix classes the Schur algorithm
factors, a fast FFT-based matrix–vector product used by iterative
refinement, and workload generators for the paper's experiments.
"""

from repro.toeplitz.block_toeplitz import (
    BlockToeplitz,
    SymmetricBlockToeplitz,
    from_dense,
    symmetric_from_dense,
)
from repro.toeplitz.matvec import BlockCirculantEmbedding, block_toeplitz_matvec
from repro.toeplitz.toeplitz_block import (
    SymmetricToeplitzBlock,
    shuffle_permutation,
)
from repro.toeplitz.convolution import ConvolutionOperator, toeplitz_lstsq
from repro.toeplitz.workloads import (
    kms_toeplitz,
    random_spd_block_toeplitz,
    ar_block_toeplitz,
    spectral_block_toeplitz,
    indefinite_toeplitz,
    singular_minor_toeplitz,
    paper_example_matrix,
    prolate_toeplitz,
    fgn_toeplitz,
    ma_banded_toeplitz,
)

__all__ = [
    "BlockToeplitz",
    "SymmetricBlockToeplitz",
    "from_dense",
    "symmetric_from_dense",
    "BlockCirculantEmbedding",
    "SymmetricToeplitzBlock",
    "shuffle_permutation",
    "ConvolutionOperator",
    "toeplitz_lstsq",
    "block_toeplitz_matvec",
    "kms_toeplitz",
    "random_spd_block_toeplitz",
    "ar_block_toeplitz",
    "spectral_block_toeplitz",
    "indefinite_toeplitz",
    "singular_minor_toeplitz",
    "paper_example_matrix",
    "prolate_toeplitz",
    "fgn_toeplitz",
    "ma_banded_toeplitz",
]
