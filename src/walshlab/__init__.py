"""Desk-scale verification lab for Walsh interval-projection inequalities."""

from .dyadic import (
    IntInterval,
    delta_block,
    translate_block,
)
from .walsh import (
    DyadicCell,
    DyadicFunction,
    ResolutionError,
    expectation,
    fwht,
    mart_diff,
    project,
    restrict_rescale,
    walsh_eval,
)
from .intervals import (
    Decomposition,
    decompose,
    family_decompose,
    verify_decomposition,
)
from .operators import (
    SeqFunction,
    block_sum,
    block_sum_family,
    rms_maximal,
    sharp_maximal,
    square_function,
)
from .lattice import (
    CZResult,
    LatticeFunction,
    cz_decompose,
    duality_pairing,
    lattice_norm,
    rad_norm_values,
    segment_transform,
    segment_transform_adjoint,
    stopping_cells,
    verify_cz,
)
from .experiments import (
    ExperimentConfig,
    RatioReport,
    exhaustive_pointwise_basis_check,
    random_function,
    random_interval_family,
    random_lattice_function,
    run_adjointness,
    run_lemma_square,
    run_pointwise,
    run_scalar_lpr,
    run_vector_lpr,
    run_weak11,
    verify_identities,
)

__all__ = [name for name in dir() if not name.startswith("_")]
