"""resonancekit: spectra of a two-level atom coupled to one quantized field mode.

Cross-validated spectral methods on a truncated Fock space: an exact
diagonalization oracle over the two parity blocks, degeneracy-aware quantum
averaging, KAM-type contact transformations, isometric resonant
transformations whose kernel slots (parity sign 0) hold their spurious zero
eigenvalues, and closed-form effective spectra, plus a sweep CLI.
"""

from .operators import (
    ModelParams,
    TruncationConfig,
    build_boson_ops,
    build_rabi,
    default_guard,
    validated_level_count,
)
from .spectrum import (
    EigenDecomposition,
    SpectrumTable,
    eigh,
)
from .averaging import (
    project_average,
    solve_cohomological,
    combined_projector,
)
from .kam import KamChain, KamStepReport, unitary_exp, kam_step, kam_iterate_full
from .transforms import (
    Isometry,
    TransformedHamiltonian,
    rt_one_photon,
    rt_two_photon,
    generic_numeric_rt,
    strong_chain,
    rt_zero_field,
)
from .methods import METHOD_ORDER
from .closedform import (
    closed_form_table,
    resonance_loci,
    second_order_locus,
)
from .sweep import (
    SweepConfig,
    parse_config,
    run_sweep,
    table_to_csv,
    compare_methods,
    errors_to_csv,
    resonance_report,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "TruncationConfig",
    "build_boson_ops",
    "build_rabi",
    "default_guard",
    "validated_level_count",
    "EigenDecomposition",
    "SpectrumTable",
    "eigh",
    "project_average",
    "solve_cohomological",
    "combined_projector",
    "KamChain",
    "KamStepReport",
    "unitary_exp",
    "kam_step",
    "kam_iterate_full",
    "Isometry",
    "TransformedHamiltonian",
    "rt_one_photon",
    "rt_two_photon",
    "generic_numeric_rt",
    "strong_chain",
    "rt_zero_field",
    "METHOD_ORDER",
    "closed_form_table",
    "resonance_loci",
    "second_order_locus",
    "SweepConfig",
    "parse_config",
    "run_sweep",
    "table_to_csv",
    "compare_methods",
    "errors_to_csv",
    "resonance_report",
    "__version__",
]
