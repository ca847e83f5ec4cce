"""resonancekit: spectra of a two-level atom coupled to one quantized field mode.

Cross-validated spectral methods on a truncated Fock space: an exact
diagonalization oracle over the two parity blocks, degeneracy-aware quantum
averaging, KAM-type contact transformations, isometric resonant
transformations whose kernel slots (parity sign 0) hold their spurious zero
eigenvalues, and closed-form effective spectra, plus a sweep CLI.

The public names load lazily: a submodule is imported the first time one of
its names is read, so a command loads only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SUBMODULES = {
    **dict.fromkeys(("ModelParams", "TruncationConfig", "build_rabi", "default_guard",
                     "validated_level_count"), "operators"),
    **dict.fromkeys(("EigenDecomposition", "SpectrumTable", "eigh"), "spectrum"),
    **dict.fromkeys(("project_average", "solve_cohomological", "combined_projector"),
                    "averaging"),
    **dict.fromkeys(("KamChain", "KamStepReport", "kam_step", "kam_iterate_full"), "kam"),
    **dict.fromkeys(("Isometry", "TransformedHamiltonian", "rt_one_photon", "rt_two_photon",
                     "generic_numeric_rt"), "transforms"),
    "METHOD_ORDER": "methods",
    **dict.fromkeys(("closed_form_table", "resonance_loci", "second_order_locus"),
                    "closedform"),
    **dict.fromkeys(("SweepConfig", "parse_config", "run_sweep", "table_to_csv",
                     "compare_methods", "errors_to_csv", "resonance_report"), "sweep"),
}

__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULES[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
