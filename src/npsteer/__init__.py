"""Number-phase entanglement and steering toolkit for two bosonic modes.

States are blocks over total-number sectors, read through one flat sector
view (pure states also have a Fock grid, built on demand for fixed-total
ones); observables are exact sums on the amplitudes; the phase-difference
POVM provides densities, sampling, and estimators; the criteria module
turns observables into entanglement/steering verdicts.

The names below are the API the README documents; every other public name
is imported from its module (``npsteer.fock``, ``npsteer.observables``, ...).
"""
from .criteria import (
    all_verdicts,
    boundary_curves,
    np_entanglement,
    np_steering,
    single_mode_ur_check,
)
from .fock import (
    ArraySizeError,
    PureTwoModeState,
    SectorMixture,
    TruncationError,
    mixture_from_sector_amplitudes,
    number_phase_state,
    split_fock_state,
    two_mode_squeezed_state,
)
from .observables import ObservableReport, TruncationBiasWarning, observable_report
from .phase_povm import (
    estimate_relative_dispersion,
    relative_phase_density,
    sample_local_phases,
    write_samples_csv,
)
from .statespec import parse_state_spec

__version__ = "0.1.0"

__all__ = [
    "ArraySizeError", "ObservableReport", "PureTwoModeState", "SectorMixture",
    "TruncationBiasWarning", "TruncationError", "all_verdicts", "boundary_curves",
    "estimate_relative_dispersion", "mixture_from_sector_amplitudes", "np_entanglement",
    "np_steering", "number_phase_state", "observable_report", "parse_state_spec",
    "relative_phase_density", "sample_local_phases", "single_mode_ur_check",
    "split_fock_state", "two_mode_squeezed_state", "write_samples_csv",
]
