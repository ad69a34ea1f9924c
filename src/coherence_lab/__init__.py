"""Concentration of number-operator coherence from two copies of a state into one subsystem.

The package namespace holds the names that the README's library quick start
and the acceptance suite use, plus the two error types; every other name is
reached through its module (``coherence_lab.modes.bipartite_mode_set``).
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .bounds import (
    bound_kyfan_global,
    bound_kyfan_lrd,
    bound_report,
    kyfan_diagonal_lemma_check,
    nogo_check,
)
from .errors import StateValidationError, UnsupportedParameterError
from .modes import bipartite_mode, mode_component, mode_measure
from .optimizer import UnitarySearchConfig, maximize_delta_m, random_allowed_unitary
from .qubit_protocol import (
    amplification_state,
    optimal_concentration,
    purity_ceiling,
    recurrence_step,
    run_concatenation,
)
from .sampling import random_bloch, random_density_matrix
from .states import (
    BipartiteGenerator,
    BlochState,
    DensityMatrix,
    NumberOperator,
    bloch_to_density,
    isotropic_state,
)

# every name imported above (importing them also binds the submodules, which are left out)
__all__ = ["__version__"] + sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
