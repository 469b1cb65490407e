"""Three-terminal, three-level quantum thermal device simulator.

Steady states, heat currents, and the valve / refrigerator / amplifier /
thermometer operating regimes of a three-level system coupled to hot, cold
and work baths, with or without inner coupling between the excited levels.
"""

from .model import (
    BARE,
    EIGEN,
    POINT_COLUMNS,
    BathSpec,
    BasisError,
    ConfigError,
    DensityMatrix,
    DeviceConfig,
    EigenSystem,
    SystemParams,
    diagonalize,
    stack_points,
    validate,
)
from .rates import (
    RatePair,
    bose_occupation,
    dressed_rates,
    ohmic_spectral_density,
    transition_rates,
)
from .generator import (
    Generator,
    build_full_secular,
    build_partial_secular,
    dissipator_apply,
    dump_csv,
    unvectorize,
    vectorize,
)
from .solver import (
    StepSizeError,
    SteadyStateError,
    Trajectory,
    analytic_diagonal_steady_state,
    default_timestep,
    detailed_balance_residual,
    evolve,
    steady_state,
    trajectory_csv,
)
from .observables import (
    CurrentReport,
    UndefinedObservableError,
    carnot_cop,
    closed_form_currents,
    cop_and_bounds,
    current_reports,
    effective_temperatures,
    entropy_production,
    heat_current_trace,
    steady_state_report,
    uncoupled_currents,
)
from .analysis import (
    AmplifierUndefinedError,
    BracketError,
    MeasurementRangeError,
    PhasePoint,
    SweepGrid,
    ThermometerReading,
    amplification_factor,
    critical_tc,
    currents_at,
    equilibrium_tw,
    find_current_zero,
    measure_temperature,
    phase_map,
    phase_map_csv,
    sensitivity,
    tc_from_tw,
)

__version__ = "0.1.0"
