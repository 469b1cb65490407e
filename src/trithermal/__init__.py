"""Three-terminal, three-level quantum thermal device simulator.

Steady states, heat currents, and the valve / refrigerator / amplifier /
thermometer operating regimes of a three-level system coupled to hot, cold
and work baths, with or without inner coupling between the excited levels.
"""

from .model import (
    POINT_COLUMNS,
    BathSpec,
    ConfigError,
    DeviceConfig,
    EigenSystem,
    SystemParams,
    stack_points,
)
from .rates import RatePair, transition_rates
from .generator import reduced_partial_secular
from .solver import (
    StepSizeError,
    SteadyStateError,
    Trajectory,
    analytic_diagonal_steady_state,
    default_timestep,
    evolve,
    trajectory_csv,
)
from .observables import (
    CurrentReport,
    CurrentTable,
    UndefinedObservableError,
    current_table,
    uncoupled_currents,
)
from .analysis import (
    AmplifierUndefinedError,
    BracketError,
    MeasurementRangeError,
    PhaseMap,
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
