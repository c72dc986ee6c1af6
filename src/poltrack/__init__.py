"""Polarization-basis tracking simulator for polarization-encoding BB84 QKD.

The package models the full feedback loop of a receiver that keeps its
measurement bases aligned with the transmitter using only the sifted key
bits already revealed during error estimation: Poincare-sphere geometry,
a four-squeezer polarization controller with drifting axes, a Monte Carlo
detection layer, the dither-gradient controller, estimator error bounds,
and a reproducible scenario harness with a CLI.
"""

from .feedback import (
    ControllerConfig,
    ControlResult,
    MonteCarloContext,
    World,
    adjust_squeezer,
    control_cycle,
    feedback_error,
    track,
)
from .harness import (
    ConfigError,
    ScenarioConfig,
    Summary,
    config_to_ini,
    emit_sample_size_table,
    parse_config,
    preset_config,
    run_scenario,
    series_from_csv,
    series_to_csv,
    summarize,
)
from .optics import (
    AnalyzerSweep,
    ChannelModel,
    EpcState,
    LinkBudget,
    RandomWalkChannel,
    ScramblerChannel,
    StaticChannel,
    channel_step,
    default_epc,
    drift_axes,
    epc_rotation,
    transmittance,
)
from .photon_sim import (
    DetectionTally,
    EmptyRowError,
    InsufficientDataError,
    SourceParams,
    analyzer_element,
    arm_cell_probs,
    qber_from_tally,
    sifted_cell_probs,
    simulate_batch,
)
from .poincare import (
    IDENTITY,
    Rotation,
    StokesVector,
    apply_rotation,
    compose,
    inverse,
    rotation_from_axis_angle,
)
from .stats import (
    EstimatorScenario,
    delta_qber,
    delta_table,
    detection_probs,
    required_sample_size,
    scenario_for_qber,
)
from .timeseries import TimeSeries, TimeSeriesRow

__version__ = "0.1.0"
