"""Element-grouped IRS simulation library."""

from .asymptotics import (AsymptoticInputs, ieg_gain, combined_cascade_distribution, performance_loss,
                          uirs_gain, validate_combined_cascade_monte_carlo)
from .beamforming import FPAuxiliaries, PrecodingMatrix, SolverOptions, SolveResult, two_stage_solve, wsr
from .channel import ChannelSet, RicianLink, build_scenario, path_loss_db
from .config import ScenarioConfig
from .grouping import (GroupingMatrix, adjacent_grouping, combine_cascade, count_groupings,
                       phase_partition_grouping, relaxed_qp_grouping)
from .harness import TrialResult, run_monte_carlo, run_scheme, sweep
from .mathkit import array_response, group_shrink_factor, laguerre_half, virtual_los_direction

__version__ = "0.1.0"
