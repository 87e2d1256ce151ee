"""Proximal backpressure: joint rate control and routing with a vanishing
running-average optimality gap and slot-uniform queue bounds, plus a
drift-plus-penalty baseline, scripted queue-model experiments, and a
certified centralized solver."""

from .net import (UTILITY_KINDS, ContractError, DomainError, Link,
                  Network, NumericError, Scenario, ScenarioFormatError,
                  ScenarioValidationError, Session, Utility, decision_faults,
                  load_scenario, parse_scenario, residual_matrix, save_scenario,
                  serialize_scenario, total_utility, validate_decision)
from .projection import ProjectionInstance, project_rows, project_sorted
from .rates import RateProblem, solve_rate
from .engine import (ALPHA_MODES, AlgConfig, SlotConstants, compute_weights,
                     default_alpha, link_update, slot_update)
from .queues import (ScriptedPolicy, ScriptedTrace, audit_queue_bounds, run_scripted,
                     step_Q, step_Y, step_Z, validate_policy)
from .dpp import DppConfig, dpp_slot_update
from .oracle import (OracleError, OracleSolution, compute_zeta, dual_value,
                     load_solution, parse_solution, repair_feasible,
                     save_solution, serialize_solution, solve_centralized,
                     tighten_to_equality)
from .harness import (CSV_HEADER, CompareRun, Trace, chain_example, compare,
                      make_config, queue_mass, run, save_policy, trace_from_csv)

__version__ = "0.1.0"
