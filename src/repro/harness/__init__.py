"""Experiment harness: drivers and renderers for every table/figure.

The harness runs every experiment cell through the resilient execution
layer (:mod:`repro.harness.runner`): supervised retries, per-trial
watchdogs, adaptive re-measurement, deterministic fault injection
(:mod:`repro.harness.faults`) and atomic checkpoint/resume
(:mod:`repro.harness.checkpoint`).
"""

from repro.harness.checkpoint import (
    CheckpointStore,
    atomic_write_json,
    atomic_write_text,
    deserialize_result,
    serialize_result,
)
from repro.harness.experiment import (
    FIGURE7_EXPONENT,
    defense_matrix,
    figure5_panels,
    figure7_result,
    figure8_panels,
    predictor_comparison,
    run_cell,
    table3_results,
    window_sweep,
)
from repro.harness.faults import (
    PROFILES,
    FaultInjector,
    FaultProfile,
    fault_profile,
)
from repro.harness.persistence import (
    cell_record,
    experiment_record,
    rsa_record,
    run_all,
    save_json,
    save_text,
)
from repro.harness.figures import (
    render_figure,
    render_histogram_panel,
    render_iteration_scatter,
)
from repro.harness.report import figure7_report, figure_report, table3_report
from repro.harness.runner import (
    AdaptivePolicy,
    CellClassification,
    ExecutionPolicy,
    ResilientExecutor,
    RetryPolicy,
    SupervisedCell,
    figure7_supervised,
    figure_panels_supervised,
    plain_panels,
    plain_results,
    table3_supervised,
)
from repro.harness.tables import (
    render_defense_matrix,
    render_defense_sweep,
    render_table1,
    render_table2,
    render_table3,
)

__all__ = [
    "AdaptivePolicy",
    "CellClassification",
    "CheckpointStore",
    "ExecutionPolicy",
    "FIGURE7_EXPONENT",
    "FaultInjector",
    "FaultProfile",
    "PROFILES",
    "ResilientExecutor",
    "RetryPolicy",
    "SupervisedCell",
    "atomic_write_json",
    "atomic_write_text",
    "cell_record",
    "defense_matrix",
    "deserialize_result",
    "experiment_record",
    "fault_profile",
    "figure5_panels",
    "figure7_report",
    "figure7_result",
    "figure7_supervised",
    "figure8_panels",
    "figure_panels_supervised",
    "figure_report",
    "plain_panels",
    "plain_results",
    "predictor_comparison",
    "render_defense_matrix",
    "render_defense_sweep",
    "render_figure",
    "render_histogram_panel",
    "render_iteration_scatter",
    "render_table1",
    "render_table2",
    "render_table3",
    "rsa_record",
    "run_all",
    "save_json",
    "save_text",
    "serialize_result",
    "run_cell",
    "table3_report",
    "table3_results",
    "table3_supervised",
    "window_sweep",
]
