"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run_*`` (returns a structured result object) and
``format_*`` (renders the same rows/series the paper reports).  ``python -m
repro.experiments <name> --scale paper`` calls these with paper-scale
parameters; tests call them scaled down.
"""

from repro.experiments.fig5 import DeviceTraceResult, format_fig5, run_fig5_device_trace
from repro.experiments.fig6 import HybridAccuracyResult, format_fig6, run_fig6_hybrid_accuracy
from repro.experiments.fig7 import AllocationTimeResult, format_fig7, run_fig7_allocation_time
from repro.experiments.fig8 import ScalabilityResult, format_fig8, run_fig8_scalability
from repro.experiments.fig9 import TrafficImpactResult, format_fig9, run_fig9_traffic_impact
from repro.experiments.fig10 import DispatchDemoResult, format_fig10, run_fig10_dispatch_demo
from repro.experiments.fig11 import DropoutImpactResult, format_fig11, run_fig11_dropout_impact
from repro.experiments.table1 import StageMetricsResult, format_table1, run_table1_stage_metrics
from repro.experiments.table2 import CurveFidelityResult, format_table2, run_table2_curve_fidelity

__all__ = [
    "AllocationTimeResult",
    "CurveFidelityResult",
    "DeviceTraceResult",
    "DispatchDemoResult",
    "DropoutImpactResult",
    "HybridAccuracyResult",
    "ScalabilityResult",
    "StageMetricsResult",
    "TrafficImpactResult",
    "format_fig5",
    "format_fig6",
    "format_fig7",
    "format_fig8",
    "format_fig9",
    "format_fig10",
    "format_fig11",
    "format_table1",
    "format_table2",
    "run_fig5_device_trace",
    "run_fig6_hybrid_accuracy",
    "run_fig7_allocation_time",
    "run_fig8_scalability",
    "run_fig9_traffic_impact",
    "run_fig10_dispatch_demo",
    "run_fig11_dropout_impact",
    "run_table1_stage_metrics",
    "run_table2_curve_fidelity",
]
