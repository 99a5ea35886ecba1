"""Logical Simulation substrate: a Ray-on-Kubernetes-like cluster model.

The paper's logical tier deploys Ray clusters on elastic Kubernetes nodes;
a master "Ray Runner" downloads data, configures runtime parameters, and
launches placement groups of actors on worker nodes, "with each actor
sequentially simulating multiple devices" (§IV-A).

This package rebuilds that substrate over the discrete-event kernel: nodes
with CPU/memory/GPU capacity, placement groups packed onto nodes, and a
per-grade count of actors that work through their queues of simulated
devices while advancing simulated time by a calibrated cost model.
"""

from repro.cluster.cluster import K8sCluster
from repro.cluster.cost import LogicalCostModel
from repro.cluster.placement import PlacementGroup
from repro.cluster.resources import NodeSpec, ResourceBundle
from repro.cluster.rounds import DeviceColumns
from repro.cluster.runner import GradeExecutionPlan, LogicalSimulation

__all__ = [
    "DeviceColumns",
    "GradeExecutionPlan",
    "K8sCluster",
    "LogicalCostModel",
    "LogicalSimulation",
    "NodeSpec",
    "PlacementGroup",
    "ResourceBundle",
]
