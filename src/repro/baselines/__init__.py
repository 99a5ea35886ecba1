"""Comparator simulators for the scalability study (Fig. 8).

§VI-B4 compares SimDC's single-round wall time against FedScale and
FederatedScope across 100-100,000 simulated devices.  Neither framework
is available offline, so this package re-implements their *execution
semantics* as calibrated closed-form cost models:

* **FedScale-like** — "does not use device-cloud communication during
  simulations.  Its data and models are stored directly in memory, and
  data is transferred only between memories when simulating different
  clients": a pure in-process round with a tiny per-client constant.
* **FederatedScope-like** — "employs a similar strategy for data and
  models and can only use a single resource instance to simulate
  clients", while still "independently simulat[ing] clients and us[ing]
  device-cloud communication for aggregation": per-client compute plus a
  communication term, bounded by one machine's cores.

SimDC's own column is not modelled here: :mod:`repro.experiments.fig8`
measures it by running the logical tier.
"""

from repro.baselines.models import FedScaleLikeSimulator, FederatedScopeLikeSimulator

__all__ = ["FedScaleLikeSimulator", "FederatedScopeLikeSimulator"]
