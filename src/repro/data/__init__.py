"""Data substrate: synthetic Avazu-like CTR data and device partitioning.

The paper trains logistic-regression CTR models on a 2M-record subset of
the public Avazu click-log covering 100k devices.  That subset is not
redistributable, so this package generates a synthetic equivalent with the
same *shape*: categorical ad-impression fields hashed into a fixed feature
space, records grouped by ``device_id``, a known logistic ground truth, and
configurable per-device label skew (the paper's "differentially
distributed" 70% positive-heavy / 30% negative-heavy scenario).
"""

from repro.data.avazu import (
    AVAZU_FIELDS,
    DeviceDataset,
    FederatedDataset,
    SyntheticAvazu,
    make_federated_ctr_data,
)
from repro.data.features import HashingEncoder
from repro.data.partition import assign_delay_profiles, label_skew_device_biases

__all__ = [
    "AVAZU_FIELDS",
    "DeviceDataset",
    "FederatedDataset",
    "HashingEncoder",
    "SyntheticAvazu",
    "assign_delay_profiles",
    "label_skew_device_biases",
    "make_federated_ctr_data",
]
