"""Helpers shared by the test modules (import as ``helpers``)."""

import numpy as np
from reference.tier_reference import materialize

from repro.deviceflow import MessageBlock


def one_row(device_id, *, task_id="t", round_index=1, n_samples=1, size_bytes=0, update=None):
    """One device's message as a block of one row.

    ``update`` is a ``ModelUpdate`` whose parameters ride along as the
    row's stacked arrays (and whose sample count wins over ``n_samples``).
    """
    return MessageBlock(
        task_id=task_id,
        round_index=round_index,
        device_ids=[device_id],
        size_bytes=size_bytes,
        n_samples=[n_samples if update is None else update.n_samples],
        update_weights=None if update is None else update.weights[None],
        update_biases=None if update is None else np.array([update.bias]),
    )


class CallbackSink:
    """An ``OutcomeSink`` that hands every outcome to ``callback``, one device at a time.

    It asks the tiers for one block per completion wave and materialises
    whatever it is handed, so the callback observes devices in completion
    order, at their completion times; :attr:`blocks` keeps what it was
    handed (a block, or a segment of one), in delivery order.  ``accept`` is what the per-device
    reference tiers call.
    """

    prefers_waves = True

    def __init__(self, callback=lambda outcome: None) -> None:
        self.callback = callback
        self.blocks: list[MessageBlock] = []

    def accept(self, outcome) -> None:
        self.callback(outcome)

    def accept_block(self, block) -> None:
        self.blocks.append(block)
        for outcome in materialize(block):
            self.callback(outcome)


class WholePlanSink(CallbackSink):
    """The same, served one block per plan at the plan's last completion time."""

    prefers_waves = False


def stream_states(streams) -> dict:
    """Final bit-generator state of every named stream ``streams`` handed out."""
    return {name: rng.bit_generator.state for name, rng in sorted(streams._cache.items())}
