"""Helpers shared by the test modules (import as ``helpers``)."""


class CallbackSink:
    """An ``OutcomeSink`` that hands every outcome to ``callback``, one device at a time.

    It asks the tiers for one block per completion wave and materialises
    whatever it is handed, so the callback observes devices in completion
    order, at their completion times.
    """

    prefers_waves = True

    def __init__(self, callback) -> None:
        self.callback = callback

    def accept(self, outcome) -> None:
        self.callback(outcome)

    def accept_block(self, block) -> None:
        for outcome in block.materialize():
            self.callback(outcome)


class WholePlanSink(CallbackSink):
    """The same, served one block per plan at the plan's last completion time."""

    prefers_waves = False


def stream_states(streams) -> dict:
    """Final bit-generator state of every named stream ``streams`` handed out."""
    return {name: rng.bit_generator.state for name, rng in sorted(streams._cache.items())}
