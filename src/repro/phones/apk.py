"""APK lifecycle stages as measured in the paper's Table I."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.checks import check_count


class ApkStage(enum.IntEnum):
    """The five measurement stages of one training session (§VI-B1).

    Stage 1 — clearing background tasks without running the APK;
    Stage 2 — launching the APK without starting training;
    Stage 3 — training using the APK;
    Stage 4 — post-training with the APK still active;
    Stage 5 — exiting the APK and clearing background tasks.
    """

    NO_APK = 1
    APK_LAUNCH = 2
    TRAINING = 3
    POST_TRAINING = 4
    APK_CLOSURE = 5

    @property
    def label(self) -> str:
        """Table I row label."""
        return {
            ApkStage.NO_APK: "no APK initiated",
            ApkStage.APK_LAUNCH: "APK launch",
            ApkStage.TRAINING: "Training",
            ApkStage.POST_TRAINING: "Post-training",
            ApkStage.APK_CLOSURE: "Closure of APK",
        }[self]


@dataclass
class TrainingApk:
    """The business APK embedding the on-device training SDK.

    "Client-side federated learning algorithms are typically integrated
    into specific business APKs" (§VI-B2) — the APK identity matters to
    PhoneMgr because every quoted ADB command addresses the training
    *process* by package name or pid.
    """

    package: str = "com.simdc.train"
    activity: str = ".MainActivity"
    size_bytes: int = 48 * 1024 * 1024
    version: str = "1.4.2"

    @property
    def component(self) -> str:
        """``am start``-style component name."""
        return f"{self.package}/{self.activity}"

    def __post_init__(self) -> None:
        if not self.package or "/" in self.package:
            raise ValueError(f"invalid package name {self.package!r}")
        check_count("size_bytes", self.size_bytes)
