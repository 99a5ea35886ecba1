"""The phone tier's per-phone clock and scalar session replay.

As they stood before the tier became array passes over a whole plan: one
push-duration vector and one ``cumsum`` per computing phone
(:func:`completion_times`), and a phone's session accounts kept as running
sums in Python locals, one session at a time (:func:`replay_training_sessions`).
``tests/test_phone_array_passes.py`` holds ``PhoneMgr._completion_times``,
``session_accounts`` and ``VirtualPhone.replay_training_sessions`` to them
bit for bit; :class:`ClockReferencePhoneMgr` runs whole rounds on them.
Do not optimise it.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.phones import PhoneMgr
from repro.phones.apk import ApkStage
from repro.phones.phone import TRAINING_CONTROL_BYTES

from reference.adb_reference import push_duration


def replay_training_sessions(phone, start_times, duration: float, upload_bytes: int) -> None:
    """Apply back-to-back training sessions starting at ``start_times`` to ``phone``.

    Each entry enters TRAINING at ``t`` and POST_TRAINING at ``t + duration``;
    every addition happens in the order, and on the values, of per-event
    ``_enter_stage`` calls (elapsed is ``(start + duration) - start``).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if upload_bytes < 0:
        raise ValueError("upload_bytes must be >= 0")
    if phone.running_pid is None:
        raise RuntimeError(f"{phone.serial}: no running APK to train in")
    starts = np.asarray(start_times, dtype=np.float64).tolist()
    if not starts:
        return
    duration = float(duration)
    upload_bytes = int(upload_bytes)
    phone._enter_stage(ApkStage.TRAINING, at=starts[0])
    training_draw = phone.spec.stage_current(ApkStage.TRAINING)
    post_draw = phone.spec.stage_current(ApkStage.POST_TRAINING)
    battery = phone.battery
    consumed_total = battery.consumed_mah
    energy = phone.stage_energy_mah
    stage_durations = phone.stage_durations
    training_energy = energy.get(ApkStage.TRAINING, 0.0)
    training_time = stage_durations.get(ApkStage.TRAINING, 0.0)
    post_energy = energy.get(ApkStage.POST_TRAINING, 0.0)
    post_time = stage_durations.get(ApkStage.POST_TRAINING, 0.0)
    post_touched = False
    finish = starts[0]
    for index, start in enumerate(starts):
        if index:
            gap = start - finish
            if gap > 0:
                consumed = post_draw * gap / 3600.0
                consumed_total += consumed
                post_energy += consumed
                post_time += gap
                post_touched = True
        finish = start + duration
        elapsed = finish - start
        if elapsed > 0:
            consumed = training_draw * elapsed / 3600.0
            consumed_total += consumed
            training_energy += consumed
            training_time += elapsed
    phone._net_tx_base += len(starts) * (upload_bytes + TRAINING_CONTROL_BYTES // 2)
    phone._net_rx_base += len(starts) * (TRAINING_CONTROL_BYTES - TRAINING_CONTROL_BYTES // 2)
    battery.consumed_mah = consumed_total
    energy[ApkStage.TRAINING] = training_energy
    stage_durations[ApkStage.TRAINING] = training_time
    if post_touched:
        energy[ApkStage.POST_TRAINING] = post_energy
        stage_durations[ApkStage.POST_TRAINING] = post_time
    phone.sessions_completed += len(starts)
    phone._training_started_at = starts[-1]
    phone._training_duration = duration
    phone._training_upload_bytes = upload_bytes
    phone.stage = ApkStage.POST_TRAINING
    phone._stage_entered_at = finish


def completion_times(mgr: PhoneMgr, plan, model_bytes: int, upload_bytes: int):
    """``PhoneMgr._completion_times`` as one clock per computing phone.

    Phone ``p``'s queue holds plan rows ``p, p + n_phones, ...``; its pushes
    are one scalar ``reference.adb_reference.push_duration`` per queued
    device and its clock one interleaved cumsum
    ``((now + push) + training) + upload``.
    """
    total = len(plan.devices)
    phones = mgr.computing_phones[plan.grade]
    n_phones = len(phones)
    duration = mgr.cost_model.training_duration(plan.grade, plan.flow.total_work)
    data_bytes = plan.devices.staged_bytes()
    finished = np.empty(total, dtype=np.float64)
    queues = []
    for p, phone in enumerate(phones[:total]):
        pushes = [push_duration(mgr.adb, phone.serial, n_bytes) for n_bytes in data_bytes[p::n_phones] + model_bytes]
        steps = np.empty(3 * len(pushes) + 1, dtype=np.float64)
        steps[0] = mgr.sim.now
        steps[1::3] = pushes
        steps[2::3] = duration
        steps[3::3] = upload_bytes / phone.spec.network_bandwidth_bps
        times = np.cumsum(steps)
        finished[p::n_phones] = times[3::3]
        replay = partial(replay_training_sessions, phone, times[1::3], duration, upload_bytes)
        queues.append((slice(p, total, n_phones), replay))
    return finished, queues


class ClockReferencePhoneMgr(PhoneMgr):
    """``PhoneMgr`` on the per-phone clock and the scalar replay."""

    _completion_times = completion_times
