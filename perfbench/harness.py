"""Closed-loop job runner and the statistics the benchmark reports.

One client runs a workload's jobs one after another.  Jobs come in rounds:
each round is the workload's whole job list (its slots), run in a seeded
order, and every round runs the same slots on inputs of the same shape.
Answers are kept and checked after the timed phase, so checking costs no
job time.

On a shared host the speed of a process can drift by a third and more over
tens of seconds, in wall and CPU time alike.  So every timing is taken at
reference speed: a fixed calibration kernel (pure-Python and numpy work) runs
between jobs, and a job's wall time is scaled by REFERENCE_S over the mean of
the kernel's times just before and just after it.  A value therefore reads
as seconds on a host where the kernel takes REFERENCE_S; the runs print
their wall-clock values next to it.

Latency statistics are taken over slots, not over single job runs: each
slot's latency is the median of its runs at reference speed, so one run
that a stall hit does not move it.  The median and tail over slots then
pick the same slots from run to run, because a change of host speed scales
every slot alike.
"""

import gc
import math
import statistics
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from tracing import JOB, clock

TAIL = 0.9
REFERENCE_S = 0.005  # the calibration kernel's time at reference speed
_CAL_MATRIX = np.random.default_rng(0).standard_normal((64, 64))
_CAL_VECTOR = np.random.default_rng(1).standard_normal(200_000)


def calibrate():
    """Wall seconds for one run of the fixed calibration kernel."""
    t0 = clock()
    total, table = 0, {}
    for i in range(20_000):
        total += i * i
        table[i & 255] = total
    for _ in range(3):
        _CAL_MATRIX @ _CAL_MATRIX
        np.sort(_CAL_VECTOR[:50_000])
        _CAL_VECTOR.sum()
    return clock() - t0


def timed(fn):
    """Run ``fn`` between two calibrations; returns its result, its wall
    seconds and the factor that takes them to reference speed."""
    before = calibrate()
    t0 = clock()
    result = fn()
    wall = clock() - t0
    return result, wall, 2 * REFERENCE_S / (before + calibrate())


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    key: Any = None  # groups jobs for a workload's cross-job checks


@dataclass
class Record:
    round: int
    job: Job
    answer: Any
    error: Optional[str]
    latency: float  # wall seconds
    slot: int = 0  # the job's index in its round's list, before shuffling
    speed: float = 1.0  # factor from wall seconds to reference speed


def run_rounds(workload, state, rng, seconds, tracer=None, whole_rounds=False,
               probe=None, probe_every=None):
    """Run rounds until ``seconds`` of job time have passed, and at least
    one whole round.

    With ``whole_rounds`` the last round is finished; otherwise the run
    stops after the job that uses up the time.  ``probe`` is called between
    jobs, untimed, each time another ``probe_every`` seconds of job time
    have passed.  Returns the records, the wall time of the timed phase and
    the number of whole rounds.  The timed phase is the jobs themselves:
    building a round's inputs is not timed, and neither are the calibration
    between jobs and the garbage collection run before each job, so that no
    job pays for the garbage of the one before it.
    """
    records, wall, rounds = [], 0.0, 0
    next_probe = probe_every
    before = calibrate()
    while rounds < 1 or wall < seconds:
        jobs = workload.make_round(state, rng)
        for slot in rng.permutation(len(jobs)):
            job = jobs[slot]
            gc.collect()
            span = tracer.open(JOB, job=len(records)) if tracer else None
            t0 = clock()
            try:
                answer, error = job.run(), None
            except Exception as exc:  # a failed job is counted, not fatal
                answer, error = None, f"{type(exc).__name__}: {exc}"
            latency = clock() - t0
            if span is not None:
                tracer.close(span)
            after = calibrate()
            records.append(Record(rounds, job, answer, error, latency, int(slot),
                                  2 * REFERENCE_S / (before + after)))
            before = after
            wall += latency
            if probe is not None and wall >= next_probe:
                probe()
                next_probe = wall + probe_every
                before = calibrate()
            if rounds >= 1 and wall >= seconds and not whole_rounds:
                return records, wall, rounds
        rounds += 1
    return records, wall, rounds


def verify(workload, records):
    """Map record index -> reason for every job that raised, answered
    wrongly or failed a cross-job check of its round."""
    failures = {}
    for i, rec in enumerate(records):
        reason = rec.error
        if reason is None:
            try:
                reason = rec.job.check(rec.answer)
            except Exception as exc:  # a broken answer must not stop the run
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures[i] = f"{rec.job.label}: {reason}"
    cross = getattr(workload, "round_check", None)
    if cross is not None:
        by_round = {}
        for i, rec in enumerate(records):
            by_round.setdefault(rec.round, []).append((i, rec))
        for group in by_round.values():
            for i, reason in cross(group).items():
                failures.setdefault(i, f"{records[i].job.label}: {reason}")
    return failures


def slot_latencies(records, reference=True):
    """Each slot's latency: the median of its runs, at reference speed (or
    in wall seconds)."""
    runs = {}
    for rec in records:
        runs.setdefault(rec.slot, []).append(
            rec.latency * rec.speed if reference else rec.latency)
    return {slot: statistics.median(values) for slot, values in runs.items()}


def latency_metrics(records, failed, reference=True):
    """jobs_per_s, job_p50_s and job_tail_s from the slot latencies.

    jobs_per_s is the round's job count over the round's time (the sum of
    the slot latencies), times the share of jobs that passed.
    """
    values = list(slot_latencies(records, reference).values())
    return {
        "jobs_per_s": (1 - failed / len(records)) * len(values) / sum(values),
        "job_p50_s": middle_mean(values),
        "job_tail_s": percentile(values, TAIL),
    }


def middle_mean(values, width=0.2):
    """Mean of the middle ``width`` of the sorted values: a median that does
    not jump when two slots next to the middle trade places across a gap."""
    ordered = sorted(values)
    lo = math.floor(len(ordered) * (1 - width) / 2)
    hi = math.ceil(len(ordered) * (1 + width) / 2)
    return statistics.fmean(ordered[lo:hi])


def percentile(values, q):
    """Nearest-rank percentile: the ceil(q n)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
