"""Unit tests for the RP monitor's profile summarizer."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitors import summarize_profile
from repro.monitors.rp_monitor import ProfileFold
from repro.rp import ProfileRecord, TaskState
from repro.rp.states import TASK_FINAL_STATES


def rec(t, uid, state):
    return ProfileRecord(time=t, entity=uid, event="state", state=state)


def test_empty_profile():
    summary = summarize_profile([], now=100.0)
    assert summary["tasks_seen"] == 0
    assert summary["done"] == 0
    assert summary["state_counts"] == {}


def test_counts_by_last_state():
    records = [
        rec(0.0, "task.000000", TaskState.NEW),
        rec(1.0, "task.000000", TaskState.AGENT_EXECUTING),
        rec(0.0, "task.000001", TaskState.NEW),
        rec(5.0, "task.000001", TaskState.DONE),
        rec(0.0, "task.000002", TaskState.NEW),
        rec(4.0, "task.000002", TaskState.FAILED),
    ]
    summary = summarize_profile(records, now=10.0)
    assert summary["tasks_seen"] == 3
    assert summary["running"] == 1
    assert summary["done"] == 1
    assert summary["failed"] == 1
    assert summary["pending"] == 0


def test_time_in_state_accumulates():
    records = [
        rec(0.0, "task.000000", TaskState.NEW),
        rec(4.0, "task.000000", TaskState.AGENT_EXECUTING),
        rec(10.0, "task.000000", TaskState.DONE),
    ]
    summary = summarize_profile(records, now=20.0)
    assert summary["time_in_state"][TaskState.NEW] == pytest.approx(4.0)
    assert summary["time_in_state"][TaskState.AGENT_EXECUTING] == (
        pytest.approx(6.0)
    )
    # DONE is final: no open interval accrues to 'now'.
    assert TaskState.DONE not in summary["time_in_state"]


def test_open_interval_accrues_to_now():
    records = [rec(2.0, "task.000000", TaskState.AGENT_SCHEDULING)]
    summary = summarize_profile(records, now=12.0)
    assert summary["time_in_state"][TaskState.AGENT_SCHEDULING] == (
        pytest.approx(10.0)
    )
    assert summary["pending"] == 1


def test_non_task_entities_ignored():
    records = [
        ProfileRecord(0.0, "pilot.0000", "state", "PMGR_ACTIVE"),
        rec(0.0, "task.000000", TaskState.NEW),
    ]
    summary = summarize_profile(records, now=5.0)
    assert summary["tasks_seen"] == 1


def test_sub_state_events_do_not_change_state():
    records = [
        rec(0.0, "task.000000", TaskState.AGENT_EXECUTING),
        ProfileRecord(
            1.0, "task.000000", "rank_start", TaskState.AGENT_EXECUTING
        ),
    ]
    summary = summarize_profile(records, now=5.0)
    assert summary["running"] == 1
    assert summary["state_counts"] == {TaskState.AGENT_EXECUTING: 1}


def full_reparse(records, now):
    """The monitor's original summary: one pass over every record."""
    last_state, entered, time_in_state = {}, {}, Counter()
    for record in records:
        if not record.entity.startswith("task.") or record.event != "state":
            continue
        prev = last_state.get(record.entity)
        if prev is not None:
            time_in_state[prev] += record.time - entered[record.entity]
        last_state[record.entity] = record.state
        entered[record.entity] = record.time
    for uid, state in last_state.items():
        if state not in TASK_FINAL_STATES:
            time_in_state[state] += now - entered[uid]
    counts = Counter(last_state.values())
    return {
        "tasks_seen": len(last_state),
        "state_counts": dict(counts),
        "time_in_state": dict(time_in_state),
        "done": counts.get(TaskState.DONE, 0),
        "failed": counts.get(TaskState.FAILED, 0),
        "running": counts.get(TaskState.AGENT_EXECUTING, 0),
        "pending": sum(
            n
            for state, n in counts.items()
            if state not in TASK_FINAL_STATES and state != TaskState.AGENT_EXECUTING
        ),
    }


def ordered(summary):
    """Items at every level: key order becomes Conduit child order."""
    return [
        (key, list(value.items()) if isinstance(value, dict) else value)
        for key, value in summary.items()
    ]


entry = st.tuples(
    st.floats(min_value=0.0, max_value=50.0),  # time step
    st.sampled_from(["task.000000", "task.000001", "task.000002", "pilot.0000"]),
    st.sampled_from(["state", "state", "rank_start", "exec_stop"]),
    st.sampled_from(
        [
            TaskState.NEW,
            TaskState.AGENT_SCHEDULING,
            TaskState.AGENT_EXECUTING,
            TaskState.DONE,
            TaskState.FAILED,
            TaskState.CANCELED,
        ]
    ),
)


@given(
    st.lists(entry, max_size=40),
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=10),
    st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=200)
def test_running_fold_matches_full_reparse(entries, chunks, lag):
    records, t = [], 0.0
    for step, entity, event, state in entries:
        t += step
        records.append(ProfileRecord(t, entity, event, state))
    fold, cursor = ProfileFold(), 0
    for size in chunks + [len(records)]:
        fold.fold(records[cursor : cursor + size])
        cursor = min(cursor + size, len(records))
        assert fold.folded == cursor
        prefix = records[:cursor]
        now = (prefix[-1].time if prefix else 0.0) + lag
        expected = ordered(full_reparse(prefix, now))
        assert ordered(fold.snapshot(now)) == expected
        assert ordered(summarize_profile(prefix, now)) == expected
