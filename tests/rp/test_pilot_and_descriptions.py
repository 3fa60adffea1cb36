"""Pilot entity and description validation."""

import pytest

from repro.rp import (
    InvalidTransition,
    Pilot,
    PilotDescription,
    PilotState,
    TaskDescription,
    TaskMode,
)


class TestPilotDescription:
    def test_total_nodes(self):
        pd = PilotDescription(nodes=4, agent_nodes=1, service_nodes=2)
        assert pd.total_nodes == 7

    def test_zero_compute_nodes_rejected(self):
        with pytest.raises(ValueError):
            PilotDescription(nodes=0).validate()

    def test_negative_service_nodes_rejected(self):
        with pytest.raises(ValueError):
            PilotDescription(nodes=1, service_nodes=-1).validate()

    def test_zero_walltime_rejected(self):
        with pytest.raises(ValueError):
            PilotDescription(nodes=1, walltime=0).validate()


class TestPilotEntity:
    def test_state_progression(self, env):
        pilot = Pilot(env, "pilot.0001", PilotDescription(nodes=1))
        pilot.advance(PilotState.PMGR_LAUNCHING_PENDING)
        pilot.advance(PilotState.PMGR_LAUNCHING)
        pilot.advance(PilotState.PMGR_ACTIVE_PENDING)
        pilot.advance(PilotState.PMGR_ACTIVE)
        assert pilot.active.triggered
        pilot.advance(PilotState.DONE)
        assert pilot.completed.triggered
        assert pilot.is_final

    def test_backward_transition_rejected(self, env):
        pilot = Pilot(env, "pilot.0002", PilotDescription(nodes=1))
        pilot.advance(PilotState.PMGR_ACTIVE)
        with pytest.raises(InvalidTransition):
            pilot.advance(PilotState.PMGR_LAUNCHING)

    def test_state_history_timestamps(self, env):
        pilot = Pilot(env, "pilot.0004", PilotDescription(nodes=1))
        env.run(until=7)
        pilot.advance(PilotState.PMGR_LAUNCHING)
        assert pilot.state_history[-1] == (7.0, PilotState.PMGR_LAUNCHING)


class TestTaskDescriptionDefaults:
    def test_default_mode_executable(self):
        assert TaskDescription().mode == TaskMode.EXECUTABLE

    def test_metadata_not_shared_between_instances(self):
        a, b = TaskDescription(), TaskDescription()
        a.metadata["k"] = 1
        assert "k" not in b.metadata

    def test_tags_not_shared(self):
        a, b = TaskDescription(), TaskDescription()
        a.tags["node"] = "cn0001"
        assert b.tags == {}

    def test_zero_cores_per_rank_rejected(self):
        with pytest.raises(ValueError):
            TaskDescription(cores_per_rank=0).validate()
