"""Resume equivalence: checkpoint + restore + continue must be
byte-identical to the straight-through checkpointing run.

The matrix covers every FTL variant, fresh and aged (2K P/E + 1 yr)
devices, and fault campaigns.  "Byte-identical" is asserted on the
canonical JSON of the schema-v2 result *and* on the checker's
``state_digest`` of the final logical state.
"""

import json

import pytest

from repro.api import run_spec
from repro.check import CheckConfig
from repro.faults import get_campaign
from repro.nand.reliability import AgingState
from repro.persist import latest_checkpoint, list_checkpoints, read_header
from repro.specs import HostSpec, RunOptions, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig

REQUESTS = 300
EVERY = 100


def _config(aged, faults):
    config = SSDConfig.small()
    if aged:
        config = config.with_aging(AgingState(2000, 12.0))
    if faults is not None:
        config = config.with_faults(get_campaign(faults))
    return config


def _run(config, ftl, out_dir, resume_from=None, check="on"):
    return run_spec(
        SimulationSpec(
            config=config,
            workload=WorkloadSpec("OLTP", n_requests=REQUESTS),
            ftl=ftl,
            options=RunOptions(
                check=check,
                checkpoint_every=EVERY,
                checkpoint_dir=str(out_dir),
                resume_from=resume_from,
            ),
            prefill=0.5,
            seed=11,
        )
    )


def _key(result):
    return (
        json.dumps(result.stats.to_dict(), sort_keys=True),
        result.check["state_digest"],
    )


class TestResumeEquivalence:
    @pytest.mark.parametrize("ftl", ["page", "vert", "cube", "oracle", "dftl"])
    @pytest.mark.parametrize(
        "aged,faults", [(False, None), (True, "default")]
    )
    def test_resume_matches_straight_through(self, tmp_path, ftl, aged, faults):
        config = _config(aged, faults)
        straight = _run(config, ftl, tmp_path / "straight")
        checkpoints = list_checkpoints(str(tmp_path / "straight"))
        assert len(checkpoints) == (REQUESTS - 1) // EVERY
        for checkpoint in checkpoints:
            resumed = _run(
                config, ftl, tmp_path / "resumed", resume_from=checkpoint
            )
            assert _key(resumed) == _key(straight)

    def test_resume_continues_checkpoint_sequence(self, tmp_path):
        config = _config(False, None)
        _run(config, "cube", tmp_path / "a")
        first = list_checkpoints(str(tmp_path / "a"))[0]
        _run(config, "cube", tmp_path / "b", resume_from=first)
        # the resumed run re-writes the later checkpoints into its own dir
        resumed_names = [
            header["segment"]
            for header in map(read_header, list_checkpoints(str(tmp_path / "b")))
        ]
        assert resumed_names == [2]

    def test_checkpoint_headers_are_consistent(self, tmp_path):
        config = _config(False, None)
        _run(config, "cube", tmp_path / "out")
        for index, path in enumerate(list_checkpoints(str(tmp_path / "out"))):
            header = read_header(path)
            assert header["segment"] == index + 1
            assert header["completed"] == (index + 1) * EVERY
            assert header["n_requests"] == REQUESTS
            assert header["checkpoint_every"] == EVERY
            assert header["check"] == "on"

    def test_strict_fuzzlike_seed(self, tmp_path):
        """The acceptance criterion's strict-checker cell: a fault
        campaign under check=strict resumes byte-identically."""
        config = _config(True, "default")
        straight = _run(config, "cube", tmp_path / "s", check="strict")
        checkpoint = latest_checkpoint(str(tmp_path / "s"))
        resumed = _run(
            config, "cube", tmp_path / "r", check="strict",
            resume_from=checkpoint,
        )
        assert _key(resumed) == _key(straight)


class TestCheckConfig:
    def test_straight_through_keeps_check_config(self, tmp_path):
        """A checkpointed run builds its checker from the spec's
        ``check`` value as given, so ``capture_state`` reaches the
        report exactly as in the checkpoint-off run."""
        spec = SimulationSpec(
            config=SSDConfig.small(),
            workload=WorkloadSpec("OLTP", n_requests=REQUESTS),
            ftl="cube",
            options=RunOptions(check=CheckConfig.strict(capture_state=True)),
            prefill=0.5,
            seed=11,
        )
        plain = run_spec(spec)
        checkpointed = run_spec(
            spec.with_options(
                checkpoint_every=EVERY, checkpoint_dir=str(tmp_path)
            )
        )
        assert "logical_view" in checkpointed.check
        assert checkpointed.check.keys() == plain.check.keys()
        assert read_header(latest_checkpoint(str(tmp_path)))["check"] == "strict"


class TestSingleSegment:
    @pytest.mark.parametrize("every", [400, 1000])
    def test_matches_plain_run(self, tmp_path, every):
        """With ``checkpoint_every >= n_requests`` the trace is one
        segment and no barrier fires: segmenting is the only thing the
        checkpointed path adds, so the result equals the plain run's."""
        spec = SimulationSpec(
            config=SSDConfig.small(),
            workload=WorkloadSpec("OLTP", n_requests=400),
            ftl="cube",
            host=HostSpec(queue_depth=8),
            warmup_requests=50,
            prefill=0.5,
        )
        plain = run_spec(spec)
        checkpointed = run_spec(
            spec.with_options(
                checkpoint_every=every, checkpoint_dir=str(tmp_path)
            )
        )
        assert list_checkpoints(str(tmp_path)) == []
        assert checkpointed.stats.to_dict() == plain.stats.to_dict()


class TestGcAndFlushHeavyBarriers:
    def test_tiny_segments_through_gc_pressure(self, tmp_path):
        """A near-full device with single-digit segments forces barrier
        instants right after GC bursts and mid-buffer-flush windows;
        every capture must still find the stack quiescent (the
        state_dict barrier assertions raise otherwise) and resume must
        stay byte-identical."""
        spec = SimulationSpec(
            config=SSDConfig.small(),
            workload=WorkloadSpec("OLTP", n_requests=120),
            ftl="cube",
            options=RunOptions(
                check="on",
                checkpoint_every=7,
                checkpoint_dir=str(tmp_path / "s"),
            ),
            prefill=0.9,
            seed=3,
        )
        straight = run_spec(spec)
        checkpoints = list_checkpoints(str(tmp_path / "s"))
        assert len(checkpoints) == 17
        # resume from a mid-run checkpoint (GC has already fired by then)
        resumed = run_spec(
            spec.with_options(
                checkpoint_every=None,
                checkpoint_dir=str(tmp_path / "r"),
                resume_from=checkpoints[8],
            )
        )
        assert _key(resumed) == _key(straight)

    def test_non_quiescent_capture_is_refused(self):
        """Freezing the simulation mid-flight (in-flight programs or
        staged host writes) must be impossible: state_dict() raises
        instead of capturing a torn snapshot."""
        from repro.ssd.controller import SSDSimulation
        from repro.workloads import build_workload

        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(0.5)
        trace = build_workload("OLTP", config.logical_pages, 400, seed=11)
        engine = sim.controller.engine
        state = {"outstanding": 0}
        iterator = iter(trace.requests)

        def on_complete(active, now_us):
            state["outstanding"] -= 1
            issue_next()

        def issue_next():
            request = next(iterator, None)
            if request is None:
                return
            state["outstanding"] += 1
            sim.ftl.submit(request, on_complete)

        for _ in range(16):
            issue_next()
        caught = 0
        cursor = engine.now
        for _ in range(40):
            cursor += 200.0
            engine.run(until=cursor)
            if state["outstanding"] == 0:
                break
            try:
                sim.ftl.state_dict()
            except RuntimeError:
                caught += 1
        assert caught > 0, "never caught a non-quiescent instant"
