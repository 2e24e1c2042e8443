"""The checkpoint container: header schema, atomicity, and the
validation a resume performs before trusting a checkpoint."""

import json
import os
from dataclasses import replace

import pytest

from repro.api import run_spec
from repro.persist import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    config_fingerprint,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    read_header,
    validate_header,
    write_checkpoint,
)
from repro.specs import (
    HostSpec,
    RunOptions,
    SimulationSpec,
    TenantSpec,
    WorkloadSpec,
)
from repro.ssd.config import SSDConfig


def _header(**overrides):
    header = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config_fingerprint": "ab" * 32,
        "ftl": "cube",
        "workload": "OLTP",
        "seed": 7,
        "n_requests": 100,
        "queue_depth": 32,
        "warmup_requests": 0,
        "checkpoint_every": 10,
        "check": None,
        "segment": 1,
        "completed": 10,
        "clock_us": 123.5,
    }
    header.update(overrides)
    return header


class TestHeaderSchema:
    def test_valid_header_passes(self):
        assert validate_header(_header()) == []

    def test_missing_key_is_reported(self):
        header = _header()
        del header["seed"]
        problems = validate_header(header)
        assert any("seed" in problem for problem in problems)

    def test_wrong_type_is_reported(self):
        problems = validate_header(_header(n_requests="100"))
        assert any("n_requests" in problem for problem in problems)

    def test_bool_does_not_pass_as_int(self):
        problems = validate_header(_header(segment=True))
        assert any("segment" in problem for problem in problems)

    def test_future_schema_version_is_rejected(self):
        problems = validate_header(
            _header(schema_version=CHECKPOINT_SCHEMA_VERSION + 1)
        )
        assert any("schema_version" in problem for problem in problems)

    def test_non_dict_is_rejected(self):
        assert validate_header([1, 2]) != []


class TestContainer:
    def test_write_then_load_roundtrip(self, tmp_path):
        state = {"payload": [1, 2, 3]}
        path = write_checkpoint(str(tmp_path), _header(), state)
        header, loaded = load_checkpoint(path)
        assert header == _header()
        assert loaded == state

    def test_write_refuses_invalid_header(self, tmp_path):
        with pytest.raises(CheckpointError, match="seed"):
            header = _header()
            del header["seed"]
            write_checkpoint(str(tmp_path), header, {})

    def test_no_partial_directory_is_listed(self, tmp_path):
        write_checkpoint(str(tmp_path), _header(segment=1), {})
        # a half-written directory (no header yet) must be invisible
        os.makedirs(tmp_path / "ckpt_00000002")
        (tmp_path / "junk").mkdir()
        assert [os.path.basename(p) for p in list_checkpoints(str(tmp_path))] \
            == ["ckpt_00000001"]

    def test_latest_checkpoint_orders_numerically(self, tmp_path):
        for segment in (1, 2, 10):
            write_checkpoint(
                str(tmp_path),
                _header(segment=segment, completed=segment * 10),
                {},
            )
        assert latest_checkpoint(str(tmp_path)).endswith("ckpt_00000010")

    def test_rewrite_same_segment_replaces(self, tmp_path):
        write_checkpoint(str(tmp_path), _header(), {"v": 1})
        path = write_checkpoint(str(tmp_path), _header(), {"v": 2})
        _, state = load_checkpoint(path)
        assert state == {"v": 2}

    def test_corrupt_header_is_refused(self, tmp_path):
        path = write_checkpoint(str(tmp_path), _header(), {})
        with open(os.path.join(path, "header.json"), "w") as fh:
            json.dump({"schema_version": "x"}, fh)
        with pytest.raises(CheckpointError, match="invalid header"):
            read_header(path)


class TestResumeValidation:
    def _resume_spec(self, tmp_path, config):
        """Checkpoint a run; return the spec that resumes its last
        checkpoint."""
        spec = SimulationSpec(
            config=config,
            workload=WorkloadSpec("OLTP", n_requests=120),
            ftl="cube",
            options=RunOptions(
                checkpoint_every=40, checkpoint_dir=str(tmp_path / "out")
            ),
            prefill=0.4,
            seed=9,
        )
        run_spec(spec)
        return spec.with_options(
            checkpoint_every=None,
            checkpoint_dir=None,
            resume_from=latest_checkpoint(str(tmp_path / "out")),
        )

    def test_config_fingerprint_mismatch(self, tmp_path):
        config = SSDConfig.small()
        resume = self._resume_spec(tmp_path, config)
        other = SSDConfig.small(buffer_capacity_pages=12)
        assert config_fingerprint(other) != config_fingerprint(config)
        with pytest.raises(CheckpointError, match="fingerprint"):
            run_spec(replace(resume, config=other))

    def test_ftl_mismatch(self, tmp_path):
        resume = self._resume_spec(tmp_path, SSDConfig.small())
        with pytest.raises(CheckpointError, match="ftl"):
            run_spec(replace(resume, ftl="page"))

    def test_seed_mismatch(self, tmp_path):
        resume = self._resume_spec(tmp_path, SSDConfig.small())
        with pytest.raises(CheckpointError, match="seed"):
            run_spec(replace(resume, seed=10))

    def test_workload_mismatch(self, tmp_path):
        resume = self._resume_spec(tmp_path, SSDConfig.small())
        with pytest.raises(CheckpointError, match="workload"):
            run_spec(
                replace(resume, workload=WorkloadSpec("Proxy", n_requests=120))
            )


class TestApiGuards:
    def test_checkpoint_without_dir_raises(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_spec(
                SimulationSpec(
                    config=SSDConfig.small(),
                    workload=WorkloadSpec("OLTP"),
                    options=RunOptions(checkpoint_every=10),
                )
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"options": {"trace": "memory"}},
            {"options": {"profile": True}},
            {"options": {"metrics_interval": 100.0}},
            {"host": HostSpec(queue_depth=None, open_loop=True)},
            {"options": {"max_events": 10}},
            {"options": {"artifact_dir": "runs"}},
            {
                "host": HostSpec(
                    tenants=(
                        TenantSpec("a", WorkloadSpec("OLTP"), rate_iops=1e4),
                    )
                )
            },
        ],
    )
    def test_incompatible_options_raise(self, tmp_path, kwargs):
        host = kwargs.get("host", HostSpec())
        spec = SimulationSpec(
            config=SSDConfig.small(),
            # the tenant streams replace the single workload
            workload=None if host.tenants else WorkloadSpec("OLTP"),
            host=host,
            options=RunOptions(
                checkpoint_every=10,
                checkpoint_dir=str(tmp_path),
                **kwargs.get("options", {}),
            ),
        )
        with pytest.raises(ValueError, match="incompatible"):
            run_spec(spec)

    def test_telemetry_on_resume_raises(self, tmp_path):
        spec = SimulationSpec(
            config=SSDConfig.small(),
            workload=WorkloadSpec("OLTP", n_requests=120),
            ftl="cube",
            options=RunOptions(
                checkpoint_every=40, checkpoint_dir=str(tmp_path / "out")
            ),
            prefill=0.4,
            seed=9,
        )
        run_spec(spec)
        checkpoint = latest_checkpoint(str(tmp_path / "out"))
        with pytest.raises(ValueError, match="telemetry"):
            run_spec(
                spec.with_options(
                    checkpoint_every=None,
                    checkpoint_dir=None,
                    resume_from=checkpoint,
                    telemetry=True,
                )
            )

    def test_telemetry_allowed_straight_through(self, tmp_path):
        result = run_spec(
            SimulationSpec(
                config=SSDConfig.small(),
                workload=WorkloadSpec("OLTP", n_requests=120),
                ftl="cube",
                options=RunOptions(
                    telemetry=True,
                    checkpoint_every=40,
                    checkpoint_dir=str(tmp_path),
                ),
                prefill=0.4,
                seed=9,
            )
        )
        assert result.telemetry is not None
