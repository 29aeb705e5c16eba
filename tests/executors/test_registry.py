"""Executor registry: lookup, typed errors, plugin hygiene."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.executors import (
    Executor,
    SerialExecutor,
    UnknownExecutorError,
    executor_names,
    get_executor,
    get_executor_info,
    iter_executor_info,
    register_executor,
    unregister_executor,
)


class TestBuiltins:
    def test_builtins_register_in_order(self):
        names = executor_names()
        assert names[:3] == ["serial", "pool", "subprocess-workers"]

    def test_info_carries_title_description_tags(self):
        for info in iter_executor_info():
            assert info.name
            assert info.title
            assert isinstance(info.tags, tuple)
        subproc = get_executor_info("subprocess-workers")
        assert "fault-tolerant" in subproc.tags
        assert "heartbeat" in subproc.description.lower()

    def test_get_executor_builds_ready_instances(self):
        serial = get_executor("serial")
        assert isinstance(serial, Executor)
        assert serial.name == "serial"
        assert serial.workers == 1

        pool = get_executor("pool", workers=3)
        assert pool.name == "pool"
        assert pool.workers == 3

        subproc = get_executor("subprocess-workers", workers=2)
        try:
            assert subproc.name == "subprocess-workers"
            assert subproc.workers == 2
            assert not subproc._workers  # lazy: nothing spawned yet
        finally:
            subproc.close()

    def test_unknown_executor_is_a_typed_error_naming_knowns(self):
        with pytest.raises(UnknownExecutorError, match="serial"):
            get_executor_info("warp-drive")
        # The CLI and job service catch ConfigError for exit-1 handling.
        assert issubclass(UnknownExecutorError, ConfigError)


class TestPluginHygiene:
    def test_register_and_unregister_a_custom_backend(self):
        try:

            @register_executor(
                "unit-test-backend",
                title="registry test double",
                tags=("test",),
            )
            def make_test_backend(workers=None):
                return SerialExecutor()

            assert "unit-test-backend" in executor_names()
            assert isinstance(get_executor("unit-test-backend"), Executor)
        finally:
            unregister_executor("unit-test-backend")
        assert "unit-test-backend" not in executor_names()

    def test_duplicate_name_requires_replace(self):
        with pytest.raises(ConfigError, match="already registered"):

            @register_executor("serial")
            def clobber(workers=None):  # pragma: no cover - never called
                return SerialExecutor()

        # Explicit replace is allowed (and reversible).
        original = get_executor_info("serial")
        try:

            @register_executor("serial", title="override", replace=True)
            def override(workers=None):
                return SerialExecutor()

            assert get_executor_info("serial").title == "override"
        finally:
            unregister_executor("serial")
            register_executor(
                "serial",
                title=original.title,
                description=original.description,
                tags=original.tags,
            )(original.factory)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):

            @register_executor("")
            def nameless(workers=None):  # pragma: no cover - never called
                return SerialExecutor()

    def test_factory_must_return_an_executor(self):
        try:

            @register_executor("broken-backend")
            def make_broken(workers=None):
                return "not an executor"

            with pytest.raises(ConfigError, match="not an Executor"):
                get_executor("broken-backend")
        finally:
            unregister_executor("broken-backend")
