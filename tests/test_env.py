"""One blank rule for every ``REPRO_*`` knob.

A variable that is set but blank is malformed and raises naming the
variable, except for a flag, where the empty word means off.
"""

import re
from pathlib import Path

import pytest

from repro import obs
from repro.core import cache, engine, shard
from repro.errors import ConfigurationError

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every numeric and directory knob, with the resolver that reads it.
BLANK_IS_MALFORMED = {
    "REPRO_WORKERS": lambda: engine.resolve_workers(None, 4),
    "REPRO_JOB_TIMEOUT": engine.resolve_job_timeout,
    "REPRO_SHARD_SERVERS": lambda: shard.resolve_shard_size(
        None, shard.SHARD_SERVERS_ENV_VAR),
    "REPRO_SHARD_STEPS": lambda: shard.resolve_shard_size(
        None, shard.SHARD_STEPS_ENV_VAR),
    "REPRO_CACHE_DIR": cache.resolve_cache_dir,
    "REPRO_CACHE_MAX_BYTES": cache.resolve_cache_max_bytes,
    "REPRO_TELEMETRY_DIR": obs.resolve_telemetry_dir,
    "REPRO_METRICS_PORT": obs.resolve_metrics_port,
}

#: Every flag, with the resolver that reads it.
FLAGS = {
    "REPRO_CACHE": cache.cache_enabled,
    "REPRO_TELEMETRY": obs.telemetry_enabled,
}


class TestBlankRule:
    def test_every_knob_is_covered(self):
        names = {name for path in SRC.rglob("*.py")
                 for name in re.findall(r"\bREPRO_[A-Z][A-Z_]*\b",
                                        path.read_text())}
        assert names == set(BLANK_IS_MALFORMED) | set(FLAGS)

    @pytest.mark.parametrize("variable", sorted(BLANK_IS_MALFORMED))
    def test_blank_raises_naming_the_variable(self, variable,
                                              monkeypatch):
        monkeypatch.setenv(variable, "  ")
        with pytest.raises(ConfigurationError, match=variable):
            BLANK_IS_MALFORMED[variable]()

    @pytest.mark.parametrize("variable", sorted(FLAGS))
    def test_empty_flag_is_off(self, variable, monkeypatch):
        monkeypatch.setenv(variable, "")
        assert FLAGS[variable]() is False
