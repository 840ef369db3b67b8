"""The option table: one parser for ``set_option`` and the env override."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.internals import config


class TestSetOption:
    @pytest.mark.parametrize("raw, want", [
        ("0", False), ("false", False), ("No", False), (" off ", False),
        ("1", True), ("TRUE", True), ("yes", True), ("on", True),
        (0, False), (1, True), (False, False), (True, True),
    ])
    def test_boolean_inputs(self, raw, want):
        with config.option("ENGINE_FUSION", raw):
            assert config.ENGINE_FUSION is want
            assert config.get_option("ENGINE_FUSION") is want

    @pytest.mark.parametrize("raw", ["", "maybe", "2", "0.0"])
    def test_unrecognised_boolean_string_raises(self, raw):
        before = config.ENGINE_FUSION
        with pytest.raises(ValueError):
            config.set_option("ENGINE_FUSION", raw)
        assert config.ENGINE_FUSION is before

    def test_numeric_inputs_take_the_type_of_the_default(self):
        with config.option("MEMO_CAPACITY", "7"):
            assert config.MEMO_CAPACITY == 7
            assert isinstance(config.MEMO_CAPACITY, int)
        with config.option("RETRY_BASE_DELAY", 1):
            assert config.RETRY_BASE_DELAY == 1.0
            assert isinstance(config.RETRY_BASE_DELAY, float)
        with config.option("QUERY_DEADLINE_MS", "2.5"):
            assert config.QUERY_DEADLINE_MS == 2.5

    @pytest.mark.parametrize("name, raw", [
        ("MEMO_CAPACITY", "many"), ("MEMO_CAPACITY", "3.5"),
        ("RETRY_BASE_DELAY", "soon"),
    ])
    def test_non_numeric_string_raises(self, name, raw):
        before = config.get_option(name)
        with pytest.raises(ValueError):
            config.set_option(name, raw)
        assert config.get_option(name) == before

    def test_set_option_returns_previous_and_option_restores(self):
        before = config.INGEST_BATCH
        assert config.set_option("INGEST_BATCH", before + 1) == before
        assert config.set_option("INGEST_BATCH", before) == before + 1
        with config.option("STORE_DIR", pathlib.Path("/tmp/somewhere")):
            assert config.STORE_DIR == "/tmp/somewhere"
            with config.option("STORE_DIR", ""):
                assert config.STORE_DIR == ""
            assert config.STORE_DIR == "/tmp/somewhere"
        assert config.INGEST_BATCH == before

    def test_unknown_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            config.set_option("engine_cse", 0)          # names are exact
        with pytest.raises(KeyError):
            config.get_option("NOT_AN_OPTION")
        with pytest.raises(KeyError):
            with config.option("NOT_AN_OPTION", 1):
                pass

    def test_every_option_is_a_module_attribute_of_its_default_type(self):
        assert config._KNOWN == tuple(config.OPTIONS)
        for name, (default, doc) in config.OPTIONS.items():
            assert type(getattr(config, name)) is type(default), name
            assert doc and "\n" not in doc, name


_CHILD = """
import json
from repro.internals import config
print(json.dumps({k: getattr(config, k) for k in config._KNOWN}))
"""


def test_env_override_is_repro_prefixed_only():
    """``REPRO_<NAME>`` overrides the default through the same parser;
    an unprefixed name is not read, an unparsable value falls back."""
    src = str(pathlib.Path(config.__file__).resolve().parents[2])
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": src,
        "REPRO_ENGINE_CSE": "off",
        "ENGINE_FUSION": "0",               # unprefixed: ignored
        "REPRO_STORE": "0",                 # not REPRO_<NAME>: ignored
        "REPRO_MEMO_CAPACITY": "7",
        "REPRO_INGEST_BATCH": "lots",       # not a number: default
        "REPRO_ENGINE_DELTA": "maybe",      # not a boolean: default
        "REPRO_STORE_DIR": "/tmp/warm",
    })
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    want = {name: default for name, (default, _) in config.OPTIONS.items()}
    want.update(ENGINE_CSE=False, MEMO_CAPACITY=7, STORE_DIR="/tmp/warm")
    assert got == want
