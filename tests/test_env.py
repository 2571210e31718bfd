"""The one rule for ``REPRO_*`` values (``repro.env``), seen through the
public readers of each variable."""

from __future__ import annotations

import pickle

import pytest

from repro import env
from repro.harness.parallel import STRICT_ENV_VAR, strict_no_capture
from repro.service import results as result_store
from repro.service.client import ENV_ADDR, env_address
from repro.trace import cache as trace_cache


@pytest.mark.parametrize("spelling", ["1", "on", " ON ", "true", "yes"])
def test_an_on_spelling_names_no_directory(spelling, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(trace_cache.ENV_VAR, spelling)
    with pytest.raises(env.EnvError, match=trace_cache.ENV_VAR):
        trace_cache.cache_dir()
    monkeypatch.setenv(result_store.ENV_VAR, spelling)
    with pytest.raises(env.EnvError, match=result_store.ENV_VAR):
        result_store.store_dir()
    with pytest.raises(env.EnvError, match=result_store.ENV_VAR):
        result_store.resolve_store()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelling", ["1", "on", " ON ", "true", "yes"])
def test_an_on_spelling_names_no_store_directory(
    spelling, monkeypatch, tmp_path, capsys
):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    with pytest.raises(env.EnvError, match="--store"):
        result_store.resolve_store(spelling)
    assert main(["serve", "--store", spelling, "--bind", "127.0.0.1:0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"repro: --store={spelling!r}: names no directory (give a path, or off)"
    ]
    assert list(tmp_path.iterdir()) == []


def test_a_directory_value_is_stripped(monkeypatch, tmp_path):
    monkeypatch.setenv(result_store.ENV_VAR, f" {tmp_path} ")
    assert result_store.store_dir() == tmp_path


@pytest.mark.parametrize("spelling", ["enabled", "2", "y"])
def test_strict_rejects_what_is_neither_on_nor_off(spelling, monkeypatch):
    monkeypatch.setenv(STRICT_ENV_VAR, spelling)
    with pytest.raises(env.EnvError, match=f"{STRICT_ENV_VAR}='{spelling}'"):
        strict_no_capture()


@pytest.mark.parametrize("blank", ["", "  "], ids=["empty", "spaces"])
def test_a_blank_value_reads_as_unset(blank, monkeypatch):
    monkeypatch.setenv(ENV_ADDR, blank)
    assert env_address() is None


def test_errors_pickle_back_from_pool_workers(monkeypatch):
    monkeypatch.setenv(ENV_ADDR, "abc")
    with pytest.raises(env.EnvError) as caught:
        env_address()
    copy = pickle.loads(pickle.dumps(caught.value))
    assert type(copy) is env.EnvError
    assert str(copy) == str(caught.value) == (
        f"{ENV_ADDR}='abc': expected host:port, got 'abc'"
    )
