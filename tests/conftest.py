"""Fixtures shared by the test modules."""

import pytest

from arraycov import pattern


@pytest.fixture
def forbid_parse(monkeypatch):
    """Call to fail the test if a pattern CSV is parsed after the call,
    as none is on a pattern cache hit."""

    def no_parse(path):
        raise AssertionError(f"{path} was parsed on a cache hit")

    return lambda: monkeypatch.setattr(pattern, "_read_table", no_parse)


@pytest.fixture
def count_parses(monkeypatch):
    """Call to record each pattern CSV parsed after the call; returns the
    list of their paths."""

    def start():
        parses = []
        read_table = pattern._read_table

        def counted(path):
            parses.append(path)
            return read_table(path)

        monkeypatch.setattr(pattern, "_read_table", counted)
        return parses

    return start
