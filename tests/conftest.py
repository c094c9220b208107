"""Fixtures shared by the test modules, and a summary line per failure
that a warning raised."""

import os
import re

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


def pytest_terminal_summary(terminalreporter):
    # pytest turns warnings into errors, and -q cuts a failure's message
    # off: give each such failure's warning in full, with its location
    stats, root = terminalreporter.stats, terminalreporter.config.rootpath
    for report in stats.get("failed", []) + stats.get("error", []):
        crash = getattr(report.longrepr, "reprcrash", None)
        if crash is not None and re.match(r"\w*Warning\b", crash.message):
            where = f"{os.path.relpath(crash.path, root)}:{crash.lineno}"
            terminalreporter.write_line(f"{report.nodeid}: {where}: {crash.message}")
