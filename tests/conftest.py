"""Shared helpers: the acceptance-criteria reporter and child-process set-up.

Each acceptance test records its criterion's outcome through the `criterion`
fixture; the terminal summary then shows one PASS/FAIL line per criterion in
every run, whether or not output capture is on. Tests that start Python in a
child process give it `src_env()`, so the child imports the same package.
"""

import os
from pathlib import Path

import pytest

import stpt

_RESULTS: dict[int, tuple[bool, str]] = {}


def src_env() -> dict[str, str]:
    """The environment, with the imported package's directory first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(stpt.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def criterion():
    def record(n: int, ok: bool, detail: str = "") -> None:
        _RESULTS[n] = (bool(ok), detail)
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {n}: {status}" + (f" ({detail})" if detail else ""))
        assert ok, f"acceptance criterion {n} failed: {detail}"
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_RESULTS):
        ok, detail = _RESULTS[n]
        line = f"criterion {n:>2}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  {detail}"
        terminalreporter.write_line(line)
