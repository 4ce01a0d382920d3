import sys

import pytest

import stablepar.par_model as par_model
from stablepar.mc import model1_preset, model2_preset
from stablepar.rng import RandomStream


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criteria's pass/fail lines after the test run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def model1():
    return model1_preset()


@pytest.fixture(scope="session")
def model2():
    return model2_preset()


@pytest.fixture()
def stream():
    return RandomStream(20260822)


@pytest.fixture()
def boundedness_calls(monkeypatch):
    """Models passed to ``check_boundedness`` while the test runs, counted
    at the name the simulation kernel calls."""
    calls = []
    original = par_model.check_boundedness

    def counting(model, *args, **kwargs):
        calls.append(model)
        return original(model, *args, **kwargs)

    monkeypatch.setattr(par_model, "check_boundedness", counting)
    return calls
