"""Exact cost counts of reduced benchmark cells: heap entries and Python calls.

Wall-clock timings swing with the host; counts do not.  Each cell here is a
reduced copy of a ``perfbench`` workload, and both of its costs are pinned
exactly:

* heap entries -- ``env._seq`` after the run, the number of entries the
  engine ever scheduled.  It is a property of the simulated program, so it
  is pinned on every interpreter.
* Python calls -- function and generator frames entered in code from
  ``src/repro``, counted by a ``sys.setprofile`` hook.  Comprehension
  frames are left out (3.12 inlines them), and builtins are not Python
  frames.  Interpreters lay out frames differently, so these are pinned
  only on the versions in :data:`CALLS_PINNED_ON`.

A change that moves a count on purpose re-pins it and records the before
and after values in CHANGES.md; an unplanned move is a finding.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro import Scenario, ScenarioConfig, tenants_for_ratio
from repro.scenarios.library import qos_guard_program
from repro.service.session import SimSession

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: Interpreters (major, minor) whose call counts are pinned below.
CALLS_PINNED_ON = {(3, 11)}

#: Ops per TC tenant of the fig7 cells, ops of the session, and the size of
#: one session ``advance`` slice (perfbench's ``SLICE_EVENTS``).
FIG7_OPS = 60
SESSION_OPS = 300
SLICE_EVENTS = 64

#: cell -> (heap entries, repro Python calls) at seed 1.
PINS = {
    "fig7-spdk": (3559, 35148),
    "fig7-nvme-opf": (2717, 33869),
    "session-qos-guard": (9986, 143543),
}


def _fig7_cell(protocol: str, ops: int) -> Scenario:
    cfg = ScenarioConfig(
        protocol=protocol,
        network_gbps=10.0,
        transport="tcp",
        op_mix="read",
        total_ops=ops,
        window_size=16,
        seed=1,
    )
    return Scenario.two_sided(cfg, tenants_for_ratio("1:4"))


def _counted(fn) -> int:
    """Run ``fn`` and return the repro Python frames it entered."""
    calls = 0

    def hook(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_PACKAGE) and code.co_name not in _INLINED:
                calls += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _run_fig7(protocol: str):
    scenario = _fig7_cell(protocol, FIG7_OPS)
    calls = _counted(scenario.run)
    return scenario.env._seq, calls


def _run_session():
    session = SimSession(qos_guard_program(total_ops=SESSION_OPS), session_id="pin")

    def drive():
        while not session.finished:
            session.advance(max_events=SLICE_EVENTS)

    calls = _counted(drive)
    assert session.error is None
    return session.env._seq, calls


_RUNNERS = {
    "fig7-spdk": lambda: _run_fig7("spdk"),
    "fig7-nvme-opf": lambda: _run_fig7("nvme-opf"),
    "session-qos-guard": _run_session,
}


@pytest.fixture(scope="module")
def measured():
    """Every cell's counts, after one warm-up cell so that lazy imports and
    test order cannot move them."""
    _fig7_cell("spdk", 20).run()
    return {cell: run() for cell, run in _RUNNERS.items()}


@pytest.mark.parametrize("cell", sorted(PINS))
def test_heap_entries_are_pinned(measured, cell):
    assert measured[cell][0] == PINS[cell][0]


@pytest.mark.parametrize("cell", sorted(PINS))
def test_python_calls_are_pinned(measured, cell):
    if sys.version_info[:2] not in CALLS_PINNED_ON:
        pytest.skip(f"call counts are pinned only on {sorted(CALLS_PINNED_ON)}")
    assert measured[cell][1] == PINS[cell][1]
