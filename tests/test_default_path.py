"""The default path: compiled tiers when a backend exists, NumPy when not.

``CounterfactualEngine()`` with no tier arguments runs the compiled
replay and abduction tiers.  On a machine where no compiled backend
(numba or cc+cffi) can be built, that default must quietly become the
NumPy path: the same answers as naming ``"numpy"`` for both stages, and
no warning, since the user asked for nothing in particular.  A caller who
names ``"compiled"`` explicitly keeps the once-per-process
``RuntimeWarning``.

"No backend" is simulated by making every kernel module's
``available()`` return False.  ``FORCE_PYTHON`` would not do: it counts
as available, so it drives the compiled code path through the Python
mirrors instead of degrading.
"""

from __future__ import annotations

import warnings

import pytest

from repro import (
    CounterfactualEngine,
    change_abr,
    change_buffer,
    paper_corpus,
    paper_setting_a,
    paper_veritas_config,
)
from repro.abr import _decisions
from repro.core import _kernels
from repro.player import _fused
from repro.tcp import _compiled
from repro.util import compiled as compiled_util


@pytest.fixture
def no_backend(monkeypatch):
    for module in (_compiled, _fused, _decisions, _kernels):
        monkeypatch.setattr(module, "available", lambda: False)
    # The ABR deciders gate on use_kernel() (a real backend only), not
    # on available().
    monkeypatch.setattr(_decisions, "use_kernel", lambda: False)
    monkeypatch.setattr(compiled_util, "_WARNED", set())


@pytest.fixture(scope="module")
def workload():
    setting_a = paper_setting_a(seed=7)
    traces = paper_corpus(count=2, duration_s=400.0, seed=31)
    settings_b = [change_abr(setting_a, "bba"), change_buffer(setting_a, 30.0)]
    return setting_a, traces, settings_b


def answer(workload, **tiers):
    setting_a, traces, settings_b = workload
    engine = CounterfactualEngine(
        paper_veritas_config(), n_samples=3, seed=5, **tiers
    )
    prepared = engine.prepare_corpus(traces, setting_a)
    return [r.per_trace for r in engine.evaluate_many(prepared, settings_b)]


def fallback_warnings(caught):
    return [
        w for w in caught
        if issubclass(w.category, RuntimeWarning)
        and "falling back" in str(w.message)
    ]


def test_default_engine_reports_live_tier():
    engine = CounterfactualEngine()
    replay = "compiled" if _compiled.available() else "numpy"
    abduction = "compiled" if _kernels.available() else "numpy"
    assert (engine.kernel, engine.abduction_kernel) == (replay, abduction)


def test_default_degrades_silently_to_numpy(workload, no_backend):
    engine = CounterfactualEngine()
    assert (engine.kernel, engine.abduction_kernel) == ("numpy", "numpy")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        default = answer(workload)
    numpy_path = answer(workload, kernel="numpy", abduction_kernel="numpy")
    assert default == numpy_path  # bit-identical answers


@pytest.mark.parametrize(
    "tiers, request_text",
    [
        ({"kernel": "compiled"}, 'kernel="compiled"'),
        ({"abduction_kernel": "compiled"}, 'abduction kernel "compiled"'),
    ],
)
def test_explicit_compiled_warns_once(workload, no_backend, tiers, request_text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = answer(workload, **tiers)
        answer(workload, **tiers)  # a second run in the same process
    warned = fallback_warnings(caught)
    assert len(warned) == 1, [str(w.message) for w in warned]
    assert request_text in str(warned[0].message)
    assert first == answer(workload, kernel="numpy", abduction_kernel="numpy")
