"""The ``run(optimize=/passes=/noise_model=)`` keywords are gone (0.10.0).

``options=RunOptions(...)`` is the only spelling; nothing on the run path
warns any more.
"""

import inspect
import warnings

import pytest

from repro import Circuit, RunOptions
from repro.sim import BaseBackend, StatevectorBackend, run
from repro.transpile import FuseAdjacentGates


def _caught(callable_):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        callable_()
    return [w for w in caught if issubclass(w.category, DeprecationWarning)]


class TestLegacyKeywordDeprecation:
    def test_options_path_is_silent(self):
        circuit = Circuit(1).h(0)
        options = RunOptions(optimize=True, passes=[FuseAdjacentGates()])
        assert _caught(lambda: StatevectorBackend().run(circuit, options=options)) == []
        assert _caught(lambda: run(circuit, options=options)) == []

    def test_backend_keyword_is_not_deprecated(self):
        circuit = Circuit(1).h(0)
        assert _caught(lambda: run(circuit, backend="density_matrix")) == []

    @pytest.mark.parametrize("keyword", ["optimize", "passes", "noise_model"])
    def test_module_run_rejects_removed_keywords(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            run(Circuit(1).h(0), **{keyword: None})

    def test_run_signatures_have_one_spelling(self):
        assert list(inspect.signature(run).parameters) == [
            "circuit",
            "initial_state",
            "backend",
            "options",
        ]
        assert list(inspect.signature(BaseBackend.run).parameters) == [
            "self",
            "circuit",
            "initial_state",
            "options",
        ]
