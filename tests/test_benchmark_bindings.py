"""The benchmark wraps library functions by module and name; a moved or
renamed function must fail here rather than in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_traced_functions_are_bound(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its dir
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets = run.traced_targets()
    assert len(targets) == len(run.TRACED)
    for name, owner, attr in targets:
        assert callable(getattr(owner, attr, None)), name
