"""The benchmark's tracing hooks resolve against the library's names.

perfbench/child.py wraps library functions by module attribute, for
example gradcheck.compare_single and network.eval_pau_stacked.  A renamed
or deleted attribute would otherwise only show up as a failed
``perfbench/run.py --trace 1`` run.
"""

from pathlib import Path

import pytest

from pau import approx, cli, gradcheck, network, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (approx, cli, gradcheck, network, train)


@pytest.fixture
def child(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    return child


@pytest.mark.parametrize("workload", ["init-tools", "mlp-desk"])
def test_hooks_resolve_and_restore(child, workload):
    before = [dict(vars(m)) for m in MODULES]
    rec = child.tracing.Recorder()
    child.instrument_boundaries(rec, child.State(0, child.TRAINING.get(workload)))
    child.instrument_layers(rec)
    assert gradcheck.compare_single is not before[2]["compare_single"]
    rec.restore()
    assert [dict(vars(m)) for m in MODULES] == before
