"""The benchmark's traced runs patch lshauth.cli names by string; entering
and leaving that instrumentation must find every name and restore it."""

import sys
from pathlib import Path

from lshauth import cli
from lshauth.lsh import LshIndex

LSHBENCH = Path(__file__).resolve().parent.parent / "lshbench"


def test_instrument_patches_and_restores_cli_names(monkeypatch):
    monkeypatch.syspath_prepend(str(LSHBENCH))
    import spans
    import workloads

    before = {"cli": dict(vars(cli)), "LshIndex": dict(vars(LshIndex))}
    with workloads.instrument(spans.Tracer()):
        during = {"cli": dict(vars(cli)), "LshIndex": dict(vars(LshIndex))}
    after = {"cli": dict(vars(cli)), "LshIndex": dict(vars(LshIndex))}

    patched = {(owner, name) for owner in before
               for name, value in before[owner].items()
               if during[owner][name] is not value}
    assert ("cli", "authorize_batch") in patched
    assert ("LshIndex", "insert_dataset") in patched
    assert after == before
    assert sys.modules["workloads"].cli is cli
