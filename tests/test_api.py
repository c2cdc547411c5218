import importlib
import sys

import pytest

import unlinkeval as ue


def test_every_public_name_resolves_once():
    missing = [name for name in ue.__all__ if not hasattr(ue, name)]
    assert missing == []
    assert len(set(ue.__all__)) == len(ue.__all__)


def test_hypothesis_can_report_a_failure_under_the_suite_warning_filters(monkeypatch):
    # To print a failing example Hypothesis imports hypothesis.extra._patching,
    # and with it libcst; a warning raised as an error there stops the whole
    # session.  importorskip imports with warnings silenced, so the modules
    # are dropped (and restored afterwards) to import them again here.
    pytest.importorskip("libcst")
    for name in [m for m in sys.modules if m.split(".")[0] == "libcst" or m == "hypothesis.extra._patching"]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("hypothesis.extra._patching")
