"""The corpus line of tools/pool_digest.py: a harness that compares two
source trees must print the same digest for the same code and another one
when a result changes."""

import functools
import importlib.util
from pathlib import Path

import widthiso

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "pool_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("pool_digest", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_corpus_digest_is_stable_and_sees_a_changed_form(monkeypatch):
    """Two runs give the same call count and digest; a canon_tdw that
    returns another form, under the same name, changes the digest only."""
    corpus = _load_tool().corpus
    calls, digest = corpus(1)
    assert calls > 500
    assert corpus(1) == (calls, digest)
    real = widthiso.canon_tdw

    @functools.wraps(real)
    def other_form(g, k):
        return widthiso.CanonicalForm(b"\0" + bytes(real(g, k)))

    monkeypatch.setattr(widthiso, "canon_tdw", other_form)
    changed_calls, changed = corpus(1)
    assert changed_calls == calls and changed != digest
