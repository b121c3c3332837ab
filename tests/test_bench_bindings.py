"""The names that the benchmark's tracer rebinds stay where it looks them up.

``perfbench/spans.py``'s ``Tracer.install`` reads ``owner.__dict__[attr]``
for each of its bindings and wraps it.  A package change that inlined,
renamed or moved one of these names would pass every other test but stop a
traced run (``--trace 1``) with a ``KeyError``.
"""

import pytest

from conftest import load_perfbench

BINDINGS = [(owner, attr) for owner, attr, _, _ in
            load_perfbench("spans")._bindings()]


@pytest.mark.parametrize("owner, attr", BINDINGS,
                         ids=[f"{o.__name__}.{a}" for o, a in BINDINGS])
def test_traced_name_is_an_own_callable(owner, attr):
    assert attr in vars(owner)
    assert callable(vars(owner)[attr])
