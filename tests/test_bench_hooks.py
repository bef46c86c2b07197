"""The benchmark's per-layer tracer still finds every hook it wraps.

``bench/layers.py`` wraps library functions and methods by name from
outside the library.  Installing it on the current source must replace
every hooked attribute, and uninstalling it must put back each original, so
that a refactor which renames or moves a hooked name (a method inherited
instead of defined in its own class body, say) fails here.
"""

import importlib.util
import os
import sys

import pytest

import spindeq

LAYERS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "layers.py")


def _namespaces():
    """Every spindeq module namespace and every class dict that may be hooked."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "spindeq" or name.startswith("spindeq.")):
            out[name] = module.__dict__
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__.startswith("spindeq"):
                    out[f"{value.__module__}.{value.__qualname__}"] = value.__dict__
    return out


def _snapshot():
    return {name: dict(space) for name, space in _namespaces().items()}


@pytest.fixture
def layers():
    spec = importlib.util.spec_from_file_location("spindeq_bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_hook_and_restores_the_library(layers):
    before = _snapshot()
    tracer = layers.Tracer()
    try:
        tracer.install()
        hooked = {(id(owner), attr) for owner, attr, _original in tracer._restore}
        for _name, owner, attr, _extra in layers.SPANNED:
            if isinstance(owner, type):
                assert (id(owner), attr) in hooked, f"{owner.__qualname__}.{attr}"
            else:
                assert getattr(owner, attr) is not before[owner.__name__][attr], attr
        for _name, cls, attrs, _timed in layers.LEAVES:
            for attr in attrs:
                assert (id(cls), attr) in hooked, f"{cls.__qualname__}.{attr}"
        # A hooked function is replaced in every namespace that binds it.
        assert spindeq.quantum.product is spindeq.grassmann.product
        assert spindeq.quantum.product is not before["spindeq.grassmann"]["product"]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    for name, space in before.items():
        changed = [attr for attr in space if after[name].get(attr) is not space[attr]]
        assert not changed, f"{name}: {changed} not restored"



def test_both_operator_callers_count_as_operator_applications(layers):
    # The spin words and the CPI operator share GrassmannOperator.apply, so
    # the per-layer metric sees both.
    sx = spindeq.quantum.spin_operators()[0]
    liouville = spindeq.build_cpi_hamiltonian(spindeq.CpiSpec("bosonic"))
    tracer = layers.Tracer()
    try:
        tracer.install()
        tracer.begin_op(0)
        sx.apply_state_via_words(spindeq.quantum.SpinState(1, 0))
        liouville.apply(liouville.context.sym("q"))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert tracer.counts["grassmann.operator_apply.calls"] == 2
