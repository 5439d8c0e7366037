"""Registry error paths, lazy entries, plugin loading, and the contents
of the built-in component registries (``src/repro/registry.py``)."""

import sys
import textwrap

import pytest

from repro import config
from repro.registry import (KERNELS, MECHANISMS, PATTERNS, SCHEDULES,
                            WORKLOADS, DuplicateComponentError, Registry,
                            UnknownComponentError, load_plugins)


# -- Registry mechanics -------------------------------------------------------

def test_register_direct_and_decorator():
    reg = Registry("thing")
    reg.register("a", 1)

    @reg.register("b")
    def b_factory():
        return "b"

    assert reg.get("a") == 1
    assert reg.get("b") is b_factory
    assert reg.names() == ("a", "b")
    assert len(reg) == 2
    assert "a" in reg and "nope" not in reg
    assert list(reg) == ["a", "b"]


def test_duplicate_name_rejected():
    reg = Registry("thing")
    reg.register("x", 1)
    with pytest.raises(DuplicateComponentError, match="'x' is already"):
        reg.register("x", 2)
    with pytest.raises(DuplicateComponentError):
        reg.register_lazy("x", "math", "sqrt")
    # the error is a ValueError so legacy call sites keep working
    assert issubclass(DuplicateComponentError, ValueError)


def test_unknown_name_lists_choices():
    reg = Registry("gizmo")
    reg.register("beta", 2)
    reg.register("alpha", 1)
    with pytest.raises(UnknownComponentError) as exc:
        reg.get("gamma")
    msg = str(exc.value)
    assert "unknown gizmo 'gamma'" in msg
    assert "alpha" in msg and "beta" in msg
    assert issubclass(UnknownComponentError, ValueError)


def test_bad_name_type_rejected():
    reg = Registry("thing")
    with pytest.raises(TypeError):
        reg.register("", 1)
    with pytest.raises(TypeError):
        reg.register(5, 1)


def test_lazy_entry_imports_on_first_get():
    reg = Registry("fn")
    reg.register_lazy("sqrt", "math", "sqrt")
    assert "sqrt" in reg.names()      # listed without importing
    import math
    assert reg.get("sqrt") is math.sqrt
    assert reg.get("sqrt") is math.sqrt  # cached after first resolve


def test_populate_hook_runs_once():
    # PATTERNS self-populates from repro.traffic.patterns on first use
    assert "uniform" in PATTERNS.names()
    from repro.traffic import patterns
    assert PATTERNS.get("uniform") is patterns.make_uniform


# -- built-in registry contents ----------------------------------------------

def test_mechanism_registry_matches_config_tuple():
    assert MECHANISMS.names() == config.MECHANISMS
    for name, cls in MECHANISMS.items():
        assert isinstance(cls, type), name


def test_kernel_registry():
    assert set(KERNELS.names()) == {"active", "dense"}
    # built-in kernels resolve to Network step-method names
    for name, step in KERNELS.items():
        assert isinstance(step, str) and step.startswith("_step_")


def test_schedule_registry_builders():
    assert set(SCHEDULES.names()) >= {"none", "static", "epoch",
                                      "random_epochs"}
    cfg = config.NoCConfig()
    from repro.gating.schedule import StaticGating
    sched = SCHEDULES.get("static")(cfg, {"fraction": 0.5})
    assert isinstance(sched, StaticGating)


def test_workload_registry_matches_parsec():
    from repro.fullsystem.workloads import PARSEC
    assert set(WORKLOADS.names()) == set(PARSEC)


# -- plugin loading -----------------------------------------------------------

@pytest.fixture
def plugin_dir(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(tmp_path))
    return tmp_path


def _cleanup_pattern(name):
    PATTERNS._entries.pop(name, None)
    PATTERNS._lazy.pop(name, None)
    if name in PATTERNS._order:
        PATTERNS._order.remove(name)


def test_plugin_module_registers_components(plugin_dir, monkeypatch):
    mod = "repro_test_plugin_ok"
    (plugin_dir / f"{mod}.py").write_text(textwrap.dedent("""
        from repro.registry import PATTERNS

        @PATTERNS.register("plugtest_diag")
        def make_plugtest_diag(cfg):
            def pattern(src, active, rng):
                return src
            return pattern
    """))
    monkeypatch.setenv("REPRO_PLUGINS", mod)
    try:
        assert mod in load_plugins()
        assert "plugtest_diag" in PATTERNS
        fn = PATTERNS.get("plugtest_diag")
        assert fn is sys.modules[mod].make_plugtest_diag
        # second call is a no-op (already imported)
        assert load_plugins() == ()
    finally:
        _cleanup_pattern("plugtest_diag")


def test_plugin_components_usable_from_spec(plugin_dir, monkeypatch):
    mod = "repro_test_plugin_spec"
    (plugin_dir / f"{mod}.py").write_text(textwrap.dedent("""
        from repro.registry import PATTERNS

        @PATTERNS.register("plugtest_self")
        def make_plugtest_self(cfg):
            def pattern(src, active, rng):
                return src
            return pattern
    """))
    monkeypatch.setenv("REPRO_PLUGINS", mod)
    try:
        load_plugins()
        from repro.spec import ExperimentSpec
        spec = ExperimentSpec("gflov", pattern="plugtest_self")
        assert spec.pattern == "plugtest_self"
    finally:
        _cleanup_pattern("plugtest_self")


def test_broken_plugin_warns_and_is_skipped(plugin_dir, monkeypatch):
    mod = "repro_test_plugin_broken"
    (plugin_dir / f"{mod}.py").write_text("raise RuntimeError('boom')\n")
    monkeypatch.setenv("REPRO_PLUGINS", mod)
    with pytest.warns(RuntimeWarning, match="could not import"):
        imported = load_plugins()
    assert mod not in imported
    # the simulator stays functional
    assert "uniform" in PATTERNS


def test_missing_plugin_module_warns(monkeypatch):
    monkeypatch.setenv("REPRO_PLUGINS", "repro_no_such_plugin_xyz")
    with pytest.warns(RuntimeWarning, match="could not import"):
        assert load_plugins() == ()


def test_lookup_miss_triggers_plugin_load(plugin_dir, monkeypatch):
    mod = "repro_test_plugin_lazyload"
    (plugin_dir / f"{mod}.py").write_text(textwrap.dedent("""
        from repro.registry import PATTERNS

        @PATTERNS.register("plugtest_lazy")
        def make_plugtest_lazy(cfg):
            def pattern(src, active, rng):
                return src
            return pattern
    """))
    monkeypatch.setenv("REPRO_PLUGINS", mod)
    try:
        # no explicit load_plugins(): the failed lookup consults the env
        assert PATTERNS.get("plugtest_lazy") is not None
    finally:
        _cleanup_pattern("plugtest_lazy")
