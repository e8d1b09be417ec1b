"""The benchmark's traced pass still binds to the program.

``lifecycle_bench/layers.py`` wraps program functions it names as
``"module:qualname"`` strings.  A rename or move of any of them fails
here, in tier-1, instead of silently breaking ``run.py --trace 1``.
The benchmark's modules are loaded without leaving its directory on
``sys.path`` or its modules in ``sys.modules``.
"""

import importlib
import inspect
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "lifecycle_bench"
BENCH_MODULES = ("spans", "layers")


@pytest.fixture(scope="module")
def bench():
    saved_path = list(sys.path)
    saved_modules = {name: sys.modules.pop(name, None) for name in BENCH_MODULES}
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spans = importlib.import_module("spans")
        layers = importlib.import_module("layers")
    finally:
        sys.path[:] = saved_path
        for name, module in saved_modules.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module
    return spans, layers


def _bindings() -> dict:
    """Identity of every attribute of every loaded ``repro`` module and
    of the classes they define."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            seen[name, attr] = id(value)
            if inspect.isclass(value) and value.__module__ == name:
                for member, member_value in vars(value).items():
                    seen[name, f"{attr}.{member}"] = id(member_value)
    return seen


def test_bench_modules_do_not_leak(bench):
    assert str(BENCH_DIR) not in sys.path
    for name in BENCH_MODULES:
        assert sys.modules.get(name) is None


def test_install_layers_binds_and_restore_undoes_it(bench):
    spans, layers = bench
    # The modules install_layers loads, so the snapshot covers them.
    import repro  # noqa: F401
    import repro.api.remote  # noqa: F401
    import repro.runtime.cli  # noqa: F401
    import repro.runtime.net  # noqa: F401
    from repro.runtime.extractor import extract_pages

    before = _bindings()
    recorder = spans.Recorder()
    restore = layers.install_layers(recorder)
    try:
        installed = _bindings()
        (slots,), _ = extract_pages([("p", "<p>x</p>", (("w", "descendant::p"),))])
    finally:
        restore()
    assert slots[0].values == ("x",)
    assert installed != before
    assert _bindings() == before
    # The per-page kernel's work lands in the parse, extract and
    # evaluate layers.
    names = {span.name for span in recorder.spans}
    assert {layers.PARSE, layers.EXTRACT, layers.EVALUATE} <= names
