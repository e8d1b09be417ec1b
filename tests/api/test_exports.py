"""Public-surface audit: ``__all__`` must match reality.

Every ``__all__`` entry must resolve (lazy PEP 562 exports included),
every facade symbol must be exported both by ``repro.api`` and at the
package root, and the removed deprecated entry points stay removed.
"""

import importlib
import warnings

import pytest

#: Packages whose declared surface is audited.
AUDITED_MODULES = (
    "repro",
    "repro.api",
    "repro.cluster",
    "repro.dom",
    "repro.induction",
    "repro.runtime",
    "repro.sitegen",
    "repro.xpath",
)

#: The facade's client object model — the names the whole codebase
#: converges on.  Each must be importable from repro.api AND from repro.
FACADE_SYMBOLS = (
    "CheckResult",
    "ClusterMap",
    "ExtractionResult",
    "FacadeError",
    "OwnershipError",
    "REPLICATION_FACTOR",
    "RemoteError",
    "RemoteWrapperClient",
    "RouterClient",
    "Sample",
    "ShardOwnership",
    "WrapperClient",
    "WrapperHandle",
    "mark_volatile",
    "qualify_key",
    "replica_indexes",
    "shard_index",
    "site_key_of",
    "split_tenant",
)


@pytest.mark.parametrize("module_name", AUDITED_MODULES)
def test_every_dunder_all_entry_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert exported, f"{module_name} declares an empty __all__"
    assert len(set(exported)) == len(exported), f"duplicates in {module_name}.__all__"
    with warnings.catch_warnings():
        # Deprecated shims resolve with a warning; the audit cares only
        # that they resolve.
        warnings.simplefilter("ignore", DeprecationWarning)
        for name in exported:
            assert getattr(module, name, None) is not None, (
                f"{module_name}.__all__ lists {name!r} but the attribute "
                "does not resolve"
            )


@pytest.mark.parametrize("name", FACADE_SYMBOLS)
def test_facade_symbols_are_exported_everywhere(name):
    api = importlib.import_module("repro.api")
    root = importlib.import_module("repro")
    assert name in api.__all__, f"repro.api.__all__ is missing facade symbol {name}"
    assert name in root.__all__, f"repro.__all__ is missing facade symbol {name}"
    assert getattr(api, name) is getattr(root, name)


def test_sitegen_core_symbols_are_exported():
    """The generator fleet's working surface: spec in, family out, with
    the break script alongside — importable straight off the package."""
    sitegen = importlib.import_module("repro.sitegen")
    family = importlib.import_module("repro.sitegen.family")
    breaks = importlib.import_module("repro.sitegen.breaks")
    for name in ("FamilySpec", "BreakScript", "generate_family"):
        assert name in sitegen.__all__, f"repro.sitegen.__all__ missing {name}"
    assert sitegen.FamilySpec is family.FamilySpec
    assert sitegen.generate_family is family.generate_family
    assert sitegen.BreakScript is breaks.BreakScript


def test_net_exports_resolve_lazily():
    runtime = importlib.import_module("repro.runtime")
    net = importlib.import_module("repro.runtime.net")
    for name in ("NetConfig", "WrapperHTTPServer", "serve_http"):
        assert name in runtime.__all__
        assert getattr(runtime, name) is getattr(net, name)


def test_placement_has_one_home():
    """Every layer must place keys with the SAME function objects: the
    store's seed-era re-exports, the facade exports, and the cluster
    package all resolve to repro.cluster.placement."""
    placement = importlib.import_module("repro.cluster.placement")
    store = importlib.import_module("repro.runtime.store")
    runtime = importlib.import_module("repro.runtime")
    api = importlib.import_module("repro.api")
    for name in ("site_key_of", "shard_index"):
        target = getattr(placement, name)
        assert getattr(store, name) is target
        assert getattr(runtime, name) is target
        assert getattr(api, name) is target
    assert store.DEFAULT_SHARDS == placement.DEFAULT_SHARDS


def test_router_client_resolves_lazily_from_cluster():
    cluster = importlib.import_module("repro.cluster")
    router = importlib.import_module("repro.cluster.router")
    assert "RouterClient" in cluster.__all__
    assert cluster.RouterClient is router.RouterClient


def test_top_level_dom_convenience_exports():
    """Examples and docstrings address TextNode / to_html at the root —
    no more reaching into repro.dom.node / repro.dom.serialize."""
    import repro
    from repro.dom.node import TextNode
    from repro.dom.serialize import to_html

    assert repro.TextNode is TextNode
    assert repro.to_html is to_html
    assert "TextNode" in repro.__all__
    assert "to_html" in repro.__all__


class TestDeprecatedEntryPoints:
    """The facade-era deprecation shims (``repro.WrapperInducer``,
    ``repro.induce``, ``repro.runtime.BatchExtractor``) are gone; the
    engine layers stay public at their own module paths."""

    def test_deprecated_names_stay_out_of_dunder_all(self):
        import repro
        import repro.runtime

        assert "WrapperInducer" not in repro.__all__
        assert "induce" not in repro.__all__
        assert "BatchExtractor" not in repro.runtime.__all__

    def test_star_import_is_warning_free(self):
        import repro

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            namespace: dict = {}
            exec("from repro import *", namespace)  # noqa: S102 - the point
        assert "WrapperClient" in namespace
        assert getattr(repro, "WrapperClient") is namespace["WrapperClient"]

    def test_unknown_attributes_still_raise(self):
        import repro
        import repro.runtime

        with pytest.raises(AttributeError):
            repro.no_such_name
        with pytest.raises(AttributeError):
            repro.runtime.no_such_name
        with pytest.raises(AttributeError):
            repro.WrapperInducer
        with pytest.raises(AttributeError):
            repro.runtime.BatchExtractor
        # The lazy network exports still resolve.
        assert repro.runtime.WrapperHTTPServer.__name__ == "WrapperHTTPServer"
