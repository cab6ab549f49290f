"""Shared test helpers: every module cache of gaussmap, and one call that clears them all.

A test that patches a builder clears the caches before and after its run,
so that it neither reads a value built without its fault nor leaves a
faulty value behind for the tests that follow.
"""

import importlib
import inspect
import pkgutil

import gaussmap


def module_caches():
    """(module, name, cache) for every lru_cache defined in a gaussmap module,
    or on one of its classes, each once (an imported name is not counted again)."""
    seen = set()
    for info in pkgutil.iter_modules(gaussmap.__path__):
        module = importlib.import_module(f"gaussmap.{info.name}")
        owners = [module] + [v for v in vars(module).values() if inspect.isclass(v)]
        for owner in owners:
            for value in vars(owner).values():
                key = (getattr(value, "__module__", None), getattr(value, "__qualname__", None))
                if hasattr(value, "cache_info") and key not in seen:
                    seen.add(key)
                    yield key[0], key[1], value


def clear_caches():
    """Forget everything every gaussmap module cache keeps."""
    for *_, cache in module_caches():
        cache.cache_clear()
