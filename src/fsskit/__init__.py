"""Cost-normalized research productivity indicators and rankings.

The Library API names below are imported from their modules on first use,
so importing one submodule (``fsskit.rankings``, say) loads only what that
submodule imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# Library name -> the submodule that defines it.
_LIBRARY = {
    "ComputationError": "errors", "FsskitError": "errors", "InputError": "errors",
    "LoadError": "errors",
    "RunConfig": "config",
    "load_corpus": "corpus",
    "apply_exclusions": "indicators", "compute_field_means": "indicators",
    "credit_ledger": "indicators",
    "researcher_scores": "indicators", "university_scores": "indicators",
    "compute_baselines": "normalize",
}

__all__ = ["__version__", *sorted(_LIBRARY)]


def __getattr__(name):
    try:
        module = _LIBRARY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
