"""Group-constrained matroid base solvers and a brute-force verification lab.

Each public name is imported from its module on first access (PEP 562), so
`import gcmb`, and a CLI command, load only the modules they use.
"""

import importlib

#: The module that defines each name of `__all__`.
_HOMES = {
    "errors": ("CapacityError", "GcmbError", "InternalError", "ParseError", "UsageError"),
    "groups": ("GroupElement", "GroupSpec", "closeness_class", "cosets", "davenport",
               "stabilizer"),
    "matroids": ("Matroid", "brualdi_bijection", "contract", "delete", "find_blocks",
                 "find_exchange", "is_k_replaceable", "is_strongly_base_orderable",
                 "load_matroid", "make_explicit", "make_graphic", "make_linear",
                 "make_partition", "make_uniform"),
    "intersection": ("max_common_independent", "min_weight_common_base"),
    "solver": ("Labeling", "Signature", "SolveResult", "base_with_signature",
               "find_optimum_base", "signature_of", "solve_enum", "solve_proximity"),
    "lab": ("LabelImage", "Witness", "check_k_close", "check_schrijver_seymour",
            "check_strongly_k_close", "is_block_isolating", "is_strong_block_isolating",
            "isolation_scan", "label_image", "reduce_witness", "sbo_strong_closeness_suite"),
    "catalog": ("CatalogEntry", "builtin_instances", "filter_blocks", "load_catalog",
                "tight_example"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [
    "CapacityError",
    "CatalogEntry",
    "GcmbError",
    "GroupElement",
    "GroupSpec",
    "InternalError",
    "LabelImage",
    "Labeling",
    "Matroid",
    "ParseError",
    "Signature",
    "SolveResult",
    "UsageError",
    "Witness",
    "base_with_signature",
    "brualdi_bijection",
    "builtin_instances",
    "check_k_close",
    "check_schrijver_seymour",
    "check_strongly_k_close",
    "closeness_class",
    "contract",
    "cosets",
    "davenport",
    "delete",
    "filter_blocks",
    "find_blocks",
    "find_exchange",
    "find_optimum_base",
    "is_block_isolating",
    "is_k_replaceable",
    "is_strong_block_isolating",
    "is_strongly_base_orderable",
    "isolation_scan",
    "label_image",
    "load_catalog",
    "load_matroid",
    "make_explicit",
    "make_graphic",
    "make_linear",
    "make_partition",
    "make_uniform",
    "max_common_independent",
    "min_weight_common_base",
    "reduce_witness",
    "sbo_strong_closeness_suite",
    "signature_of",
    "solve_enum",
    "solve_proximity",
    "stabilizer",
    "tight_example",
]


def __getattr__(name: str):
    """A public name, or a module that defines some, imported on first access."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _HOMES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
