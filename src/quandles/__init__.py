"""Finite quandle toolkit.

Quandles are stored as Cayley tables with table[x][y] = s_x(y).  The package
covers construction (trivial, dihedral, direct products, coset quandles from
group triplets), symmetry-group analysis (inner and displacement groups,
connectivity, flatness), isomorphism search, the decomposition of flat
connected finite quandles into dihedral factors of odd prime-power order, and
an exhaustive brute-force enumerator for small orders that double-checks that
decomposition.

Each public name is imported from its module on first use (PEP 562), and
that module's names are then bound here, as an eager import would bind them;
`import quandles` alone loads no module.
"""

__version__ = "0.1.0"

# (module, the public names it defines), read by `__getattr__`.
_EXPORTS = (
    ("analysis", (
        "analyze", "displacement_group", "inner_group", "is_connected", "is_flat",
        "is_homogeneous", "is_involutive",
    )),
    ("classify", (
        "ClassificationError", "FlatDecomposition", "TheoremViolationError",
        "abelian_invariants", "build_representatives", "classify_flat_connected",
        "odd_prime_power_multisets", "predicted_count",
    )),
    ("core", (
        "AxiomViolation", "FormatError", "InvalidQuandleError", "Quandle", "as_quandle",
        "dihedral_quandle", "direct_product", "dumps_quandle", "load_quandle",
        "load_quandle_table", "parse_quandle", "parse_quandle_json",
        "parse_quandle_text", "quandle_to_obj", "trivial_quandle", "validate_quandle",
    )),
    ("enumeration", (
        "DEFAULT_MAX_ORDER", "BudgetExceededError", "OrderCapError",
        "enumerate_flat_connected_classes", "enumerate_quandles",
    )),
    ("isomorphism", (
        "automorphism_group", "find_isomorphism", "is_homomorphism",
    )),
    ("perms", (
        "ClosureLimitError", "Perm", "PermutationGroup", "closure", "compose",
        "cycle_lengths", "group_from_obj", "group_to_obj", "identity_perm", "inverse",
        "is_abelian", "is_perm", "is_transitive", "orbit", "perm_order", "stabilizer",
    )),
    ("triplets", (
        "CosetQuandle", "DerivedTriplet", "FiniteGroup", "InvalidTripletError",
        "QuandleTriplet", "TripletViolation", "abelian_negation_triplet",
        "element_order", "fix_set", "is_abelian_group", "is_group_automorphism",
        "is_subgroup", "negation_map", "parse_triplet", "phi_map",
        "quandle_from_triplet", "triplet_from_quandle", "triplet_product",
        "triplet_to_obj", "validate_triplet",
    )),
)

__all__ = sorted(name for _, names in _EXPORTS for name in names)


def __getattr__(name):
    for module, names in _EXPORTS:
        if name in names or name == module:
            from importlib import import_module

            found = import_module(f".{module}", __name__)
            if name == module:
                return found
            namespace = globals()
            for public in names:
                namespace[public] = getattr(found, public)
            return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *(module for module, _ in _EXPORTS)})
