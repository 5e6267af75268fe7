"""Exact-arithmetic obstructions to unknotting number one from Goeritz forms.

The public names are exported lazily: ``import unknotone`` loads no
submodule, and the first read of a name imports its home module, so a
command-line run compiles only the modules its subcommand uses.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        (
            "alexander",
            "AlexanderPolynomial lspace_coefficient_check polynomial_from_torsion "
            "torsion_from_matching torsion_from_polynomial",
        ),
        (
            "catalog",
            "KnotRecord WhiteGraph builtin_dataset builtin_record goeritz_from_white_graph "
            "parse_knot_records serialize_knot_records",
        ),
        ("corrections", "CorrectionVector correction_vector"),
        (
            "errors",
            "MissingSignatureError NonCyclicCokernelError SingularFormError "
            "TorsionExtractionError UnknotOneError ValidationError",
        ),
        ("gamma", "GammaVector gamma_vector kappa_list model_form"),
        ("lattice", "QuadraticForm cokernel"),
        (
            "matching",
            "Matching Outcome Verdict enumerate_matchings even_matchings format_compact "
            "obstruct sign_refined_obstruct",
        ),
        ("plumbing", "PlumbingForm class_count plumbing_corrections"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # Any other name raises AttributeError, which is what lets
    # ``from unknotone import plumbing`` fall through to the submodule.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
