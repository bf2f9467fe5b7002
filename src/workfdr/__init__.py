"""Work statistics of slowly driven one- and two-qubit systems under the
discrete two-point-measurement protocol: exact enumeration, closed-form
cross-checks, entanglement negativity, and seeded Monte Carlo validation.

A public name is imported from its module on first use (PEP 562), so
`import workfdr` loads no submodule and a command loads only what it runs."""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {  # each public name, by the module that defines it
    name: module
    for module, names in {
        "entanglement": "negativity negativity_cartan_basis",
        "entanglers": "ENTANGLERS SINGLE_QUBIT Entangler ProtocolConfig",
        "errors": "ContractViolationError NumericFailureError UnsupportedDimensionError ValidationError WorkFdrError",
        "linalg": "hermitian_eigenvalues identity kron partial_transpose_A",
        "model": "CartanCoefficients SeparableXZXParams cartan_entangler rotation_x rotation_z rxx separable_xzx",
        "sampler": "SampleStats estimate",
        "work_stats": "WorkDistribution closed_form_distribution_cartan closed_form_distribution_separable "
        "closed_form_distribution_single convolve_n distribution_distance f_beta g_beta jarzynski_check moments "
        "q_correction q_single_exact step_distribution step_distribution_bipartite step_grid",
    }.items()
    for name in names.split()
}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    if name in {*_MODULE_OF.values(), "cli", "verify"}:  # a submodule, as `import workfdr.<name>` binds it
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
