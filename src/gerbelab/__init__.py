"""gerbelab: twisted Cech cohomology, lifting gerbe obstructions, Schwinger
cocycles, and discrete Chern-Weil integrals at desk scale.

``import gerbelab`` loads no layer.  Every layer module, and each name this
package exports, resolves the first time it is used (PEP 562): ``from
gerbelab import cohomology`` loads ``cech`` with ``snf``, ``coeffs``,
``nerve`` and ``errors``, and ``from gerbelab import schwinger_trace`` loads
``schwinger`` with numpy.  The exact layers (nerve, coeffs, snf, cech,
lifting) use numpy only inside one floating-point helper, the gerbe-module
check.
"""

import importlib

__version__ = "0.1.0"

# Name -> the module that defines it, resolved on first access by
# __getattr__; each module's own name maps to itself.
_LAZY = {name: module for module, names in (
    ("errors", "errors"),
    ("snf", "snf"),
    ("nerve", "nerve Nerve build_nerve faces random_nerve simplices"),
    ("coeffs", "coeffs Automorphism CentralExtension CoefficientGroup "
               "FiniteGroup SemidirectElement cyclic_central_extension "
               "semidirect_group semidirect_inv semidirect_mul "
               "verify_extension"),
    ("cech", "cech BocksteinResult Certificate CoboundaryResult Cochain "
             "CohomologyGroup TwistedLocalSystem bockstein_dd cochain "
             "cochain_add cochain_from_dict cochain_neg cochain_sub "
             "coboundary cohomology is_coboundary is_cocycle "
             "u1_is_coboundary zero_cochain"),
    ("lifting", "lifting CocycleReport LiftChoice ObstructionResult "
                "TransitionData TrivializeResult change_lifts "
                "check_gerbe_module check_twisted_cocycle lifts_via_section "
                "obstruction trivialize"),
    ("connection", "connection BundleData Chart ChartedBase OverlapMap "
                   "SampledForm chern_number classifying_point curvature "
                   "gauge_residual local_connection two_arc_circle "
                   "two_chart_sphere"),
    ("schwinger", "schwinger CentralElement DefectCurvature DiracDefect "
                  "LoopPolynomial cocycle_identity_defect defect_curvature "
                  "dirac_defect extension_bracket jacobi_defect loop_scale "
                  "schwinger_residue schwinger_trace"),
) for name in names.split()}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__():  # list the lazy names too, as when they were imported eagerly
    return sorted(set(globals()) | set(_LAZY))
