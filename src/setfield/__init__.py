"""Connection matrices of scalar fields on finite set systems.

Build L and g from a field h on a set of sets, check the determinant /
inverse / energy identities over five scalar kinds, follow eigenvalue
monodromy under circular field deformations, and evaluate exact integer
bilinear forms of the linear parametrization h -> L(h).

The public names below, and the submodules, resolve on first access
(PEP 562), so that importing the package imports no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "connection": ("EnergyFunction", "explicit_field", "field_matrices",
                   "omega", "omega_field", "ones_field", "random_field",
                   "roots_field"),
    "determinants": ("bareiss_det", "det_formula_check", "dieudonne_det",
                     "leibniz_det", "study_det"),
    "identities": ("IdentityReport", "energy_check", "gauss_bonnet_check",
                   "green_star_check", "spectral_signature_check",
                   "unimodularity_check"),
    "kaehler": ("KaehlerReport", "kaehler_form", "kaehler_report"),
    "kernel": (),
    "scalars": ("COMPLEX", "GAUSSIAN", "OCTONION", "QUATERNION", "REAL",
                "GaussianRational", "Octonion", "Quaternion", "abelianize",
                "conjugate", "invert", "is_unit", "norm_sq", "parse_scalar",
                "product_right"),
    "setsystem": ("SetSystem", "complete_complex", "generate", "parse_system"),
    "spectral": ("GroupReport", "SpectralPath", "TrackingAmbiguityError",
                 "WheelPermutation", "group_order",
                 "monodromy_report", "presentations", "wheel_permutations"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__),
                    name)
    globals()[name] = value
    return value
