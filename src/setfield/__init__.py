"""Connection matrices of scalar fields on finite set systems.

Build L and g from a field h on a set of sets, check the determinant /
inverse / energy identities over five scalar kinds, follow eigenvalue
monodromy under circular field deformations, and evaluate exact integer
bilinear forms of the linear parametrization h -> L(h).
"""

__version__ = "0.1.0"

from .connection import (ConnectionMatrices, EnergyFunction, build_matrices,
                         energy_sum, explicit_field, green_diagonal, omega,
                         omega_field, ones_field, potential_and_curvature,
                         random_field, roots_field, super_trace)
from .determinants import (bareiss_det, det_formula_check, dieudonne_det,
                           exact_rank, leibniz_det, study_det)
from .identities import (IdentityReport, energy_check, gauss_bonnet_check,
                         green_star_check, spectral_signature_check,
                         unimodularity_check)
from .kaehler import (KaehlerReport, divisibility_scan, kaehler_form,
                      kaehler_report)
from .scalars import (COMPLEX, GAUSSIAN, OCTONION, QUATERNION, REAL,
                      GaussianRational, Octonion, Quaternion, abelianize,
                      conjugate, invert, is_unit, norm_sq, parse_scalar,
                      product_right)
from .setsystem import SetSystem, complete_complex, generate, parse_system
from .spectral import (GroupReport, SpectralPath, TrackingAmbiguityError,
                       WheelPermutation, eigenvalues, group_order,
                       monodromy_report, presentations, track_wheel,
                       wheel_permutations, winding_numbers)
