"""Legendre curves in the plane and surfaces of revolution of frontals.

The package splits into thin layers: expression parsing and Taylor jets
(expr, jets), lattice quadrature (quadrature), plane Legendre curves
(legendre), framed surface grids and their invariants (framed), revolved
surfaces of profile curves (revolution), profile construction from
prescribed curvature data (construct), singularity classification
(singular), and artifact writers plus a command line front end (export,
cli).
"""

from .jets import Jet, DomainError, ORDER_CAP
from .expr import parse, eval_jet, eval_values, ExprSyntaxError
from .quadrature import FineGrid, uniform_grid
from .legendre import (CurvaturePair, CurveJet, LegendreCurve, NormalJet,
                       curvature_of, curvature_pair_of,
                       legendre_from_expressions, parallel_curve,
                       plane_evolute, reconstruct_from_curvature,
                       verify_legendre)
from .framed import (FramedSurfaceGrid, basic_invariants_of, curvature_of
                     as framed_curvature_of, immersion_status,
                     integrability_residual, parallel_surface)
from .revolution import (RevolutionSurface, cone_type_check,
                         frontal_front_status, parallel_commutation_check,
                         revolution_curvature, revolution_evolutes, revolve)
from .construct import (ConstructionError, GaussRatioProblem,
                        MeanRatioProblem, profile_from_H_phi,
                        profile_from_J_phi, profile_from_JK,
                        profile_from_gauss_ratio, profile_from_mean_ratio)
from .singular import (CuspLabel, constant_gauss_cusp, constant_mean_cusp,
                       curve_cusp_by_curvature, curve_cusp_by_derivatives,
                       cusp_classify_curvature, cusp_classify_derivatives,
                       InconsistentInputError, ord_of,
                       revolution_singularity_classify)

__version__ = "0.1.0"
