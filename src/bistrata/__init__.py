"""Exact cohomology classes and degrees of equisingular strata of plane curves.

The package multiplies divisor classes in truncated multigraded cohomology
rings with integer-polynomial coefficients in the curve degree d, and reads
off enumerative degrees of strata of curves with one or two singular points
of linear singularity types.
"""

from .coeffring import InterpolationError, ParamPoly, binomial
from .cohring import CohClass, ExactDivisionError, VarSpec, product_of
from .collide import (
    NewtonDiagram,
    SingularitySpec,
    collide_omp,
    is_linear,
    residual_multiplicity,
)
from .degrees import (
    ClosedForm,
    DegreeResult,
    closed_form_in_p,
    gysin_degree,
    stratum_degree,
)
from .divisors import (
    diagonal_class,
    exceptional_class,
    incidence_class,
    kill_tangent_cone_class,
    monomial_kill_class,
    omp_conditions_class,
)
from .strata import (
    StratumClass,
    diagram_stratum,
    kbranch_stratum,
    node_pair_stratum,
    omp_stratum,
    stratum_for,
    two_omp_stratum,
)

__all__ = [
    "CohClass", "ClosedForm", "DegreeResult", "ExactDivisionError",
    "InterpolationError", "NewtonDiagram", "ParamPoly", "SingularitySpec",
    "StratumClass", "VarSpec", "binomial", "closed_form_in_p", "collide_omp",
    "diagonal_class", "diagram_stratum", "exceptional_class",
    "gysin_degree", "incidence_class", "is_linear", "kbranch_stratum",
    "kill_tangent_cone_class", "monomial_kill_class", "node_pair_stratum",
    "omp_conditions_class", "omp_stratum", "product_of",
    "residual_multiplicity", "stratum_degree", "stratum_for",
    "two_omp_stratum",
]
