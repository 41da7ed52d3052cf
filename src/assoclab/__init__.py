"""Truncated free Lie algebra, associator, graph complex and weight-integral toolkit."""

__version__ = "0.1.1"

from .ncalg import LieSeries, NCSeries, Word, lyndon_basis, is_grouplike  # noqa: F401
from .tangent import TAutElem, TDerElem, CenterSplit  # noqa: F401
from .associator import Associator, GrtElem, TauFamily  # noqa: F401
from .graphcx import GCGraph, GraphLinComb  # noqa: F401
from .confint import QuadratureSpec, WeightResult, PropagatorEval  # noqa: F401
from .scalars import Dual, PolyInT  # noqa: F401
