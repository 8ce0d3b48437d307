"""Enumerate and count binary matrices up to cyclic row/column rotation."""

from .canonical import canonical_form, is_canonical, stream_canonical
from .codec import MatrixShape, TupleCode
from .counting import A179043, OrbitCount, count_burnside
from .errors import CapacityError, InternalError, RangeError
from .torus import (
    VisitedStore,
    code_at_index,
    enumerate_torus,
    iter_representative_indices,
    tuple_index,
)

__all__ = [
    "A179043",
    "CapacityError",
    "InternalError",
    "MatrixShape",
    "OrbitCount",
    "RangeError",
    "TupleCode",
    "VisitedStore",
    "canonical_form",
    "code_at_index",
    "count_burnside",
    "enumerate_torus",
    "is_canonical",
    "iter_representative_indices",
    "stream_canonical",
    "tuple_index",
]
