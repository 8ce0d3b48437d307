"""Enumerate and count binary matrices up to cyclic row/column rotation."""

from .canonical import iter_canonical_indices
from .codec import MatrixShape, TupleCode
from .counting import A179043, OrbitCount, count_burnside
from .errors import CapacityError, InternalError, RangeError
from .torus import (
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
    "code_at_index",
    "count_burnside",
    "enumerate_torus",
    "iter_canonical_indices",
    "iter_representative_indices",
    "tuple_index",
]
