"""Enumerate and count binary matrices up to cyclic row/column rotation."""

from .canonical import canonical_form, is_canonical, stream_canonical
from .codec import (
    BinaryMatrix,
    MatrixShape,
    TupleCode,
    decode,
    encode,
    rotate_cols,
    rotate_rows,
    xi,
)
from .counting import A179043, OrbitCount, count_burnside
from .errors import CapacityError, InternalError, RangeError
from .torus import (
    SieveResult,
    VisitedStore,
    code_at_index,
    enumerate_torus,
    iter_representative_indices,
    tuple_index,
)

__all__ = [
    "A179043",
    "BinaryMatrix",
    "CapacityError",
    "InternalError",
    "MatrixShape",
    "OrbitCount",
    "RangeError",
    "SieveResult",
    "TupleCode",
    "VisitedStore",
    "canonical_form",
    "code_at_index",
    "count_burnside",
    "decode",
    "encode",
    "enumerate_torus",
    "is_canonical",
    "iter_representative_indices",
    "rotate_cols",
    "rotate_rows",
    "stream_canonical",
    "tuple_index",
    "xi",
]
