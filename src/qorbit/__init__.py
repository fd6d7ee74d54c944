"""qorbit: local-unitary orbits of multi-particle density matrices.

Counts non-local parameters for arbitrary qudit systems, computes
canonical forms and finite separating invariant families for 2- and
3-qubit states, reconstructs canonical components from invariants alone,
and decides local-unitary equivalence, each verdict carrying a witness
and, past the invariants, both states' genericity margins.
"""

from .bloch import BlochTensor, expand, read_bloch, reconstruct, write_bloch
from .canonical import (
    CanonicalPoint,
    GenericityReport,
    canonicalize,
    canonicalize2,
    canonicalize3,
    genericity,
)
from .equivalence import (
    EquivalenceVerdict,
    OracleResult,
    Witness,
    decide,
    oracle_search,
)
from .errors import (
    BadRank,
    ConstraintViolation,
    DegenerateSpectrum,
    InconsistentTraces,
    NegativeSquare,
    NotHermitian,
    NotPositive,
    NotSpecialOrthogonal,
    NotSpecialUnitary,
    NumericalError,
    ParseError,
    ShapeMismatch,
    SingularSystem,
    ToolkitError,
    TraceNotOne,
    UnsupportedShape,
    ValidationError,
    ZeroSignInvariant,
)
from .invariants import (
    GramTriple,
    Invariant1,
    InvariantSet2,
    InvariantSet3,
    NAMES2,
    NAMES3,
    gram,
    invariant1,
    invariants2,
    invariants3,
)
from .local_action import (
    LocalUnitary,
    RotationTriple,
    adjoint_rotation,
    apply,
    haar_local,
    lift_rotation,
    lift_rotations,
    transform_bloch,
)
from .orbit_dim import (
    OrbitDimension,
    TangentFrame,
    invariant_count_formula,
    invariant_count_numeric,
    orbit_dimension,
    tangent_frame,
)
from .reconstruction import (
    VandermondeSystem,
    pair_from_mixed,
    reconstruct_canonical,
    spectra_from_traces,
    triple_from_mixed,
    vector_from_quadratics,
)
from .states import (
    DensityMatrix,
    GeneratorBasis,
    SystemShape,
    generator_basis,
    maximally_mixed,
    random_state,
    read_state,
    validate,
    write_state,
)

__version__ = "0.1.0"
