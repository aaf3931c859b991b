"""algcert: exact-arithmetic generation certificates for the commutator Lie
algebras of structure-constant associative algebras with involution."""

__version__ = "0.1.0"

from .linalg import (
    QQ,
    PrimeField,
    RationalField,
    Subspace,
    SpanBuilder,
    echelonize,
    field_from_name,
    intersect,
    linear_combination,
    subspace_sum,
)
from .algebra import (
    AlgebraPresentation,
    Element,
    ideal_span,
    unital_hull,
    validate_presentation,
)
from .decomposition import (
    KHSplit,
    PeirceDecomposition,
    ZGrading,
    kh_split,
    peirce_decompose,
    z_grading,
)
from .closure import (
    ClosureTrace,
    GeneratorSet,
    assoc_closure,
    generator_set,
    lie_closure,
    pair_closure,
    word_oracle,
)
from .certificates import (
    Certificate,
    commutator_span,
    derived_K_subspace,
    derived_subspace,
    lemma1_certificate,
    lemma2_certificate,
    lemma2_generating_set,
    lemma3_jordan_check,
    lemma4_check,
    lemma5_certificate,
    lemma5_sets,
    lemma6_check,
    lemma7_reduction_check,
    lemma8_check,
    lemma9_check,
    skew_commutator_span,
    stagnation_probe,
    theorem1_certify,
    theorem2_certify,
)
from .instances import (
    InstanceSpec,
    build_example1,
    build_example2,
    build_instance,
    build_matrix_algebra,
)
from .formats import (
    dump_presentation,
    dumps_presentation,
    load_presentation,
    loads_presentation,
)
from .cli import run_cli
