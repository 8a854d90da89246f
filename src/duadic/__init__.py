"""Duadic group algebra codes over finite fields and their CSS quantum codes.

Build groups (`groups`), compute centrally primitive idempotents of F_q[G]
(`algebra`), decide splitting existence and construct duadic pairs
(`duadic`), analyze the four codes (`codes`), and derive CSS stabilizer
parameters (`quantum`).  The `duadic` console script fronts all of it.
"""

from .algebra import (
    AlgebraElement,
    alg_mul,
    apply_antiauto,
    hat_group,
    hat_subgroup,
    is_central,
    is_even_like,
    is_idempotent,
    split_primitive_central_idempotents,
)
from .codes import (
    DEFAULT_ENUM_CAP,
    LinearCode,
    code_from_ideal,
    difference_min_weight,
    dual,
    odd_like_min_weight,
    subcode_check,
    weight_distribution,
)
from .duadic import (
    DuadicCodes,
    DuadicPair,
    SplittingCheck,
    check_splitting,
    classify_duality,
    construct_pairs,
    duadic_codes,
    odd_like_bound,
    product_duadic,
    splitting_exists_mu_minus1,
    verify_key_proposition,
)
from .errors import (
    CayleyFormatError,
    DuadicError,
    EnumerationCapError,
    NoSplittingError,
    VerificationError,
)
from .gf import (
    FiniteField,
    field_from_order,
    field_make,
    multiplicative_order_mod,
)
from .groups import (
    Antiautomorphism,
    FqClassPartition,
    Group,
    builtin_mu_minus1,
    builtin_mu_swap,
    cyclic_group,
    fq_classes,
    group_abelian,
    group_from_cayley,
    group_product,
    mu_action_on_class,
    parse_cayley_text,
    product_antiauto,
    read_cayley_file,
)
from .quantum import (
    CssCode,
    DistanceRecord,
    PairAnalysis,
    analyze_pair,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "Antiautomorphism",
    "CayleyFormatError",
    "CssCode",
    "DEFAULT_ENUM_CAP",
    "DistanceRecord",
    "DuadicCodes",
    "DuadicError",
    "DuadicPair",
    "EnumerationCapError",
    "FiniteField",
    "FqClassPartition",
    "Group",
    "LinearCode",
    "NoSplittingError",
    "PairAnalysis",
    "SplittingCheck",
    "VerificationError",
    "alg_mul",
    "analyze_pair",
    "apply_antiauto",
    "builtin_mu_minus1",
    "builtin_mu_swap",
    "check_splitting",
    "classify_duality",
    "code_from_ideal",
    "construct_pairs",
    "cyclic_group",
    "difference_min_weight",
    "dual",
    "duadic_codes",
    "field_from_order",
    "field_make",
    "fq_classes",
    "group_abelian",
    "group_from_cayley",
    "group_product",
    "hat_group",
    "hat_subgroup",
    "is_central",
    "is_even_like",
    "is_idempotent",
    "mu_action_on_class",
    "multiplicative_order_mod",
    "odd_like_bound",
    "odd_like_min_weight",
    "parse_cayley_text",
    "product_antiauto",
    "product_duadic",
    "read_cayley_file",
    "split_primitive_central_idempotents",
    "splitting_exists_mu_minus1",
    "subcode_check",
    "verify_key_proposition",
    "weight_distribution",
]
