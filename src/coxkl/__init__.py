"""coxkl: parabolic Kazhdan-Lusztig combinatorics over Coxeter systems.

Exact element arithmetic for arbitrary finitely generated Coxeter
systems, Bruhat intervals and parabolic quotients, R- and KL polynomials
of both types with two independent computation paths, the
maximal-quotient extension that transports quotient polynomials into a
maximal quotient of a larger system, and a scanner for combinatorial
invariance over marked interval isomorphisms.
"""

from .core import (
    INF,
    CoxeterMatrix,
    CoxeterSystem,
    CoxKLError,
    InputError,
    InvariantError,
    PreconditionError,
    validate_system,
)
from .laurent import LaurentPoly
from .bruhat import (
    IntervalPoset,
    bruhat_leq,
    deodhar_criterion,
    interval,
    parabolic_interval,
    subword_leq_oracle,
)
from .klpoly import (
    KLTable,
    bar_squared_check,
    get_table,
    mu,
    parabolic_kl,
    parabolic_kl_duality,
    parabolic_r,
)
from .invariance import (
    ClassX,
    IsoWitness,
    ScanConfig,
    ScanReport,
    check_hypothesis_pair,
    find_isomorphisms,
    is_class_x,
    scan,
)
from .extension import (
    ExtendedSystem,
    extend_system,
    lift,
    lift_interval,
    lift_order_embedding_check,
    verify_reduction,
    verify_reduction_sweep,
)

__version__ = "0.1.0"
