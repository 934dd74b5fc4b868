"""Exact desk-scale toolkit for nonsingular Z^d-actions on atomic spaces.

Everything here is a finite sum: spaces are purely atomic, infinite spaces
are rule-defined with a certified exhaustion, and all diagnostics
(Radon-Nikodym cocycles, dual operators, the Maharam skew product, the
maximal-average statistic, the Hopf decomposition, and the Krengel
translation normal form) evaluate exactly, so identities can be checked at
tight relative tolerances instead of being estimated.
"""

from .action import (
    CubeWindow,
    NsAction,
    as_vec,
    check_cocycle,
    check_duality,
    iter_window_orbit,
    make_action,
)
from .errors import (
    ConstructionError,
    DegenerateInputError,
    DomainError,
    ExplorationLimitError,
    InvalidInputError,
    ToolkitError,
    UnsupportedInputError,
)
from .hopf import (
    HopfDecomposition,
    KrengelForm,
    build_translation_action,
    hopf_decompose,
    krengel_normal_form,
    orbit_explore,
    verify_equivalence,
)
from .maharam import (
    MaharamAction,
    Rect,
    check_measure_preservation,
    extend,
    extension_series,
    extension_stat,
    push_rect,
)
from .maxstat import (
    StatRecord,
    StatSeries,
    Verdict,
    conservativity_verdict,
    dissipative_limit,
    max_dual_function,
    stat_a_n,
    stat_bounds,
    stat_series,
    sum_dual_partial,
)
from .space import (
    AtomSpace,
    L1Function,
    atom_key,
    make_space,
    rel_dev,
    truncate_l1,
)
from .zoo import FIXTURES, GroundTruth, ZooSpec, build, build_fixture, ground_truth

__version__ = "0.1.0"
