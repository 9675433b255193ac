"""Adaptive online convex optimization learners with a verification harness.

Learners (one quadratic FTRL solver with gradient-sum, proximally
recentered and composite-L1 presets; entropic; strongly convex), mirror
descent and its exact FTRL reformulation, regret bounds evaluated per
round, and brute-force oracles that certify every closed-form update.
"""

from .bounds import (
    BoundRule,
    RegretRecord,
    RunTrace,
    best_comparator,
    bound_curve,
)
from .core import (
    AdaGradRate,
    ConsistencyError,
    ConstantRate,
    FeasibleSet,
    InverseSqrtRate,
    InvariantViolation,
    LearningRateSchedule,
    UnsupportedCombination,
    clamp_box,
    negative_entropy,
    project_l2_ball,
    soft_threshold_argmin,
    softmax_simplex,
)
from .driver import L1ExampleResult, RunResult, repro_l1_example, run_rounds
from .learners import (
    BoundConfig,
    DualAveraging,
    EntropicFtrl,
    FtrlCompositeL1,
    FtrlProximal,
    QuadraticFtrl,
    StronglyConvexOgd,
)
from .mirror import (
    GreedyProjection,
    LazyProjection,
    MdAsFtrl,
    MirrorDescent,
)
from .streams import (
    L1AdversaryStream,
    LogisticStream,
    ParseError,
    RandomLinearStream,
    StreamEvent,
    StronglyConvexQuadraticStream,
    l1_adversary_next,
    logistic_example_gradient,
    logistic_loss,
    parse_svmlight,
    serialize_svmlight,
)

__version__ = "0.1.0"
