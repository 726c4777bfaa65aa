"""Perfect weighted samplers for incremental streams.

Sketches that sample a key with probability exactly proportional to a
weight function of its accumulated mass, in a handful of words of memory:
scalar samplers, a universal Pareto-frontier sketch queryable with any
weight function after the fact, without-replacement variants, and gate
circuits for sampling weighted graph edges.
"""

from .level import (
    CATALOGUE,
    F0,
    F1,
    FHalf,
    KilledDriftSum,
    LevelFunction,
    Log,
    Scaled,
    SoftCap,
    parse_weight,
    weight_grammar,
    weight_value,
)
from .randomness import DEFAULT_SEED, FreshSource, OracleHash, derive_seed, parse_seed
from .samplers import (
    FrameError,
    GSampler,
    KParetoSampler,
    ParetoSampler,
    Update,
    WorSampler,
    deserialize,
    replay,
)
from .circuits import EdgeSampler, EdgeSamplerSpec, build_edge_sampler
from .oracle import edge_weight

__version__ = "0.1.0"
