"""Random forests with native categorical splits and pluggable routing
for factor levels that were absent when a split was learned."""

__version__ = "0.1.0"

from .data import (
    CATEGORICAL,
    CLASSIFICATION,
    NUMERIC,
    REGRESSION,
    ColumnSchema,
    DataError,
    Dataset,
    ResponseSpec,
    from_arrays,
    ingest_csv,
    level_counts,
    load_schema,
    one_hot_transform,
    save_schema,
)
from .forest import (
    Forest,
    ForestConfig,
    OOBPredictionSet,
    absence_proportion,
    bootstrap_sample,
    default_grow_config,
    load_forest,
    oob_predict_all,
    pooled_absence_proportions,
    predict_rows,
    save_forest,
    train_forest,
)
from .heuristics import (
    MISSING_DATA_SET,
    Heuristic,
    RoutingContext,
    RoutingOutcome,
    parse_heuristic,
    resolve,
)
from .seeding import Coins, derive, stream
from .splits import (
    CandidateSplit,
    CategoricalRule,
    GammaTable,
    OrderedRule,
    best_ordered_split,
    count_partitions,
    emulate_zero_imputed_routing,
    exhaustive_categorical_split,
    gamma_table,
    pseudo_value_split,
    random_categorical_split,
)
from .tree import (
    GrowConfig,
    PredictionTrace,
    grow_tree,
    grow_trees,
    route,
    structure_hash,
)
