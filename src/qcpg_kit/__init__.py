"""Quality-measurement, control-encoding, and control-selection toolkit
for quality-controlled paraphrase generation.

The library measures paraphrase quality as a (semantic, syntactic,
lexical) vector on a 0-100 scale, quantizes quality into control
tokens for a pluggable generator, fits a per-sentence reference
predictor, and searches an offset grid for operation points such as
the diversity-maximizing point under a semantic floor.
"""

from .dataset import (
    ALL_ORDERED,
    ALL_UNORDERED,
    STAR_FIRST,
    Cluster,
    DatasetSplit,
    SentencePair,
    dev_items,
    extract_pairs,
    load_clusters,
    pair_count,
    read_pairs_tsv,
    read_tree_sidecar,
    save_clusters,
    split_clusters,
    write_pairs_tsv,
)
from .errors import QcpgError
from .evaluation import EvalReport, EvalRow, bleu, evaluate_systems, kendall_tau, self_bleu
from .generators import GeneratorSpec, build_generator
from .lexical import WordBag, bag_assignment_cost, char_edit_distance, lexical_distance, tokenize
from .quality import (
    ControlVector,
    Offset,
    QUANT_VALUES,
    QualityComputer,
    QualityVector,
    ZERO_OFFSET,
    apply_offset,
    decode_control,
    encode_control,
    prepend_control,
    quality_vector,
    quantize,
)
from .reference import (
    FEATURE_NAMES,
    ReferenceModel,
    evaluate_mse,
    featurize,
    fit,
    load_model,
    predict,
    save_model,
)
from .selection import (
    GridResult,
    OperationPoint,
    SelectionConstraint,
    default_grid,
    dev_quality_std,
    diversity_of,
    export_heatmap_csv,
    generate_pairs,
    grid_search,
    read_heatmap_csv,
    responsiveness,
    select_operation_point,
)
from .semantic import (
    SemanticScorer,
    builtin_trigram_raw,
    external_raw,
    semantic_similarity,
)
from .synthetic import paraphrase_corpus, quality_samples
from .trees import (
    ParseTree,
    parse_bracketed,
    prune_to_level,
    strip_tokens,
    syntactic_distance,
    tree_edit_distance,
)

__version__ = "0.1.0"
