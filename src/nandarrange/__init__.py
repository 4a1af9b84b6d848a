"""Wordline-level page data arrangement for QLC NAND retention reliability.

Scores block patterns for lateral-charge-migration exposure, searches for
score-maximizing wordline arrangements (exhaustive, random, greedy, simulated
annealing, or a trained LSTM), serializes arrangements as 2-bytes-per-wordline
FTL mapping tables, and checks results against a synthetic retention channel.
"""

from .core import (
    ERASED,
    LEVELS,
    ArchConfig,
    BlockPattern,
    Permutation,
    apply_permutation,
    validate_pattern,
)
from .scoring import (
    ae_coefficient,
    block_score,
    build_score_tensor,
    cell_score,
    tensor_build_count,
)
from .solvers import (
    AnnealSchedule,
    SolverResult,
    exhaustive_best,
    greedy_arrange,
    random_search,
    simulated_annealing,
)
from .neural import (
    NetworkConfig,
    NetworkParams,
    TrainConfig,
    arrange,
    backward,
    combination_probability,
    expected_score,
    extract_permutation,
    head_forward,
    init_params,
    load_checkpoint,
    lstm_forward,
    read_checkpoint,
    save_checkpoint,
    seqgen_transform,
    train,
    write_checkpoint,
)
from .data_io import (
    GENERATOR_ID,
    MappingTable,
    gen_random_block,
    gray_decode,
    gray_encode,
    load_mapping_table,
    load_pattern,
    read_mapping_table,
    read_pattern,
    save_mapping_table,
    save_pattern,
    split_dataset,
    split_indices,
    write_mapping_table,
    write_pattern,
)
from .retention import (
    RetentionConfig,
    channel_ber,
    measure_ber,
    read_back,
    simulate_retention,
)

__version__ = "0.1.0"
