"""Multi-party state ensembles, partial-transpose discrimination bounds,
and data-hiding protocol tools."""

from .tensor import (
    DEFAULT_DIM_CAP,
    ContractViolationError,
    DimensionCapError,
    MultiPartyOperator,
    PsdCheck,
    SlotStructure,
    hermitian_eigensystem,
    is_psd,
    partial_transpose,
    tensor,
)
from .partitions import (
    Bipartition,
    Partition,
    PartySet,
    all_bipartitions,
    all_partitions,
    coarser_bipartitions,
)
from .ensembles import (
    Ensemble,
    EnsembleDiagnostics,
    InvalidEnsembleError,
    ParityBlockParams,
    ghz_complement_ensemble,
    ghz_state,
    load_ensemble,
    max_pairwise_overlap,
    parity_block_ensemble,
    parity_block_size_condition,
    save_ensemble,
    validate,
)
from .discrimination import (
    BipartitionScan,
    DiscriminationResult,
    DominanceCheck,
    OptimalityCheck,
    check_dominant_state,
    check_povm_optimality,
    max_bipartition_bound,
    optimal_global,
    product_basis_strategy_value,
    q_upper,
)
from .folding import (
    DegenerateClassError,
    FoldSpec,
    coarse_ensemble,
    exact_two_state_curve,
    fold_bound,
    fold_probs,
    mod_sum,
    uniform_coarse_ensemble,
)
from .hiding import (
    CoalitionRow,
    CrosscheckResult,
    DirectEncoding,
    HidingError,
    HidingReport,
    ProtocolRun,
    SchemeConfig,
    check_hiding,
    class_measurement,
    coalition_report,
    direct_encode,
    min_folds,
    run_protocol,
    sampling_crosscheck,
    transcripts_to_jsonl,
)

__version__ = "0.1.0"
