"""Bound-entangled probes for ancilla-assisted quantum process tomography.

Core pieces: bipartite realignment linear algebra, a zoo of probe
states (including PPT bound entangled ones), CCNR/faithfulness
diagnostics, channel representations, the linear-inversion tomography
pipeline, local filtering analysis, and a see-saw search for PPT states
maximizing the realigned trace norm.
"""

from .bipartite import (
    BipartiteOperator,
    DensityMatrix,
    check_realign,
    haar_unitary,
    max_entangled,
    operator_schmidt_rank,
    partial_trace,
    partial_transpose,
    realign,
    realign_inverse,
    singular_values,
    swap_operator,
    tensor,
    trace_norm,
    vec,
)
from .channels import (
    ChoiMatrix,
    KrausChannel,
    apply,
    apply_extended,
    choi_of,
    dephasing,
    depolarizing,
    identity_channel,
    random_cptp,
    superoperator_matrix,
    unitary_channel,
)
from .diagnostics import (
    DiagnosticsReport,
    RudolphReport,
    analytic_ccnr,
    ccnr_value,
    faithfulness,
    full_report,
    is_faithful,
    is_ppt,
    rudolph_checks,
)
from .filtering import (
    AnnihilatedState,
    FilterAnalysis,
    FilterPair,
    filter_analysis,
    identity_filters,
    local_filter,
    werner_filters,
)
from .seesaw import (
    SeesawConfig,
    SeesawResult,
    optimize,
    project_psd_trace_one,
)
from .states import (
    bell_ket,
    bell_state,
    cariello_gamma,
    filtered_werner_closed_form,
    isotropic,
    max_entangled_state,
    random_density_matrix,
    rho_ccnr,
    rho_ccnr_3x3,
    werner_f,
    werner_v,
)
from .tomography import (
    NoiseBudgetExceeded,
    ReconstructionResult,
    UnfaithfulProbe,
    reconstruct_superop,
    run_aaqpt,
    simulate_output,
    superop_to_choi,
    trace_distance,
)

__version__ = "0.1.0"
