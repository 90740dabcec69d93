"""bselab: a numerical laboratory for the separability of beam-splitter
(and general passive-rotation) outputs from classical bosonic inputs.

The package runs the constructive closed-form argument (classical coherent
ensembles stay classical coherent ensembles under passive unitaries) side
by side with independent numeric checks: PPT diagnostics on the truncated
Fock-space output, held as weighted amplitude rows, and a Gaussian
covariance-matrix oracle.
"""

__version__ = "0.1.0"

from .gaussian import (
    GaussianState,
    apply_passive,
    gaussian_from_spec,
    is_classical,
    ppt_verdicts,
)
from .hilbert import (
    FockArena,
    Mixture,
    TruncationError,
)
from .passive import (
    ModeUnitary,
    beam_splitter_matrix,
    transform_coherent_exact,
    transform_ensemble,
)
from .states import (
    CoherentEnsemble,
    GaussianSpec,
    coherent,
    fock,
    squeezed_vacuum,
    thermal,
)
from .theoremlab import (
    CampaignConfig,
    CampaignSummary,
    TrialRecord,
    haar_unitary,
    random_classical_ensemble,
    run_campaign,
    run_theorem_trial,
)
from .witnesses import EntanglementReport, mandel_q, negativity_reports

__all__ = [name for name in dir() if not name.startswith("_")]
