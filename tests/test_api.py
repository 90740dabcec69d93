import bselab

# The public API, pinned: removing a name, or exporting a new one, has to
# be done here on purpose.
PUBLIC_API = [
    "CampaignConfig",
    "CampaignSummary",
    "ClassicalityReport",
    "CoherentEnsemble",
    "DensityOperator",
    "EntanglementReport",
    "FockArena",
    "GaussianSpec",
    "GaussianState",
    "LiftedUnitary",
    "Mixture",
    "ModeUnitary",
    "StateVector",
    "TrialRecord",
    "TruncationError",
    "apply_passive",
    "beam_splitter_matrix",
    "classicality_report",
    "coherent",
    "fock",
    "gaussian",
    "gaussian_from_spec",
    "haar_unitary",
    "hilbert",
    "is_classical",
    "lift_unitary",
    "mandel_q",
    "negativity_report",
    "non_sufficiency_demo",
    "passive",
    "random_classical_ensemble",
    "run_campaign",
    "run_theorem_trial",
    "simon_separable",
    "squeezed_vacuum",
    "states",
    "theoremlab",
    "thermal",
    "transform_coherent_exact",
    "transform_ensemble",
    "vacuum",
    "witnesses",
]


def test_public_api_is_pinned():
    assert sorted(bselab.__all__) == PUBLIC_API
