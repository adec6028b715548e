"""Haldane-model band oracles and a simulated interferometric Chern detector."""

__version__ = "0.1.0"

from .errors import (
    ChernscopeError,
    DegenerateScan,
    GaplessPoint,
    MalformedPlan,
    NoClosure,
    NotQuantized,
    NotReciprocal,
    PlaquetteSaturated,
    StepTooLarge,
)
from .lattice import (
    B1,
    B2,
    K,
    KP,
    NN_VECTORS,
    ModelParams,
    band_energies,
    band_gap_min,
    band_states,
    bloch_fields,
    boundary_matrix,
    boundary_phase,
    hamiltonian,
    high_symmetry_path,
    is_reciprocal,
    line_fields,
    reciprocal_coefficients,
    sublattice_matching,
)
from .topology import (
    BerryField,
    ChernResult,
    KPath,
    berry_curvature_fhs,
    berry_phase_loop,
    boundary_matched,
    chern_from_zak,
    chern_number,
    connection_integral,
    noncyclic_zak,
    transport_link,
)
from .protocol import (
    ForceSpec,
    Leg,
    PlanDiagnostics,
    ProtocolPlan,
    ProtocolStep,
    perturb_plan,
    plan_site,
    site_displacements,
    site_start,
    validate_plan,
)
from .interferometer import (
    FringeScan,
    PhaseLedger,
    SpinorState,
    TdseDiagnostics,
    apply_pi,
    apply_pi2,
    evolve_adiabatic,
    evolve_adiabatic_batch,
    evolve_tdse,
    initial_state,
    landau_zener_estimate,
    readout,
    readout_scan,
    run_fringe,
    wrap_angle,
)
from .analysis import (
    ChernReport,
    FringeFit,
    RobustnessRow,
    RobustnessTable,
    TrialRecord,
    classify,
    default_phi_grid,
    fit_fringe,
    fit_fringes,
    robustness_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
