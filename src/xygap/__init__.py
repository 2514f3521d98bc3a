"""Ground-state phase diagram and energy-gap scaling of the infinite-range
XY model in transverse and longitudinal fields.

Exact rational arithmetic drives everything on the h = 0 first-order line
(the gap law |1 - 2*delta|/N and the engineered size sequences realizing
polynomial, exponential, and factorial gap closing); a Sturm-bisection
eigensolver covers finite sizes at h != 0; closed forms give the
thermodynamic limit.
"""

from .classical import (
    ClassicalAngles,
    FieldPoint,
    PhaseRecord,
    classical_energy,
    magnetization_x,
    minimize_energy,
    phase_diagram_scan,
    thermo_gap,
)
from .errors import (
    BitBudgetError,
    DegenerateDeltaError,
    GapBranchError,
    SpecNotApplicableError,
    TruncationInsufficientError,
    XYGapError,
)
from .exactnum import (
    DigitInjection,
    ExplicitRational,
    IntervalConstruction,
    Rational,
    TruncatedSeries,
    decimal_str,
    format_rational,
    gamma_bounds_check,
    gamma_enclosure,
    gamma_in_unit_interval,
    gamma_value,
    parse_rational,
    tail_bound,
)
from .gaplaw import (
    DeltaValue,
    GapRecord,
    MagnetizationLevel,
    delta_frac,
    energy_level,
    exact_gap,
    excited_level,
    gap_record,
    gap_times_size_values,
    ground_level,
)
from .scaling import (
    ScalingReport,
    ScalingRow,
    SizeSequence,
    build_scaling_report,
    classify_scaling,
    delta_closed_form,
    dense_gamma_in_interval,
    injection_gamma,
    scaling_gap,
    sequence_sizes,
    sequence_terms,
)
from .sector import (
    SectorHamiltonian,
    build_sector_hamiltonian,
    finite_gap_numeric,
    lowest_eigenvalues,
)
from .sequences import DEFAULT_BIT_BUDGET, SequenceKind

__version__ = "0.1.0"
