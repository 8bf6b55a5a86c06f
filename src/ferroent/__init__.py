"""Exact diagonalization and pair-entanglement analysis of spin graphs.

The package diagonalizes isotropic exchange models on arbitrary weighted
graphs in the central total-S^z sector, labels each level with its total
spin and rebuilds every other sector from SU(2) symmetry, reduces thermal
or ground states to two-spin density matrices, and evaluates their
X-state (Wootters) concurrence.  Closed-form expressions for the
completely symmetric states are the exact analytic anchor.
"""

from .analytic import (
    SymmetricRdmEntries,
    ZoneSpec,
    concurrence_pairwise_mixed,
    concurrence_symmetric,
    figure1_data,
    figure2_data,
    ground_mixture_entries,
    symmetric_rdm_entries,
    zone,
    zone_mixture_concurrence,
)
from .graphs import (
    ChainParams,
    SpinGraph,
    cube_graph,
    grid_graph,
    is_connected,
    load_graph,
    make_graph,
    open_chain,
    random_graph,
    ring_chain,
    save_graph,
    star_graph,
)
from .hilbert import (
    SectorBasis,
    central_spin_basis,
    sector_basis,
)
from .spectra import (
    CentralSpectrum,
    SpinLabelError,
    eig_sym,
    full_spectrum,
)
from .sweep import (
    GeometrySpec,
    GraphThermalEngine,
    SweepConfig,
    VerifyReport,
    builtin_graph_set,
    run_sweep,
    verify,
    zero_temperature_scan,
)

__version__ = "0.1.0"
