"""Structural controllability of networked LTI systems with rational
parameter dependence: analysis verdicts and minimal interconnection design.
"""

from .design import (DesignResult, InfeasibleDesignError, design_topology,
                     eliminate_pdums, extract_cover_sets, g_value, greedy_color,
                     greedy_link_rows)
from .exactla import frac, mat
from .matroid import (CommonIndependentSet, GenericPattern, IndependenceOracle,
                      NumericColumns, matroid_intersection_rank)
from .model import (LumpedPlant, ModelError, NdsModel, StructuredPattern,
                    SubsystemModel, analysis_form, assemble_lumped,
                    check_well_posedness)
from .ratfun import (AugmentedSubsystem, EntryClass, ModeData, Spectrum,
                     entry_classes, mode_data, nds_tfms, spectrum)
from .structgraph import (SccDecomposition, StructureGraph, build_nacg,
                          find_input_unreachable_lambda_cycle,
                          find_input_unreachable_lambda_edge, scc_decompose, to_dot,
                          unreachable_source_sccs_with_lambda_edge, vertex_name)
from .verify import (FeasibilityReport, ModeCheck, RealizationResult, Verdict,
                     check_feasibility, check_fum_networked,
                     check_structural_controllability, randomized_realization_check,
                     realize_numeric, uncontrollable_modes)

__version__ = "0.1.0"
