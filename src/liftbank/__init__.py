"""Exact-arithmetic toolkit for two-channel FIR perfect-reconstruction
filter banks, their lifting factorizations, and the group structure of
the factorization universe."""

from .errors import (BaseNotIdentity, DCZero, DuplicateTap, EmptySupport,
                     FactorizationStuck, InvalidArgument, LiftbankError,
                     NonIntegerInput, NotAdmissible, NotDyadic, NotHSConcentric,
                     NotIrreducible, NotUnimodular, NotWSDelayMinimized,
                     ParseError, ZeroTap)
from .laurent import LaurentPoly, SymmetryTag, is_dyadic
from .polyphase import (DetInfo, BankClass, PolyphaseMatrix, PolyphaseVector,
                        analyze_filter, synthesize_filter, split_signal,
                        merge_signal, classify_bank, make_bank, haar_bank,
                        IDENTITY, LAMBDA, J, L)
from .lifting import (GroupWord, LiftingCascade, LiftingStep, gamma_conjugate,
                      invert_cascade, lower, normalize_semidirect,
                      reduce_to_irreducible, reduce_word, scaling_matrix,
                      upper, word_concat)
from .glstructure import (GroupLiftingStructure, FilterGroupSpec, RadiiReport,
                          S_H, S_HR, S_W, S_WR, STRUCTURES, base_admissible,
                          cascade_in_structure, check_order_increasing,
                          d_invariance_check, step_admissible, ws_radii)
from .factor import (RescalingWitness, dc_normalize, equivalent_mod_rescaling,
                     factor_euclidean, factor_hs, factor_ws, laurent_divmod)
from .transform import (PRReport, apply_analysis, apply_synthesis,
                        reversible_analysis, reversible_synthesis, verify_pr)
from .formats import parse_bank, parse_cascade, print_bank, print_cascade

__version__ = "1.0.0"
