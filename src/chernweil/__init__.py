"""Chern-Weil forms of Hermitian bundles: exact Schur calculus, positivity
cone tests, and randomized verification batteries for curvature inequalities.
"""

__version__ = "0.1.0"

from .exterior import (DimensionMismatch, ExteriorForm, NotReal, NotTopDegree,
                       decomposable, evaluate_pairing, hermitian_gram,
                       hermitian_one_one, multi_indices, one_form,
                       one_one_matrix, top_coefficient, volume_coefficient,
                       wedge, wedge_all, wedge_power)
from .polynomial import (ExactDivisionError, SymPoly, antisymmetrize,
                         complete_homogeneous, divide_exact,
                         elementary_symmetric, vandermonde)
from .schur import (FlagType, complete_flag_oracle, conjugate_partition,
                    dp_nu, dp_pushforward, enumerate_partitions,
                    expand_in_roots, gschur_in_chern,
                    gschur_in_segre, is_partition, jacobi_trudi_check,
                    projective_oracle, schur_in_chern, segre_in_chern,
                    segre_to_chern)
from .curvature import (CurvaturePoint, GriffithsReport, SearchBudget,
                        chern_form, chern_form_oracle, from_coefficients,
                        generalized_schur_form, griffiths_certificate,
                        griffiths_energy, griffiths_minimum, schur_form,
                        segre_form, total_chern_forms, validate)
from .positivity import (PositivityVerdict, Status, check_hermitian_positive,
                         check_positive, check_strongly_positive,
                         gram_witness_form, reconstruct_certificate)
from .generators import (GeneratorSpec, convex_combine, dual_nakano_sample,
                         indefinite_control, line_sum, psd_tensor, sample)
from .batch import (RunConfig, check_form_file, curvature_from_json,
                    curvature_to_json, form_from_json, form_to_json,
                    replay_witness, verify_c2, verify_inequalities,
                    verify_main_theorem, verify_pushforwards, write_csv,
                    write_report)

__all__ = [name for name in dir() if not name.startswith("_")]
