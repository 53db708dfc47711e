"""Derivative descendants of extended cyclic codes and derivative decoding.

The package splits into algebra (fields, exponent sets, descendants),
decoding engines (sum-product, ordered statistics, exact ML), the
derivative-decoding loops built on them, and a Monte-Carlo AWGN harness
with a CLI.  Everything public is re-exported here.
"""
from .gf2m import (GF2m, DEFAULT_PRIMITIVE_POLYS, NonPrimitivePolynomialError,
                   coset_closure, coset_representatives, cyclotomic_coset,
                   field_for_length)
from .gf2 import (DimensionTooLargeError, all_codewords, nullspace, rank,
                  row_space_contains, row_spaces_equal, rref, rref_stack)
from .cyclic import (CodeSpec, ExponentSet, NonBinaryResultError,
                     NotADivisorError, NotClosedUnderDoublingError,
                     anf_coefficients, bch_bound, code_from_exponents,
                     code_from_generator, cyclic_shift, ebch_code,
                     exponent_set_from_generator, extend_cyclic,
                     generator_from_exponent_set, is_member,
                     min_distance_exhaustive, ms_evaluate, ms_transform,
                     rm_exponent_set, rm_membership)
from .derivative import (MinimalDdBasis, ZeroDirectionError,
                         check_equivalence_shift, covered_set, cyclic_da,
                         cyclic_dd, da_code, dd_code, derivative_codeword,
                         derivative_rows, minimal_dd_basis, rm_projection,
                         stacked_derivative_rank)
from .parity import (DualTooLargeError, EmptyParityMatrixError,
                     InvalidGeometryError, SparseParityMatrix,
                     dual_orbit_parity_matrix, eg_line_parity_matrix,
                     is_orthogonal_to, read_alist, write_alist)
from .decoders import (LLR_CLIP, RankDeficientError, mld_batch_decoder,
                       mld_exhaustive, osd_batch_decoder, osd_decode,
                       spa_batch_decoder, spa_decode_batch)
from .ddcodec import (DecodeReport, DirectionSet, boxplus, dd_decode_cyclic,
                      dd_decode_minimal, fixed_space_dimension, flop_account,
                      minimal_transversal)
from .sim import (ChannelConfig, ConfigError, SimConfig, SimPoint, SimResult,
                  build_decoder, load_config, run_monte_carlo,
                  save_config, transmit, write_results)

__version__ = "0.1.0"
