"""skewalg: exact symbolic computation of skew-symmetric identities in free
nonassociative algebras, with T-ideal membership certificates."""

from .config import Config, ResourceLimitError
from .family import (BaseDescriptor, SkewDecomposition, SuperWord,
                     associative_projection, base_descriptors, base_element,
                     basea_count, fm, n_bound, solve_skew_decomposition,
                     standard_polynomial, super_commutator, super_jordan,
                     t_element, t_power, u_word, x_bracket, z_word)
from .linalg import EchelonAccumulator, SpanResult
from .poly import (MultiPoly, ParseError, associator, commutator, format_poly,
                   jordan, multiply, parse_identity_file, parse_poly,
                   parse_word, substitute)
from .symmetrize import (alternate, collapse, is_skew_symmetric, linearize,
                         skew)
from .variety import (ComponentSpace, GenDescriptor, MembershipCertificate,
                      MembershipResult, Variety, builtin_variety,
                      clear_space_cache, component_dimension, component_space,
                      consequence_generators, expand_descriptor, is_member)
from .verify import CHECKS, DESK_SUITE, Report, verify
from .words import HOLE, degree, enumerate_words, format_word, leaves, word_count

__version__ = "0.1.0"
