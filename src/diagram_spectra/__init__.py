"""Exact spectra of symmetric diagram matrices and diagram-algebra Gram
matrices.

The package computes, entirely in integer arithmetic:

* the symmetric diagram matrix A^{s+r,s} and its closed-form eigenvalues
  with multiplicities (sdm, spectrum);
* the partition-algebra Gram matrix on half diagrams, its reduced block
  eigenpolynomials, determinant factorization, and the integer values of x
  where semisimplicity fails (gram_partition);
* tensor-block spectra for Z2-relation and signed variants plus the signed
  exceptional block (gram_signed_z2);
* an independent verification oracle: symbolic certificates of the spectra
  and of det G_s, exact characteristic polynomials and polynomial
  determinants (oracle).
"""

from .combinat import binomial, k_subsets, set_partitions, stirling2
from .errors import SizeCapExceeded
from .gram_partition import (
    BlockSpectrum,
    GramMatrix,
    HalfDiagram,
    block_spectrum,
    build_gram,
    enumerate_half_diagrams,
    product_form,
    semisimple_exceptions,
    x_substitution_poly,
)
from .gram_signed_z2 import (
    block_spectrum_tensor,
    build_exceptional_block,
    x_e_poly,
    x_z2_poly,
)
from .oracle import VerifyReport, charpoly, det_poly, verify_gram_det, verify_sdm_spectrum
from .poly import Polynomial, factor_product
from .sdm import EntryMatrix, build, substitute
from .spectrum import (
    EigenvalueForm,
    difference_transform,
    distinct_eigenvalues,
    eberlein_coefficient,
    multiplicities,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSpectrum",
    "EigenvalueForm",
    "EntryMatrix",
    "GramMatrix",
    "HalfDiagram",
    "Polynomial",
    "SizeCapExceeded",
    "VerifyReport",
    "binomial",
    "block_spectrum",
    "block_spectrum_tensor",
    "build",
    "build_exceptional_block",
    "build_gram",
    "charpoly",
    "det_poly",
    "difference_transform",
    "distinct_eigenvalues",
    "eberlein_coefficient",
    "enumerate_half_diagrams",
    "factor_product",
    "k_subsets",
    "multiplicities",
    "product_form",
    "semisimple_exceptions",
    "set_partitions",
    "stirling2",
    "substitute",
    "verify_gram_det",
    "verify_sdm_spectrum",
    "x_e_poly",
    "x_substitution_poly",
    "x_z2_poly",
]
