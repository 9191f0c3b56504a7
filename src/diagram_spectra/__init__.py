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

Submodules load on first use: `import diagram_spectra` registers each in
`sys.modules` and as a package attribute, and runs its code when one of its
attributes is first read. `from diagram_spectra import build` and
`import diagram_spectra.oracle` work as before.
"""

import importlib.util
import sys
import types

__version__ = "0.1.0"

# each submodule and the public names it exports at the package level
_EXPORTS = {
    "combinat": ("binomial", "k_subsets", "set_partitions", "stirling2"),
    "errors": ("SizeCapExceeded",),
    "gram_partition": (
        "BlockSpectrum", "GramMatrix", "HalfDiagram", "block_spectrum", "build_gram",
        "enumerate_half_diagrams", "product_form", "semisimple_exceptions", "x_substitution_poly",
    ),
    "gram_signed_z2": (
        "block_spectrum_tensor", "build_exceptional_block", "x_e_poly", "x_z2_poly",
    ),
    "oracle": ("VerifyReport", "charpoly", "det_poly", "verify_gram_det", "verify_sdm_spectrum"),
    "poly": ("Polynomial", "factor_product"),
    "sdm": ("EntryMatrix", "build", "substitute"),
    "spectrum": (
        "EigenvalueForm", "difference_transform", "distinct_eigenvalues",
        "eberlein_coefficient", "multiplicities",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _lazy(name: str) -> types.ModuleType:
    """Submodule `name`, entered in sys.modules; its code runs when one of
    its attributes is first read."""
    fullname = f"{__name__}.{name}"
    # on a reload of the package, keep the module that callers already hold
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
