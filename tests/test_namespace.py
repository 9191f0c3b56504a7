"""The package namespace: submodules are registered at `import
diagram_spectra` and run on first use, and every public name resolves to the
object in its home module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diagram_spectra

SUBMODULES = (
    "combinat", "errors", "gram_partition", "gram_signed_z2", "oracle", "poly", "sdm", "spectrum"
)

# the public API, as the package's __all__ had it when its imports were eager
PUBLIC = (
    "BlockSpectrum", "EigenvalueForm", "EntryMatrix", "GramMatrix", "HalfDiagram", "Polynomial",
    "SizeCapExceeded", "VerifyReport", "binomial", "block_spectrum", "block_spectrum_tensor",
    "build", "build_exceptional_block", "build_gram", "charpoly", "det_poly",
    "difference_transform", "distinct_eigenvalues", "eberlein_coefficient",
    "enumerate_half_diagrams", "factor_product", "k_subsets", "multiplicities", "product_form",
    "semisimple_exceptions", "set_partitions", "stirling2", "substitute", "verify_gram_det",
    "verify_sdm_spectrum", "x_e_poly", "x_substitution_poly", "x_z2_poly",
)

# runs in a fresh interpreter; a module "ran" when its code executed, which
# reading its __dict__ through object.__getattribute__ does not cause
_PROBE = """
import json, sys

def ran(name):
    return '__builtins__' in object.__getattribute__(sys.modules[name], '__dict__')

import diagram_spectra as pkg
registered = sorted(k for k in sys.modules if k.startswith('diagram_spectra.'))
ran_at_import = [k for k in registered if ran(k)]
star = {}
exec('from diagram_spectra import *', star)
homes = {name: mod for mod, names in pkg._EXPORTS.items() for name in names}
not_home = [
    name for name in pkg.__all__
    if getattr(pkg, name) is not getattr(sys.modules['diagram_spectra.' + homes[name]], name)
]
held = {k: sys.modules[k] for k in registered}
import importlib
importlib.reload(pkg)
print(json.dumps({
    'registered': registered,
    'ran_at_import': ran_at_import,
    'all': pkg.__all__,
    'star': sorted(set(star) - {'__builtins__'}),
    'dir': dir(pkg),
    'not_home': not_home,
    'replaced_by_reload': sorted(k for k in held if sys.modules[k] is not held[k]),
}))
"""


@pytest.fixture(scope="module")
def fresh():
    src = str(Path(diagram_spectra.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return json.loads(proc.stdout)


def test_import_registers_every_submodule_and_runs_none(fresh):
    # bench/tracing.py reads sys.modules["diagram_spectra.<module>"] right
    # after `import diagram_spectra`
    assert fresh["registered"] == [f"diagram_spectra.{m}" for m in SUBMODULES]
    assert fresh["ran_at_import"] == []


def test_every_public_name_is_the_object_in_its_home_module(fresh):
    assert fresh["all"] == sorted(PUBLIC)
    assert fresh["not_home"] == []


def test_reload_keeps_the_registered_modules(fresh):
    assert fresh["replaced_by_reload"] == []


def test_star_import_binds_every_public_name(fresh):
    assert fresh["star"] == fresh["all"]


def test_dir_lists_public_names_and_submodules(fresh):
    assert set(fresh["all"]) | set(SUBMODULES) <= set(fresh["dir"])
    assert fresh["dir"] == sorted(fresh["dir"])


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'diagram_spectra' has no attribute 'no_such'"):
        diagram_spectra.no_such  # noqa: B018
    assert not hasattr(diagram_spectra, "SignedBlockKey")
    from diagram_spectra import cli  # a submodule outside the table still imports

    assert cli.sdm_main is sys.modules["diagram_spectra.cli"].sdm_main
