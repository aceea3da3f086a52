import os
import subprocess
import sys
from pathlib import Path

import hardylab as hl
from hardylab import cli, errors, projection, semigroup, series, special, spectral, table, verify


def test_package_exports_exactly_its_modules_all():
    # A later star import would silently shadow an earlier name.
    assert len(hl.__all__) == len(set(hl.__all__))
    for module in (errors, projection, semigroup, series, special, spectral):
        for name in module.__all__:
            assert getattr(hl, name) is getattr(module, name), name
    removed = ["zero", "monomial", "truncate", "semiconjugacy_residual", "non_cyclicity_witness",
               "HypothesisViolated", "write_columns"]
    for name in [*removed, *verify.__all__, *cli.__all__, *table.__all__]:
        assert name not in hl.__all__ and not hasattr(hl, name), name


def test_import_leaves_the_csv_encoder_unloaded():
    # Only the CLI imports hardylab.table; a library program never pays for it.
    code = "import sys, hardylab, hardylab.verify; print('hardylab.table' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(hl.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False"]
