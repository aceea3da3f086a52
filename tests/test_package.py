import hardylab as hl
from hardylab import cli, errors, projection, semigroup, series, special, spectral, verify


def test_package_exports_exactly_its_modules_all():
    # A later star import would silently shadow an earlier name.
    assert len(hl.__all__) == len(set(hl.__all__))
    for module in (errors, projection, semigroup, series, special, spectral):
        for name in module.__all__:
            assert getattr(hl, name) is getattr(module, name), name
    removed = ["zero", "monomial", "truncate", "semiconjugacy_residual", "non_cyclicity_witness",
               "HypothesisViolated"]
    for name in [*removed, *verify.__all__, *cli.__all__]:
        assert name not in hl.__all__ and not hasattr(hl, name), name
