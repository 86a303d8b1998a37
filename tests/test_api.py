import gammabw
from gammabw import bandwidth, gamma2, lambertw, oracle

MODULES = (lambertw, bandwidth, gamma2, oracle)


def test_public_names_are_the_modules_names_in_order():
    want = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert gammabw.__all__ == want


def test_public_names_are_unique():
    assert len(set(gammabw.__all__)) == len(gammabw.__all__)


def test_public_names_resolve_to_their_modules_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gammabw, name) is getattr(module, name)
            assert getattr(module, name).__module__ == module.__name__
    assert isinstance(gammabw.__version__, str)
