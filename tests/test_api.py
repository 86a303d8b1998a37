import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_dataclasses_inspect_or_typing():
    # a fresh interpreter without site, whose .pth files may preload typing
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gammabw; import gammabw.cli; "
        "print(gammabw.__file__); print(*sorted(sys.modules))"
    )
    root = Path(gammabw.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(root)],
        capture_output=True, text=True, check=True,
    )
    where, loaded = done.stdout.splitlines()
    assert Path(where).resolve().parent.parent == root
    assert {"dataclasses", "inspect", "typing"}.isdisjoint(loaded.split())


def test_cli_loads_json_only_when_writing_json():
    # one fresh interpreter: the imports load neither json nor __future__,
    # then a --format json run loads json on demand and writes the golden
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gammabw, gammabw.cli; "
        "sys.stderr.write(' '.join(sorted(sys.modules))); "
        "sys.exit(gammabw.cli.main(['fwhm', '--a', '2', '--b', '1', '--format', 'json']))"
    )
    root = Path(gammabw.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(root)],
        capture_output=True, check=True,
    )
    assert {"json", "__future__"}.isdisjoint(done.stderr.decode().split())
    golden = Path(__file__).resolve().parent / "golden" / "fwhm_a2_b1.json"
    assert done.stdout == golden.read_bytes()


def test_cli_loads_argparse_only_for_other_spellings():
    # one fresh interpreter: a plainly spelled --verify run parses without
    # argparse, then the same run abbreviated loads it and writes the same
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gammabw.cli; "
        "argv = ['fwhm', '--a', '2', '--b', '1', '--verify', '--format', 'csv']; "
        "first = gammabw.cli.main(argv); loaded = 'argparse' in sys.modules; "
        "argv[5] = '--verif'; second = gammabw.cli.main(argv); "
        "sys.stderr.write(f'{first} {loaded} {second} {\"argparse\" in sys.modules}')"
    )
    root = Path(gammabw.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(root)],
        capture_output=True, check=True,
    )
    assert done.stderr.decode() == "0 False 0 True"
    golden = Path(__file__).resolve().parent / "golden" / "fwhm_verify_a2_b1.csv"
    assert done.stdout == 2 * golden.read_bytes()
