"""The package namespace is lazy: a submodule loads only what it imports, and every public
name of ``ragtrim`` is the object its submodule defines."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ragtrim

SRC = Path(ragtrim.__file__).resolve().parents[1]
HEAVY = ("numpy", "ragtrim.pipeline", "ragtrim.predictor", "ragtrim.features", "ragtrim.cli")


def fresh(code: str):
    """The JSON that ``code`` prints in a new interpreter with this ragtrim first on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    return json.loads(done.stdout)


def test_light_modules_do_not_import_numpy_or_the_pipeline():
    loaded = fresh("import json, sys\n"
                   "import ragtrim.data, ragtrim.synth, ragtrim.generation, ragtrim.compress, "
                   "ragtrim.annotate\n"
                   "print(json.dumps(sorted(sys.modules)))")
    assert "ragtrim.annotate" in loaded
    assert [name for name in HEAVY if name in loaded] == []


def test_bare_package_imports_no_submodule_until_a_name_is_used():
    loaded, after = fresh("import json, sys\n"
                          "import ragtrim\n"
                          "loaded = sorted(m for m in sys.modules if m.startswith('ragtrim.'))\n"
                          "ragtrim.pipeline.run_pipeline\n"
                          "print(json.dumps([loaded, 'ragtrim.pipeline' in sys.modules]))")
    assert (loaded, after) == ([], True)


def test_every_public_name_is_its_submodules_object():
    importlib.import_module("ragtrim.compress")  # binds the submodule on the package
    for name in ragtrim.__all__:
        module = importlib.import_module(f"ragtrim.{ragtrim._MODULE_OF[name]}")
        assert getattr(ragtrim, name) is getattr(module, name), name
    from ragtrim import annotate_dataset, compress  # the README's order
    assert compress is importlib.import_module("ragtrim.compress").compress
    assert annotate_dataset is importlib.import_module("ragtrim.annotate").annotate_dataset
    assert ragtrim.__version__ == "0.1.0"


def test_star_import_dir_and_unknown_names():
    namespace: dict = {}
    exec("from ragtrim import *", namespace)
    assert set(ragtrim.__all__) <= set(namespace) and "run_pipeline" in ragtrim.__all__
    assert set(ragtrim.__all__) | {"__version__"} <= set(dir(ragtrim))
    with pytest.raises(AttributeError, match="no_such_name"):
        ragtrim.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from ragtrim import no_such_name  # noqa: F401
