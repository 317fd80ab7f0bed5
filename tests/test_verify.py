"""The verifier shares no code with the searches whose witnesses it judges.

``quorumlens.verify`` may import only the standard library and the
network model, ``quorumlens.network``. That rules out every engine of
``quorum.py`` (``_QuorumView``, the split scan, the generated-quorum
search), ``influence.py`` (``_solve``, ``analyze_graph``) and any third
party package. The imports are read from the source with ``ast``, so a
function-level import counts as well.
"""

import ast
import sys
from pathlib import Path

import pytest

import quorumlens
from quorumlens import verify

ALLOWED_PACKAGE_MODULES = {"network"}


def foreign_imports(source: str) -> list[str]:
    """The modules ``source`` imports beyond the standard library and ``.network``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level > 1:
                found.append("." * node.level + (node.module or ""))
                continue
            if node.level == 1:
                # ``from . import x`` names package modules; ``from .x import y`` one.
                names = [alias.name for alias in node.names] if node.module is None else [node.module]
                found.extend(f".{n}" for n in names if n not in ALLOWED_PACKAGE_MODULES)
                continue
            modules = [node.module]
        else:
            continue
        for name in modules:
            top, _, rest = name.partition(".")
            if top == "quorumlens":
                if rest.partition(".")[0] not in ALLOWED_PACKAGE_MODULES:
                    found.append(name)
            elif top not in sys.stdlib_module_names:
                found.append(name)
    return found


def test_verify_imports_only_the_standard_library_and_the_network_model():
    source = Path(verify.__file__).read_text()
    assert foreign_imports(source) == []


@pytest.mark.parametrize(
    "line",
    [
        "from .quorum import _QuorumView",
        "from .quorum import check_quorum_intersection",
        "from .influence import _solve, analyze_graph",
        "from . import quorum",
        "from quorumlens.quorum import max_quorum_within",
        "import quorumlens.graphs",
        "import quorumlens",
        "from .. import quorumlens",
        "import numpy",
        "def f():\n    from .graphs import tarjan_sccs",
    ],
)
def test_a_search_import_is_flagged(line):
    assert foreign_imports(line) != []


@pytest.mark.parametrize(
    "line",
    [
        "from __future__ import annotations",
        "from itertools import chain",
        "import dataclasses",
        "from .network import _wins, validates",
        "from quorumlens.network import observed_set",
        "from . import network",
    ],
)
def test_a_model_or_standard_import_passes(line):
    assert foreign_imports(line) == []


def test_the_package_exports_the_verifier():
    for name in ("WitnessCheckError", "is_quorum", "verify_fork_witness", "verify_quorum_pair"):
        assert getattr(quorumlens, name) is getattr(verify, name)
        assert name in quorumlens.__all__
