"""Only ``spectral.core`` knows how the unknowns sit among a grid's nodes:
everywhere else maps between nodal arrays and kept-node vectors through
``WeightedGrid.restrict`` and ``WeightedGrid.extend``, and only it converts
sparse matrices (``.tocoo()``, ``.tocsr()``): every other module works on the
CSR data of a pair's own stencil structure. And no module imports scipy when
it is imported: each function that calls scipy imports it."""
import ast
from pathlib import Path

import pytest

import striplab

_SRC = Path(striplab.__file__).parent
_OWNER = _SRC / "spectral" / "core.py"


def _is_keep(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "keep"


def _mask_subscripts(source: str) -> list:
    """Line numbers of the subscripts that index with a ``.keep`` attribute,
    as ``u[grid.keep]`` and ``full[grid.keep] = u`` do, or index, and so
    assign, through one, as ``grid.keep[0] = False`` does."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript)
        and (_is_keep(node.value) or any(_is_keep(n) for n in ast.walk(node.slice)))
    ]


def test_the_check_finds_every_form_of_mask_indexing():
    source = "\n".join([
        "v = psi[grid.keep]",
        "full[pair.grid.keep] = u",
        "r = R.ravel()[pair.grid.keep]",
        "grid.keep[0] = False",
        "x = np.repeat(x1, n2)[(grid.keep)]",
        "S = assemble_2d(grid.x1, grid.x2, terms, grid.keep)",
        "keep[1:-1, 1:-1] = True",
        "live = live[keep]",
    ])
    assert _mask_subscripts(source) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in _SRC.rglob("*.py") if p != _OWNER),
    ids=lambda p: str(p.relative_to(_SRC)),
)
def test_no_module_but_core_indexes_with_the_mask(path):
    assert _mask_subscripts(path.read_text()) == []


_CONVERSIONS = ("tocoo", "tocsr")


def _sparse_conversions(source: str) -> list:
    """Line numbers of the calls of a ``.tocoo()`` or ``.tocsr()`` method."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _CONVERSIONS
    ]


def test_the_check_finds_every_sparse_conversion():
    source = "\n".join([
        "perturbed = (pair.S + M_v).tocsr()",
        "coo = A.tocoo()",
        "B = (M - 0.5 * dt * A).tocsr(copy=True)",
        "convert = A.tocsr",
        "C = A.tocsc()",
        "D = tocsr(A)",
    ])
    assert _sparse_conversions(source) == [1, 2, 3]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in _SRC.rglob("*.py") if p != _OWNER),
    ids=lambda p: str(p.relative_to(_SRC)),
)
def test_no_module_but_core_converts_sparse_matrices(path):
    assert _sparse_conversions(path.read_text()) == []


def _module_level_scipy_imports(source: str) -> list:
    """Line numbers of the imports of scipy or of a scipy submodule that run
    when the module is imported: every one outside a function body."""
    found, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        else:
            todo.extend(ast.iter_child_nodes(node))
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_the_check_finds_every_module_level_scipy_import():
    source = "\n".join([
        "import scipy",
        "import scipy.sparse as sp",
        "from scipy.linalg import cholesky_banded",
        "import numpy, scipy.sparse.linalg",
        "if True:",
        "    from scipy import linalg",
        "def f():",
        "    import scipy.linalg",
        "    from scipy.linalg import LinAlgError",
        "from .scipy import x",
        "import scipyx",
    ])
    assert _module_level_scipy_imports(source) == [1, 2, 3, 4, 6]


@pytest.mark.parametrize(
    "path", sorted(_SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(_SRC))
)
def test_no_module_imports_scipy_when_it_is_imported(path):
    assert _module_level_scipy_imports(path.read_text()) == []
