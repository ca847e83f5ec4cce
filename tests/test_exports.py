"""Every public name a module lists in ``__all__``, and every name the
benchmark imports, is defined."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import resonancekit

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

MODULES = ["resonancekit"] + [
    f"resonancekit.{info.name}" for info in pkgutil.iter_modules(resonancekit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _reads(tree, enclosing=()):
    """(name, enclosing definitions) of each name or attribute read in
    ``tree``; the enclosing definitions are the names of the functions and
    classes the read sits in."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            yield getattr(node, "id", None) or node.attr, enclosing
        inner = (*enclosing, node.name) if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
            else enclosing
        yield from _reads(node, inner)


def test_every_public_function_and_class_runs_outside_the_tests():
    # A public function or class that no command or demo reads is code kept
    # only for the tests.  Its own body does not count; tests/ does not
    # count either.
    read = set()
    for path in sorted(ROOT.glob("src/resonancekit/*.py")) + sorted(ROOT.glob("demos/*.py")):
        for name, enclosing in _reads(ast.parse(path.read_text(encoding="utf-8"))):
            if name not in enclosing:
                read.add(name)
    unread = []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            value = getattr(module, attr)
            if (inspect.isfunction(value) or inspect.isclass(value)) and attr not in read:
                unread.append(f"{name}.{attr}")
    assert unread == []


def test_test_oracles_stay_out_of_the_package():
    # The dense oracles and the per-row references in tests/ check the
    # package; none of them is public, and the package defines none of the
    # known ones, constants included.
    for reference, known in (
        ("dense_oracles", {"eigh_block", "build_parity", "SIGMA_X", "SIGMA_Z"}),
        ("row_reference", {"SpectrumRow", "table_rows", "csv_to_table"}),
    ):
        names = vars(importlib.import_module(reference))
        oracles = {
            name for name, value in names.items()
            if callable(value) and getattr(value, "__module__", None) == reference
        }
        assert known <= names.keys()
        for name in MODULES:
            module = importlib.import_module(name)
            assert (oracles | known).isdisjoint(getattr(module, "__all__", ())), name
            assert not any(hasattr(module, oracle) for oracle in known), name


def _resonancekit_imports(tree):
    """(module, name) of every import of the package in ``tree``, including
    the code of string constants that child interpreters run; name is None
    for a plain ``import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "resonancekit" in node.value:
                try:
                    yield from _resonancekit_imports(ast.parse(node.value))
                except SyntaxError:
                    pass
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("resonancekit"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("resonancekit"):
                    yield alias.name, None


def test_every_name_the_benchmark_imports_exists():
    # perfbench/ is tested outside the tier-1 suite; a name deleted here would
    # still break every benchmark run.  The scripts are parsed, not imported.
    imports = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        imports.update(_resonancekit_imports(ast.parse(path.read_text(encoding="utf-8"))))
    assert ("resonancekit.sweep", "worker_count") in imports
    assert ("resonancekit.sweep", "parse_config") in imports  # from the set-up probe
    missing = []
    for module_name, name in sorted(imports, key=str):
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            if importlib.util.find_spec(f"{module_name}.{name}") is None:
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_the_package_imports_neither_scipy_nor_mpmath():
    # Either would add its import time to every CLI start-up; scipy is a
    # test-only dependency.  The modules are parsed, so a guarded or
    # function-level import counts too.
    paths = sorted((ROOT / "src" / "resonancekit").glob("*.py"))
    assert "kam.py" in {path.name for path in paths}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}: {m}" for m in modules if m.split(".")[0] in ("scipy", "mpmath")]
    assert found == []


def test_only_spectrum_and_averaging_use_the_gap_rule():
    # One clustering helper: every other module clusters through
    # averaging.cluster_levels, which refuses a tolerance that is not finite
    # and > 0.  Names, attributes and imports count; strings do not.
    paths = sorted(ROOT.glob("src/resonancekit/*.py")) + sorted(ROOT.glob("demos/*.py")) \
        + sorted(ROOT.glob("tests/*.py")) + sorted(PERFBENCH.glob("*.py"))
    users = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name == "_gap_ids":
                users.add(path.relative_to(ROOT).as_posix())
    assert users == {"src/resonancekit/spectrum.py", "src/resonancekit/averaging.py"}


def _complex_uses(tree, function=None):
    """(function, token) of each complex literal in ``tree``, and of each name
    or attribute ``conj``, ``np.conjugate`` or containing ``complex``;
    function is the innermost enclosing def (None at module level)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, complex):
            yield function, "1j"
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.name
        if name and (name == "conj" or "complex" in name or (
            name == "conjugate" and getattr(node.value, "id", None) in ("np", "numpy")
        )):
            yield function, name
        inner = node.name if isinstance(node, ast.FunctionDef) else function
        yield from _complex_uses(node, inner)


def test_only_the_exponential_and_the_refusal_touch_complex_numbers():
    # The model is real: iW, inside exp(W), is the package's only complex
    # arithmetic, and operators._mat the only place that looks for a complex
    # dtype, to refuse it.  Names, attributes, imports and complex literals
    # count; strings do not.
    found = set()
    for path in sorted((ROOT / "src" / "resonancekit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, *use) for use in _complex_uses(tree)}
    assert found == {
        ("kam.py", "_exp_and_norm", "1j"),
        ("kam.py", "_exp_and_norm", "conj"),
        ("operators.py", "_mat", "iscomplexobj"),
    }
