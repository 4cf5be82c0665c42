"""Checks on the package source itself."""

import ast
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "conebands").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    # python -O strips assert statements, so none may carry a check
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def test_imports_are_declared():
    # every module the package imports, lazily or not, is the standard
    # library, the package itself or a declared dependency
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    allowed = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
               for dep in project["dependencies"]}
    allowed |= set(sys.stdlib_module_names) | {project["name"]}
    undeclared = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared += [f"{path.name}:{node.lineno} {name}" for name in names
                           if name.split(".")[0] not in allowed]
    assert undeclared == []


def test_readme_example_runs(capsys):
    # the first python block of README.md runs as written, so the README
    # cannot drift from the API
    match = re.search(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert match, "README.md has no python block"
    exec(compile(match.group(1), "README.md", "exec"), {"__name__": "readme"})
    assert "H5" in capsys.readouterr().out


def _definitions(tree):
    """(name, node) of every module-level function, class and constant of a
    module, and of every method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from ((name.id, node) for name in ast.walk(target)
                            if isinstance(name, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _references(trees):
    """(name, node) of every name read and every attribute in the trees."""
    return [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]


def test_private_names_are_used_in_src():
    # a private helper, constant or method that src itself never references
    # lives on for the tests alone; it goes, or becomes public API
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    uses = _references(trees)
    unused = []
    for path, tree in zip(SOURCES, trees):
        for name, node in _definitions(tree):
            if not name.startswith("_") or name.startswith("__"):
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            if not any(used == name and id(use) not in inside for used, use in uses):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_public_names_have_a_consumer():
    # a public name that nothing outside its own definition references (src,
    # the package's imports, README.md or the benchmark under perfbench/)
    # is API for the tests alone; it goes, or gets a consumer
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    uses = _references(trees) + [(alias.name, alias) for tree in trees
                                 for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                                 for alias in node.names]
    outside = (ROOT / "README.md").read_text() + "".join(
        path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py")))
    unused = []
    for path, tree in zip(SOURCES, trees):
        for name, node in _definitions(tree):
            if name.startswith("_"):
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            if any(used == name and id(use) not in inside for used, use in uses):
                continue
            if not re.search(rf"\b{name}\b", outside):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_only_channels_reads_the_channel_kind():
    # a channel is its family, degree and level, and every solver reads it
    # only as its scalar keys (mu^2, w), through channels.scalar_parts: no
    # other module loads Channel.kind, .p, .mu2 or .mult.  (.n is left out:
    # TransversalSpectrum shares the name)
    reads = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in SOURCES if path.name != "channels.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in ("kind", "p", "mu2", "mult")
             and isinstance(node.ctx, ast.Load)]
    assert reads == []


def test_only_half_angles_reduces_theta():
    # every solver reads the quasimomentum through radial.half_angles, so
    # theta = 0 and pi, the band edges, are read alike everywhere: no other
    # function reduces theta mod 2 pi
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "attr", getattr(func, "id", None)) != "remainder":
                continue
            inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            name = min(inside, key=lambda f: f.end_lineno - f.lineno).name if inside else "<module>"
            callers.append(f"{path.stem}.{name}")
    assert callers == ["radial.half_angles"]


# functions of src that the public-API run below does not enter, each with
# the reason it stays
UNREACHED = {
    "oracle.assemble": "the dense cross-check of oracle._path; tests and the "
                       "benchmark's own tests call it (ROADMAP direction 15 moves it)",
    "oracle.dense_hermitian_eigenvalues": "solves assemble's matrices; tests and the "
                                          "benchmark's own tests call it",
    "radial._certify.refuse": "only a refused zero count reaches it",
    "radial._polish.refuse": "only a refused polish bracket reaches it",
}


def _functions(package_dir):
    """{(file, first line of the code object): dotted name} of every def
    in the package, nested closures and methods included.  A decorated
    function's code object starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = name
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(package_dir.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.resolve(), path.stem)
    return found


def test_every_function_in_src_is_reached(tmp_path):
    # src is what a run executes: a short public-API script, three spectra
    # built, saved and loaded, every channel solved by both solvers, must
    # enter every function of the package but those in UNREACHED
    import conebands
    from conebands import oracle
    from conebands.channels import enumerate_channels
    from conebands.radial import band_edges, floquet_eigenvalues, make_profile

    functions = _functions(Path(conebands.__file__).resolve().parent)
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    oracle._plan.cache_clear()  # a plan cached by an earlier test would skip _plan
    profile = make_profile(0.2, 1.0, 0.8)
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for k, (sides, p, lam_max) in enumerate([([2 * math.pi] * 2, 1, 8.0),
                                                 ([2 * math.pi / 3], 0, 60.0),
                                                 ([2 * math.pi] * 3, 2, 6.0)]):
            conebands.save_spectrum(conebands.build_flat_torus_spectrum(sides, lam_max),
                                    tmp_path / f"{k}.json")
            ts = conebands.load_spectrum(tmp_path / f"{k}.json")
            channels = enumerate_channels(ts, p, lam_max)
            for ch in channels:
                band_edges(ch, profile, lam_max)
                for theta in (0.0, math.pi, 1.1):
                    floquet_eigenvalues(ch, theta, profile, lam_max)
                    oracle.oracle_eigenvalues(ch, theta, profile, lam_max)
        oracle.oracle_eigenvalues(channels[0], 1.1, make_profile(0.2, 1.0, 0.8, 0.05), lam_max)
    finally:
        sys.setprofile(previous)
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}
    missed = sorted(name for key, name in functions.items() if key not in reached)
    assert missed == sorted(UNREACHED)
