"""The library holds no public API that only the tests call.

Every public module-level function and class in ``src/mirrormatch``, and
every public method and property of such a class, must be named
somewhere in ``src/``, ``perfbench/`` or ``pyproject.toml`` outside its
own definition. A name counts where it is read as a variable, an
attribute or an import in Python code, or appears as a word in
``pyproject.toml``. The match is by name alone, so a name shared with an
unrelated attribute counts as used.

The benchmark's traced pass also reads private names and module
attributes (``analytic.integrate``, ``density._log_bessel_vec``,
``StreamKey.generator``, ...); a subprocess installs its tracer to check
that every name it wraps still exists.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mirrormatch"


def public_definitions():
    """``(path, name, first line, last line)`` of every public definition in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [m for m in node.body if isinstance(m, ast.FunctionDef)]
            for member in members:
                if not member.name.startswith("_"):
                    first = min([member.lineno] + [d.lineno for d in member.decorator_list])
                    yield path, member.name, first, member.end_lineno


def references():
    """``(path, name, line)`` of every name read in the package, the benchmark and the metadata."""
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                yield path, node.id, node.lineno
            elif isinstance(node, ast.Attribute):
                yield path, node.attr, node.lineno
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    yield path, alias.name.rpartition(".")[2], node.lineno
    metadata = ROOT / "pyproject.toml"
    for line, text in enumerate(metadata.read_text().splitlines(), start=1):
        for word in re.findall(r"\w+", text):
            yield metadata, word, line


def test_every_public_name_is_used_outside_the_tests():
    used: dict = {}
    for path, name, line in references():
        used.setdefault(name, []).append((path, line))
    unused = [
        f"{path.relative_to(ROOT)}:{first} {name}"
        for path, name, first, last in public_definitions()
        if not any(where != path or not first <= line <= last for where, line in used.get(name, ()))
    ]
    assert not unused, "public names that only the tests use:\n" + "\n".join(unused)


INSTALL_TRACER = """
import sys
sys.path[:0] = sys.argv[1:]
import spans
from mirrormatch import analytic, cli, density, quadrature, sampler, simulate, specfun, streams
modules = dict(cli=cli, simulate=simulate, sampler=sampler, streams=streams, analytic=analytic,
               density=density, quadrature=quadrature, specfun=specfun)
names = {name: set(vars(module)) for name, module in modules.items()}
spans.install(spans.Tracer(), modules)
added = {name: sorted(set(vars(module)) - names[name]) for name, module in modules.items()}
assert not any(added.values()), f"the tracer wraps names the package no longer has: {added}"
"""


def test_benchmark_tracer_finds_every_name_it_wraps():
    # a wrapped name that is gone raises in the tracer, or is added to its module afresh
    args = [sys.executable, "-c", INSTALL_TRACER, str(ROOT / "perfbench"), str(ROOT / "src")]
    out = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
