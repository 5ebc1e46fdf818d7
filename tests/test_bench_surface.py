"""The end-to-end benchmark's import surface.

``benchmarks/e2e`` runs against the program from outside: its probes
import names from ``repro`` and construct the service and the process
executor with keyword arguments.  A change that removes one of those
names or keywords does not fail the benchmark's own smoke test -- a
probe that cannot run reports ``null`` with a reason -- so it is pinned
here instead.  The files are parsed, not listed, so this follows any
later edit of the benchmark.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

from repro.service import WhyQueryService
from repro.shard import ProcessExecutor

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
FILES = ("probes.py", "workloads.py", "run.py")

#: classes whose construction keywords and methods the benchmark relies on
PINNED = {"WhyQueryService": WhyQueryService, "ProcessExecutor": ProcessExecutor}


def parsed(name: str) -> ast.Module:
    return ast.parse((E2E / name).read_text(), filename=name)


def repro_imports() -> Iterator[Tuple[str, int, str, List[str]]]:
    """``(file, line, module, names)`` of every ``repro`` import."""
    for name in FILES:
        for node in ast.walk(parsed(name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                yield name, node.lineno, node.module, [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        yield name, node.lineno, alias.name, []


IMPORTS = list(repro_imports())


def test_the_benchmark_imports_from_repro():
    assert {file for file, *_ in IMPORTS} == set(FILES)
    assert ("repro.shard", ["ProcessExecutor"]) in [(m, n) for _, _, m, n in IMPORTS]


@pytest.mark.parametrize(
    "file, line, module, names", IMPORTS, ids=[f"{f}:{n}" for f, n, *_ in IMPORTS]
)
def test_every_imported_name_exists(file, line, module, names):
    imported = importlib.import_module(module)
    missing = [name for name in names if not hasattr(imported, name)]
    assert not missing, f"{file}:{line}: {module} has no {missing}"


def literal_keys(tree: ast.Module, name: str) -> List[Set[str]]:
    """The key sets of the dict literals ``name`` is bound to anywhere in
    the file: ``name = {...}`` or ``for name in ({...}, {...})``."""
    found: List[Set[str]] = []

    def keys(node: ast.AST) -> None:
        if isinstance(node, ast.Dict):
            assert all(isinstance(k, ast.Constant) for k in node.keys), ast.dump(node)
            found.append({k.value for k in node.keys})
        elif isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                keys(element)

    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            if node.target.id == name:
                keys(node.iter)
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
                keys(node.value)
    return found


def constructions() -> Dict[str, List[Tuple[str, int, int, Set[str]]]]:
    """Per pinned class: ``(file, line, positional count, keywords)`` of
    every call constructing it, ``**name`` resolved to its literal keys."""
    calls: Dict[str, List[Tuple[str, int, int, Set[str]]]] = {cls: [] for cls in PINNED}
    for file in FILES:
        tree = parsed(file)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in PINNED
            ):
                continue
            variants = [{kw.arg for kw in node.keywords if kw.arg is not None}]
            for kw in node.keywords:
                if kw.arg is None:
                    assert isinstance(kw.value, ast.Name), (file, node.lineno)
                    literal = literal_keys(tree, kw.value.id)
                    assert literal, f"{file}:{node.lineno}: cannot resolve **{kw.value.id}"
                    variants = [v | extra for v in variants for extra in literal]
            for keywords in variants:
                calls[node.func.id].append((file, node.lineno, len(node.args), keywords))
    return calls


CONSTRUCTIONS = constructions()


def test_the_probes_construct_the_process_tier():
    keywords = set().union(*(kw for *_, kw in CONSTRUCTIONS["WhyQueryService"]))
    assert {"executor", "process_workers"} <= keywords
    assert any("max_workers" in kw for *_, kw in CONSTRUCTIONS["ProcessExecutor"])


@pytest.mark.parametrize("cls", sorted(PINNED))
def test_constructor_keywords_are_parameters(cls):
    """A keyword the benchmark passes must be a named parameter: one
    swallowed by ``**engine_options`` is rejected when the service is
    built, so a signature bind alone would not catch it."""
    parameters = inspect.signature(PINNED[cls]).parameters
    named = {
        name for name, p in parameters.items()
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    }
    positional = [
        name for name, p in parameters.items() if p.kind == p.POSITIONAL_OR_KEYWORD
    ]
    for file, line, args, keywords in CONSTRUCTIONS[cls]:
        assert keywords <= named, f"{file}:{line}: {cls} lost {sorted(keywords - named)}"
        assert args <= len(positional), f"{file}:{line}: {cls} takes fewer arguments"


def bound_names(scope: ast.AST, cls: str) -> Set[str]:
    """Names ``scope`` binds to an instance of ``cls``: ``x = cls(...)``
    or ``with cls(...) as x``."""
    names: Set[str] = set()

    def constructs(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == cls
        )

    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and constructs(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if constructs(item.context_expr) and isinstance(item.optional_vars, ast.Name):
                    names.add(item.optional_vars.id)
    return names


@pytest.mark.parametrize("cls", sorted(PINNED))
def test_methods_the_benchmark_calls_exist(cls):
    used: Set[Tuple[str, str]] = set()
    for file in FILES:
        for scope in ast.walk(parsed(file)):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = bound_names(scope, cls)
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in names
                ):
                    used.add((file, node.attr))
    missing = sorted((file, attr) for file, attr in used if not hasattr(PINNED[cls], attr))
    assert not missing, f"{cls} lost {missing}"
    if cls == "ProcessExecutor":
        assert {"warm_up", "close"} <= {attr for _, attr in used}
