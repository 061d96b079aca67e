"""Source hygiene without a linter: every module uses what it imports and
every private function or class it defines.

Each ``src/quadloc/*.py`` is parsed with :mod:`ast`; an imported name that
the module never reads is reported, ``from __future__`` imports exempt.
``__init__.py`` is the package docstring alone, so each name has one
import path, its own module.  A module-level ``_private`` function or
class is reported when nothing outside its own body reads its name.  A
``:func:`` or ``:class:`` reference in a docstring must name something the
module defines or imports (its first dotted part), or be a ``quadloc.``
path that imports and resolves.  An ``InternalConsistencyError`` reports a
bug, so its message must not say the input was malformed.  ``errors``
defines one class per exit code the command line maps an error to, and
every ``raise`` in ``src/`` names one of those two classes.  Every
committed ``BENCH_*.json`` names its change, harness, machine and parent
commit, and a claim on a workload and metric that ``BENCHMARK.json``
declares; a claim marked met must agree with its own numbers.  The
modules together stay under the line ceiling of ROADMAP aim 2.
"""
from __future__ import annotations

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

from quadloc import errors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quadloc"
MODULES = sorted(SRC.glob("*.py"))


def test_package_init_is_its_docstring_alone():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 1


# ROADMAP aim 2: net lines in src/ fall over the round; a change that
# raises this ceiling says so in CHANGES.md
SRC_LINE_CEILING = 3320


def test_src_stays_under_the_line_ceiling():
    lines = sum(len(path.read_text().splitlines()) for path in MODULES)
    assert lines <= SRC_LINE_CEILING, (
        f"src/quadloc has {lines} lines, above the ROADMAP aim 2 ceiling of {SRC_LINE_CEILING}"
    )


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_private_defs(source: str):
    tree = ast.parse(source)
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not any(isinstance(n, ast.Name) and n.id == node.name and id(n) not in inside
                   for n in ast.walk(tree)):
            out.append((node.lineno, node.name))
    return out


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .errors import InputError as IE, InternalConsistencyError\n"
        "def f():\n"
        "    raise IE(sys.argv)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "InternalConsistencyError")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_private_checker_flags_only_unreferenced_defs():
    source = (
        "def _used():\n"
        "    return 1\n"
        "def _self_only(n):\n"
        "    return _self_only(n - 1) if n else 0\n"
        "class _Unused:\n"
        "    pass\n"
        "def __dunder__():\n"
        "    pass\n"
        "def public():\n"
        "    return _used()\n"
    )
    assert unused_private_defs(source) == [(3, "_self_only"), (5, "_Unused")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_private_def(path):
    assert unused_private_defs(path.read_text()) == []


ROLE = re.compile(r":(?:func|class):`~?([^`]+)`")


def resolves(path: str) -> bool:
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def stale_references(source: str):
    tree = ast.parse(source)
    known = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            known.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            known.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            known.add(node.id)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        doc = ast.get_docstring(node, clean=False)
        if doc is None:
            continue
        for m in ROLE.finditer(doc):
            name = m.group(1)
            ok = resolves(name) if name.startswith("quadloc.") else name.split(".")[0] in known
            if not ok:
                out.append((node.body[0].lineno + doc.count("\n", 0, m.start()), name))
    return out


def test_reference_checker_flags_only_unresolved_names():
    source = (
        '"""Uses :func:`helper`, :class:`Thing`, :func:`os.path.join`, :class:`IE`\n'
        'and :func:`~quadloc.surface_map.rebuild`; not :func:`gone`."""\n'
        "import os\n"
        "from quadloc.errors import InputError as IE\n"
        "LIMIT = 3\n"
        "def helper():\n"
        '    """Raises :class:`IE` past :func:`LIMIT`, never :class:`quadloc.errors.Gone`."""\n'
        "class Thing:\n"
        '    """Built by :func:`assemble_from_slots` or :func:`quadloc.gone.f`."""\n'
    )
    assert stale_references(source) == [
        (2, "gone"),
        (7, "quadloc.errors.Gone"),
        (9, "assemble_from_slots"),
        (9, "quadloc.gone.f"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_docstring_references_resolve(path):
    assert stale_references(path.read_text()) == []


def internal_messages_blaming_input(source: str):
    """(line, text) of every string part of an ``InternalConsistencyError``
    message that says "malformed"."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "InternalConsistencyError"):
            for part in ast.walk(node):
                if (isinstance(part, ast.Constant) and isinstance(part.value, str)
                        and "malformed" in part.value.lower()):
                    out.append((part.lineno, part.value))
    return out


def test_blame_checker_flags_only_internal_errors():
    source = (
        "raise InputError('malformed line')\n"
        "raise InternalConsistencyError(f'sum {n} off; Malformed input')\n"
        "raise InternalConsistencyError('identity failed')\n"
    )
    assert internal_messages_blaming_input(source) == [(2, " off; Malformed input")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_internal_errors_do_not_blame_the_input(path):
    assert internal_messages_blaming_input(path.read_text()) == []


def raised_names(source: str):
    """(line, name) of every ``raise`` statement in line order: the class
    or name it raises, ``None`` for a bare re-raise."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.append((node.lineno, exc and ast.unparse(exc)))
    return sorted(out)


def test_raise_checker_names_every_raised_class():
    source = (
        "raise InputError('bad')\n"
        "try:\n"
        "    raise errors.Gone\n"
        "except ValueError as exc:\n"
        "    raise InternalConsistencyError(f'{exc}') from exc\n"
        "raise\n"
    )
    assert raised_names(source) == [
        (1, "InputError"), (3, "errors.Gone"), (5, "InternalConsistencyError"), (6, None),
    ]


def test_every_error_is_an_input_error_or_an_internal_one():
    # the CLI exits 2 on an InputError and 4 on an InternalConsistencyError:
    # errors defines those two and their base, and src raises nothing else
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert classes == {"QuadlocError", "InputError", "InternalConsistencyError"}
    kinds = {"InputError", "InternalConsistencyError"}
    assert [(path.name, line, name) for path in MODULES
            for line, name in raised_names(path.read_text()) if name not in kinds] == []


BENCH_KEYS = {"change", "harness", "machine", "parent_commit", "claim"}
CLAIM_KEYS = {"workload", "metric", "parent_median", "change_median", "median_gain",
              "parent_iqr", "change_better_in_pairs", "met"}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_names_its_claim(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    record = json.loads(path.read_text())
    assert BENCH_KEYS <= set(record), BENCH_KEYS - set(record)
    claim = record["claim"]
    assert CLAIM_KEYS <= set(claim), CLAIM_KEYS - set(claim)
    assert claim["workload"] in workloads and claim["metric"] in metrics


def _met_claims():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    return [p for p in paths if json.loads(p.read_text())["claim"]["met"]]


@pytest.mark.parametrize("path", _met_claims(), ids=lambda p: p.name)
def test_met_bench_claim_agrees_with_its_numbers(path):
    # a met claim: the change median beats the parent's in the declared
    # direction, by the recorded relative gain, by more than the parent's
    # quartile spread, and in at least 9 of 10 pairs of runs
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = json.loads(path.read_text())["claim"]
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    parent, change = claim["parent_median"], claim["change_median"]
    gain = (change - parent if better[claim["metric"]] == "higher" else parent - change) / parent
    assert gain > 0
    assert abs(claim["median_gain"] - gain) <= 1e-3, (claim["median_gain"], gain)
    assert abs(change - parent) > claim["parent_iqr"]
    won, pairs = map(int, claim["change_better_in_pairs"].split("/"))
    assert 10 * won >= 9 * pairs
