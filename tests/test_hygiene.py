"""Source hygiene: no unused import, no unused function parameter and no
export without a caller in src/, every attribute the benchmark's tracer
wraps still exists, every CLI subcommand names its handler, and README's
diagnostics columns, config table and memory budgets match the code.

An AST scan of every module of the package. A name counts as used when
it is loaded anywhere in its module (annotations included) or listed in
`__all__`; a parameter counts as used when its function body loads it;
an exported name has a caller when some statement of src/ other than its
own definition loads it, by name or as an attribute.
"""
import argparse
import ast
import dataclasses
import importlib
import pathlib
import re

import fermibolt
from fermibolt import cli, experiment
from fermibolt.collision import TABLE_BUDGET_BYTES
from fermibolt.config import ExperimentConfig
from fermibolt.functionals import RECORD_FIELDS

PACKAGE = pathlib.Path(fermibolt.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "child.py"
README = ROOT / "README.md"
# wrapped by the tracer outside HOOKS: the set-up mark and the kernel size
TRACER_EXTRA = (("fermibolt.experiment", "global_equilibrium"),
                ("fermibolt.experiment", "build_kernel"))

# Signatures a caller fixes: the CLI handlers share `args`; `self`/`cls`
# need no use.
EXEMPT_PARAMETERS = {"self", "cls"}


def _is_cli_handler(path, function):
    return path.name == "cli.py" and function.name.startswith("_cmd_")


def _loaded_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _loaded_names(tree) | _exported(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.append(f"{path.name}:{node.lineno} {bound}")
    return found


def unused_parameters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _is_cli_handler(path, node):
            continue
        spec = node.args
        params = spec.posonlyargs + spec.args + spec.kwonlyargs
        params += [arg for arg in (spec.vararg, spec.kwarg) if arg is not None]
        used = set()
        for statement in node.body:
            used |= _loaded_names(statement)
        for arg in params:
            if arg.arg not in used and arg.arg not in EXEMPT_PARAMETERS:
                found.append(f"{path.name}:{node.lineno} {node.name}({arg.arg})")
    return found


def test_no_unused_imports():
    assert [hit for path in MODULES for hit in unused_imports(path)] == []


def test_no_unused_parameters():
    assert [hit for path in MODULES for hit in unused_parameters(path)] == []


def _defines(node, name):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == name for target in targets)


def _loads(node):
    """Every name a statement loads, directly or as an attribute."""
    names = _loaded_names(node)
    names |= {sub.attr for sub in ast.walk(node)
              if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    return names


def exports_without_caller():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    # (module index, top-level statement, the names it loads)
    statements = [(i, node, _loads(node)) for i, tree in enumerate(trees) for node in tree.body]
    found = []
    for i, (path, tree) in enumerate(zip(MODULES, trees)):
        for name in sorted(_exported(tree)):
            if not any(name in loads for j, node, loads in statements
                       if not (j == i and _defines(node, name))):
                found.append(f"{path.name}: {name}")
    return found


def test_every_export_has_a_caller():
    assert exports_without_caller() == []


def traced_attributes():
    """(module, dotted attribute) of every entry of the tracer's HOOKS table."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "HOOKS" for target in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no HOOKS table in {TRACER}")


def test_traced_attributes_resolve():
    # a rename in src/ that drops one would crash every traced benchmark sample
    hooks = traced_attributes()
    assert hooks
    missing = []
    for module, attribute in hooks + list(TRACER_EXTRA):
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attribute}")
    assert missing == []


def test_every_subcommand_has_a_handler():
    # `main` calls the parsed handler, so a command added without one would
    # fail only when run
    parser = cli.build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    handlers = {name: sub.get_default("handler") for name, sub in commands.items()}
    assert all(callable(handler) for handler in handlers.values()), handlers
    defined = {name for name in vars(cli) if name.startswith("_cmd_")}
    assert {handler.__name__ for handler in handlers.values()} == defined


def _readme_section(heading):
    """README's text from the line `heading` to the next heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n")
    end = text.find("\n#", start + len(heading) + 2)
    return text[start:end if end >= 0 else len(text)]


def test_readme_lists_the_csv_columns():
    match = re.search(r"`out/diagnostics\.csv`:.*?with columns\s+`([^`]*)`",
                      _readme_section("### Artifacts"), re.S)
    assert match, "no diagnostics.csv column list in README's Artifacts"
    assert tuple(name.strip() for name in match.group(1).split(",")) == RECORD_FIELDS


def test_readme_config_table_lists_every_key():
    keys = re.findall(r"^\| `(\w+)`", _readme_section("### Config file"), re.M)
    assert keys == [field.name for field in dataclasses.fields(ExperimentConfig)]


def test_readme_budget_sentence_matches_the_constants():
    text = " ".join(README.read_text(encoding="utf-8").split())
    match = re.search(r"the run's (\d+) \(cells, nodes\) float64 arrays may take at most "
                      r"(\d+) MiB, and the kernel's table at most (\d+) MiB", text)
    assert match, "no memory budget sentence in README"
    assert tuple(int(group) for group in match.groups()) == (
        experiment.RESIDENT_STATES,
        experiment.STATE_BUDGET_BYTES // 2**20,
        TABLE_BUDGET_BYTES // 2**20,
    )
