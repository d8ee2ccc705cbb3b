"""Source hygiene: no unused import, no unused function parameter, no
default that no call overrides and no export without a caller in src/,
one resolver for `delta = auto` and one manifest write site, every
attribute the benchmark's tracer wraps still exists, every CLI subcommand
names its handler, and README's diagnostics columns, config table and
memory budgets match the code.

An AST scan of every module of the package. A name counts as used when
it is loaded anywhere in its module (annotations included) or listed in
`__all__`; a parameter counts as used when its function body loads it;
an exported name has a caller when some statement of src/ other than its
own definition loads it, by name or as an attribute; a defaulted
parameter is passed when some call of its function's name in src/ or
tests/ gives it, by keyword or by position.
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
TESTS = sorted((ROOT / "tests").glob("*.py"))
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


def _defaulted_parameters(tree):
    """(function, parameter, position in a call or None) of each defaulted parameter.

    The position counts a call's own arguments, so a method's skips `self`;
    a keyword-only parameter has none.
    """
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spec = node.args
        positional = spec.posonlyargs + spec.args
        skip = int(id(node) in methods)
        for index in range(len(positional) - len(spec.defaults), len(positional)):
            yield node.name, positional[index].arg, index - skip
        for arg, default in zip(spec.kwonlyargs, spec.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _passes(call, parameter, position):
    """Whether `call` gives `parameter` by keyword or at `position`.

    A splat's length is not known, so the arguments from the first one on
    give nothing.
    """
    if any(keyword.arg == parameter for keyword in call.keywords):
        return True
    given = next((i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)),
                 len(call.args))
    return position is not None and position < given


def defaults_never_passed():
    calls = {}
    for path in MODULES + TESTS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return [f"{path.name}: {function}({parameter})" for path in MODULES
            for function, parameter, position
            in _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
            if not any(_passes(call, parameter, position) for call in calls.get(function, ()))]


def test_every_defaulted_parameter_is_passed():
    # a default that no call overrides is a constant in disguise
    assert defaults_never_passed() == []


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


def _sites(accept):
    """(module file, top-level function, inside a loop) of each node of src/ `accept` takes."""
    found = []
    for path in MODULES:
        for function in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            looped = {id(node) for loop in ast.walk(function)
                      if isinstance(loop, (ast.For, ast.While)) for node in ast.walk(loop)}
            found += [(path.name, function.name, id(node) in looped)
                      for node in ast.walk(function) if accept(node)]
    return found


def _calls(node, name):
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None))


def _mentions(node, text):
    return any(isinstance(sub, ast.Constant) and sub.value == text for sub in ast.walk(node))


def test_delta_auto_is_chosen_in_one_resolver():
    # `fermibolt run`, `fit` and `audit` all reach `choose_delta` through it
    assert _sites(lambda node: _calls(node, "choose_delta")) == [
        ("experiment.py", "_resolve_delta", False)]
    assert sorted(_sites(lambda node: _calls(node, "_resolve_delta"))) == [
        ("cli.py", "_load_run", False), ("experiment.py", "run_experiment", False)]


def test_the_manifest_has_one_write_site_outside_the_loop():
    assert _sites(lambda node: _calls(node, "open") and _mentions(node.args[0], "manifest.cfg")) \
        == [("experiment.py", "run_experiment", False)]
    # its one other mention is the path that `fit` and `audit` load
    assert _sites(lambda node: isinstance(node, ast.Constant) and node.value == "manifest.cfg") \
        == [("cli.py", "_load_run", False), ("experiment.py", "run_experiment", False)]


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
