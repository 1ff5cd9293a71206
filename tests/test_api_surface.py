"""Every public top-level function and class in the package serves a command
or a script: some other code in ``src/portsens`` or ``scripts`` names it.
Every public method, property and field of a public class is reached
there through an attribute access.  Likewise every default serves a
setting that some command or script varies: a call in that code sets it.

Tests do not count as callers, so a helper or a setting that only tests
exercise fails here.  An attribute of a module alias, such as
``ut.evaluate``, names a module's function, never a method.
``__init__.py`` defines nothing but the version and is not scanned.

Conversely every default is left to some call, in that code or in the
tests: a default that every call overrides only hides what a call must
say.

Every flag of ``portsens`` is parsed as a plain ``int`` or ``float``, or
left a string: a range rule has one owner, the object that holds the
value, whether a flag or the config file gives it.

The package defines one exception class, ``estimate.ConfigError``, on
which ``portsens`` exits 2; a failure after the pass raises a built-in
error, and ``portsens`` parses argv with a stock ``argparse`` parser.

``cli`` builds no verdict: it calls no ``Check`` and imports nothing from
``estimate`` but ``ConfigError``.
"""

import argparse
import ast
import importlib
import inspect
import pathlib

from portsens import estimate

ROOT = pathlib.Path(__file__).resolve().parents[1]

# name -> why it stays without a caller
ALLOWED = {
    "value_closed_form": "the closed-form reference the solver and "
                         "acceptance tests compare estimates against",
}


def _names(node) -> set:
    """Identifiers a subtree refers to: names, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def unused_public_names(files) -> list:
    """Public top-level definitions that no other code names."""
    defs, refs = [], []  # refs: (defining node or None, names)
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not node.name.startswith("_"):
                    defs.append(node)
                refs.append((node, _names(node)))
            else:
                refs.append((None, _names(node)))
    return sorted(node.name for node in defs
                  if not any(node.name in names
                             for owner, names in refs if owner is not node))


def _module_aliases(tree) -> set:
    """Names a file binds to modules: every ``import`` and each
    ``from ... import`` of a package module."""
    modules = {p.stem for p in (ROOT / "src" / "portsens").glob("*.py")}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            out |= {a.asname or a.name for a in node.names
                    if a.name in modules}
    return out


def _on_alias(node, aliases) -> bool:
    """Whether an attribute node reads an attribute of a module alias."""
    return isinstance(node.value, ast.Name) and node.value.id in aliases


def unreached_methods(files) -> list:
    """"Class.method" of every public method and property of a public
    top-level class whose name no attribute access in ``files`` reads."""
    methods, reached = [], set()
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        aliases = _module_aliases(tree)
        reached |= {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and not _on_alias(node, aliases)}
        methods += [(node.name, sub.name) for node in tree.body
                    if isinstance(node, ast.ClassDef)
                    and not node.name.startswith("_")
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not sub.name.startswith("_")]
    return sorted(f"{cls}.{name}" for cls, name in methods
                  if name not in reached)


def _sources():
    pkg = sorted(p for p in (ROOT / "src" / "portsens").glob("*.py")
                 if p.name != "__init__.py")
    return pkg + sorted((ROOT / "scripts").glob("*.py"))


def test_every_public_name_has_a_caller():
    # an allowed name that gains a caller leaves the list too
    assert unused_public_names(_sources()) == sorted(ALLOWED)


# "Class.method" -> why it stays although no command or script reaches it
ALLOWED_METHODS = {
    "CoefficientProcess.evaluate": "the node values that tests compare "
                                   "regime gathers against; the benchmark "
                                   "tracer wraps it",
}


def test_every_public_method_has_a_caller():
    # an allowed method that gains a caller leaves the list too
    assert unreached_methods(_sources()) == sorted(ALLOWED_METHODS)


def unread_fields(files) -> list:
    """"Class.field" of every annotated field of a public top-level class
    whose name no attribute read in ``files`` names."""
    fields, read = [], set()
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        aliases = _module_aliases(tree)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)
                 and not _on_alias(node, aliases)}
        fields += [(node.name, sub.target.id) for node in tree.body
                   if isinstance(node, ast.ClassDef)
                   and not node.name.startswith("_")
                   for sub in node.body if isinstance(sub, ast.AnnAssign)]
    return sorted(f"{cls}.{name}" for cls, name in fields
                  if name not in read)


# "Class.field" -> why it stays although no command or script reads it
ALLOWED_FIELDS = {
    "PathEnsemble.scheme": "read by the benchmark's environment probe",
    "HadamardReport.quotients": "the approach sequences that the danskin "
                                "tests inspect",
}


def test_every_public_field_is_read():
    # a field that only its constructor sets restates another or carries
    # nothing a command reports; an allowed field that gains a reader
    # leaves the list too
    assert unread_fields(_sources()) == sorted(ALLOWED_FIELDS)


# "function.parameter" or "Dataclass.field" -> why its default stays
# although no command or script sets it
ALLOWED_DEFAULTS = {
    "hadamard_probe.directions": "criterion 8's approach sequences",
    "hadamard_probe.taus": "criterion 8's approach sequences",
    "PathEnsemble.scheme": "read by the benchmark's environment probe",
    "PathEnsemble.block_paths": "the block-size seam that tests use",
    "evaluate.W": "CoefficientProcess.evaluate's paths: tests compare "
                  "regime gathers against the method, and the benchmark "
                  "tracer wraps it",
    "main.argv": "the console script calls cli.main() and argparse reads "
                 "sys.argv; tests and the benchmark pass argv",
}


def _is_dataclass(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) \
                == "dataclass":
            return True
    return False


def _has_default(f) -> bool:
    """Whether a dataclass field has a default: a plain value, or a
    ``field(...)`` given ``default`` or ``default_factory``."""
    if f.value is None:
        return False
    if isinstance(f.value, ast.Call) \
            and getattr(f.value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory")
                   for k in f.value.keywords)
    return True


def _defaults(tree) -> list:
    """(callable name, parameter, positional index or None, is a method)
    of every defaulted parameter of a def and defaulted field of a
    dataclass.

    A method's index leaves out ``self``, and ``__init__`` is called by
    its class name."""
    out, owner = [], {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef):
                owner[sub] = node.name
        if _is_dataclass(node):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            out += [(node.name, f.target.id, i, False)
                    for i, f in enumerate(fields) if _has_default(f)]
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        name, method = node.name, node in owner
        params = node.args.posonlyargs + node.args.args
        if method:
            params = params[1:]
            if name == "__init__":
                name, method = owner[node], False
        first = len(params) - len(node.args.defaults)
        out += [(name, a.arg, i, method) for i, a in enumerate(params)
                if i >= first]
        out += [(name, a.arg, None, method) for a, d in
                zip(node.args.kwonlyargs, node.args.kw_defaults)
                if d is not None]
    return out


def _calls(tree) -> list:
    """(called name, positional count, keywords, passes * or **, called
    on a module alias)."""
    out, aliases = [], _module_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            star = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            on_alias = isinstance(func, ast.Attribute) \
                and _on_alias(func, aliases)
            out.append((name, len(node.args), {k.arg for k in node.keywords},
                        star, on_alias))
    return out


def _matching(calls, name, method) -> list:
    """The calls of ``name``; a call on a module alias calls no method."""
    return [c for c in calls if c[0] == name and not (method and c[4])]


def _sets(call, param, index) -> bool:
    """Whether a call may set a parameter: by keyword, by position or
    through * or **."""
    _, npos, keywords, star, _ = call
    return star or param in keywords or (index is not None and npos > index)


def unset_defaults(files) -> list:
    """Defaults that no call in ``files`` sets, as "name.parameter"."""
    trees = [ast.parse(path.read_text(), str(path)) for path in files]
    calls = [c for tree in trees for c in _calls(tree)]
    return sorted(f"{name}.{param}" for tree in trees
                  for name, param, index, method in _defaults(tree)
                  if not any(_sets(c, param, index)
                             for c in _matching(calls, name, method)))


def test_every_default_is_set_by_a_caller():
    # an allowed default that gains a caller leaves the list too
    assert unset_defaults(_sources()) == sorted(ALLOWED_DEFAULTS)


def defaults_every_call_sets(files, callers) -> list:
    """Defaults of ``files`` that every call in ``callers`` sets, as
    "name.parameter": no call relies on them, so they only hide what a
    call must say.  A call through * or ** may leave any default."""
    trees = [ast.parse(path.read_text(), str(path)) for path in files]
    calls = [c for path in callers
             for c in _calls(ast.parse(path.read_text(), str(path)))]
    return sorted(f"{name}.{param}" for tree in trees
                  for name, param, index, method in _defaults(tree)
                  if all(_sets(c, param, index) and not c[3]
                         for c in _matching(calls, name, method)))


def test_every_default_is_left_to_some_call():
    # the dual of the test above; tests count here, since a default that a
    # test leaves saves that test from spelling it out
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert defaults_every_call_sets(_sources(), _sources() + tests) == []


def unused_imports(files) -> list:
    """"file: name" of every name an import binds in ``files`` that the
    same file never reads; ``from __future__`` imports bind nothing."""
    out = []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        bound = {a.asname or a.name.split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        out += [f"{path.relative_to(ROOT)}: {name}"
                for name in sorted(bound - read)]
    return out


def test_every_import_is_read():
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert unused_imports(_sources() + tests) == []


def private_imports(files) -> list:
    """"file: module.name" of every underscore name that ``files`` import
    from another portsens module, relatively or by package name."""
    out = []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if not (node.level or module.split(".")[0] == "portsens"):
                continue
            out += [f"{path.relative_to(ROOT)}: {module}.{a.name}"
                    for a in node.names if a.name.startswith("_")]
    return out


def test_no_private_name_is_imported_across_modules():
    # commands and scripts reach each other through public names only, so
    # a private helper can change without breaking a caller elsewhere
    assert private_imports(_sources()) == []


def verdict_members(files) -> list:
    """"Class.name" of every method, property, field or class attribute
    named ``passed``, ``ok`` or ``verdict`` of a class other than
    ``Check``."""
    out = []
    for path in files:
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef) or cls.name == "Check":
                continue
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = getattr(item, "targets", [item.target])
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    names = []
                out += [f"{cls.name}.{name}" for name in names
                        if name in ("passed", "ok", "verdict")]
    return out


def test_only_check_decides_a_verdict():
    # every pass rule is a relation of estimate.Check; a report keeps its
    # numbers and may hold a Check, but decides nothing itself
    pkg = (ROOT / "src" / "portsens").glob("*.py")
    assert verdict_members(sorted(pkg)) == []


def defined_classes(base) -> dict:
    """Name -> class of every subclass of ``base``, private ones included,
    that a module of ``src/portsens`` defines."""
    out = {}
    for path in (ROOT / "src" / "portsens").glob("*.py"):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"portsens.{path.stem}")
        out.update({f"{path.stem}.{name}": obj
                    for name, obj in vars(module).items()
                    if inspect.isclass(obj) and issubclass(obj, base)
                    and obj.__module__ == module.__name__})
    return out


def test_every_refusal_is_a_config_error():
    # one type decides each exit code: ConfigError refuses an input (exit
    # 2), a failure after the pass is a built-in error (exit 3) and argv
    # that the stock argparse parser refuses exits 1
    assert defined_classes(BaseException) \
        == {"estimate.ConfigError": estimate.ConfigError}
    assert defined_classes(argparse.ArgumentParser) == {}


def flag_types(path) -> list:
    """The ``type=`` keyword of every call in ``path``, as source text."""
    tree = ast.parse(path.read_text(), str(path))
    return [ast.unparse(k.value) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for k in node.keywords if k.arg == "type"]


def test_flags_parse_plain_numbers():
    # argparse only converts a flag; TimeGrid, PathEnsemble and check_seed
    # refuse its value as they refuse the [mc] key it is written over
    assert set(flag_types(ROOT / "src" / "portsens" / "cli.py")) \
        == {"int", "float"}


def verdicts_built(path) -> list:
    """What ``path`` could build a verdict with: "line N: Check(" for each
    call of ``Check``, and "estimate.name" for each name but
    ``ConfigError`` that it imports from ``estimate``, the module itself
    included."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "Check":
            out.append(f"line {node.lineno}: Check(")
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").rsplit(".", 1)[-1] == "estimate":
            out += [f"estimate.{a.name}" for a in node.names
                    if a.name != "ConfigError"]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [f"estimate.{a.name}" for a in node.names
                    if a.name.rsplit(".", 1)[-1] == "estimate"]
    return out


def test_cli_builds_no_verdict():
    # every verdict is built once, next to its estimate in the library; the
    # commands only format the checks that the library returns
    assert verdicts_built(ROOT / "src" / "portsens" / "cli.py") == []


def market_formula_calls(files) -> list:
    """"file: name" of every call of ``dlambda_direction`` or
    ``mpr_from_values`` in ``files``, by name or as an attribute."""
    out = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("dlambda_direction", "mpr_from_values"):
                out.append(f"{path.name}: {name}")
    return out


def test_only_the_perturbation_moves_the_market():
    # how a direction moves lambda and r, and their tau-derivatives, is
    # PerturbationSpec.moved and .derivative; market defines the formulas
    # they call, and no other module calls those formulas
    pkg = sorted((ROOT / "src" / "portsens").glob("*.py"))
    assert [c for c in market_formula_calls(pkg)
            if not c.startswith(("market.py:", "valuation.py:"))] == []
