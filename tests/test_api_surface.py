"""Every public name, defaulted parameter and defaulted field is used.

A public name that nothing in `src/piezofrac` refers to is reachable only
from tests, so it is either a second copy of a formula the chain computes
elsewhere or dead code.  The check is by name: a reference is any
identifier or attribute with that name outside the definition itself.

Likewise a defaulted parameter of a module-level function or a method
that no call in `src/piezofrac` passes has one value in use, so it is a
constant spelled as a setting.  Calls are matched to definitions by
name, and a parameter counts as passed when a call gives it by keyword
or by position, or spreads `*args`/`**kwargs`.

The same holds for a dataclass field with a default: some code in
`src/piezofrac` must set it, by keyword in a call (a constructor,
`replace` or `Scenario.replace`) or as the constant key of a subscript
assignment, as the material resolver fills the keyword dict it hands
to `preset`.

And every dataclass or NamedTuple field must be read: some code in
`src/piezofrac` loads an attribute of that name.  A field that is only
written is carried along for nobody.

Finally, an underscore name is private to its module: no module in
`src/piezofrac` imports one from another (`from .mesh import _X`) or
reaches one through an imported sibling (`mesh._X`).  A name another
module needs is public.
"""

import ast
from pathlib import Path

import piezofrac

SRC = Path(piezofrac.__file__).parent


def _definitions_and_references():
    defs, refs = [], set()

    def visit(node, module, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            top = not owners or (len(owners) == 1
                                 and isinstance(owners[0], ast.ClassDef))
            if top and not node.name.startswith("_"):
                defs.append((module, node.name, node.lineno))
            owners = owners + [node]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if all(o.name != name for o in owners):
                refs.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, module, owners)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, [])
    return defs, refs


def test_every_public_name_has_a_caller_in_src():
    defs, refs = _definitions_and_references()
    assert len(defs) > 50   # the walk found the package
    orphans = [f"{module}:{line} {name}" for module, name, line in defs
               if name not in refs]
    assert not orphans, "public names no code in src refers to: " + \
        ", ".join(orphans)


# (function, parameter) pairs that only callers outside src set, each
# with the reason
ALLOWED_DEFAULTS = {
    # the console entry point reads sys.argv; tests and the benchmark
    # pass argv explicitly
    ("main", "argv"),
    # patch tests prescribe a non-uniform displacement field
    ("fix", "pattern"),
    # a safety bound on the rejection sampler, which a test lowers to
    # reach the exhaustion error
    ("random_defects", "max_tries"),
}


def _defaulted_parameters_and_calls():
    params, calls = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef):
                        # a bound call does not pass self positionally;
                        # __init__ is called through the class name
                        name = node.name if f.name == "__init__" else f.name
                        params += _defaulted(path.name, name, f.args, 1)
            elif isinstance(node, ast.Module):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef):
                        params += _defaulted(path.name, f.name, f.args, 0)
            elif isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else \
                    fn.attr if isinstance(fn, ast.Attribute) else None
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return params, calls


def _defaulted(module, name, args, skip):
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(module, name, a.arg, i - skip)
           for i, a in enumerate(positional) if i >= first]
    out += [(module, name, a.arg, None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _passes(call, param, index):
    if any(k.arg == param or k.arg is None for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_passed_in_src():
    params, calls = _defaulted_parameters_and_calls()
    assert len(params) > 20   # the walk found the package
    unused = [f"{module} {name}({param})"
              for module, name, param, index in params
              if (name, param) not in ALLOWED_DEFAULTS
              and not any(_passes(c, param, index)
                          for c in calls.get(name, ()))]
    assert not unused, "defaulted parameters no call in src passes: " + \
        ", ".join(unused)


def test_default_allowlist_names_unpassed_parameters_only():
    params, calls = _defaulted_parameters_and_calls()
    found = {(name, param): index for _, name, param, index in params}
    assert ALLOWED_DEFAULTS <= set(found)
    for name, param in ALLOWED_DEFAULTS:
        assert not any(_passes(c, param, found[name, param])
                       for c in calls.get(name, ()))


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        fn = dec.func if isinstance(dec, ast.Call) else dec
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        if name == "dataclass":
            return True
    return False


def _defaulted_fields_and_settings():
    classes, fields, settings = 0, [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                classes += 1
                fields += [(path.name, node.name, f.target.id)
                           for f in node.body
                           if isinstance(f, ast.AnnAssign)
                           and isinstance(f.target, ast.Name)
                           and f.value is not None]
            elif isinstance(node, ast.Call):
                settings.update(k.arg for k in node.keywords if k.arg)
            elif isinstance(node, ast.Assign):
                settings.update(
                    t.slice.value for t in node.targets
                    if isinstance(t, ast.Subscript)
                    and isinstance(t.slice, ast.Constant)
                    and isinstance(t.slice.value, str))
    return classes, fields, settings


def test_every_defaulted_field_is_set_in_src():
    classes, fields, settings = _defaulted_fields_and_settings()
    assert classes > 5   # the walk found the package's dataclasses
    unset = [f"{module} {cls}.{name}" for module, cls, name in fields
             if name not in settings]
    assert not unset, "defaulted dataclass fields nothing in src sets: " + \
        ", ".join(unset)


# (class, field) pairs that only readers outside src read, each with
# the reason
ALLOWED_UNREAD_FIELDS = {
    # accept 10 and the benchmark's output check bound the charge
    # mismatch of every step
    ("StepRecord", "charge_mismatch"),
    # the per-step cutback count, kept for a per-step run record
    ("StepRecord", "cutbacks"),
}


def _is_named_tuple(cls):
    return any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple"
               for b in cls.bases)


def _fields_and_reads():
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and (
                    _is_dataclass(node) or _is_named_tuple(node)):
                fields += [(path.name, node.name, f.target.id)
                           for f in node.body
                           if isinstance(f, ast.AnnAssign)
                           and isinstance(f.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                reads.add(node.attr)
    return fields, reads


def test_every_field_is_read_in_src():
    fields, reads = _fields_and_reads()
    assert len(fields) > 50   # the walk found the package's records
    unread = [f"{module} {cls}.{name}" for module, cls, name in fields
              if name not in reads and (cls, name) not in ALLOWED_UNREAD_FIELDS]
    assert not unread, "fields nothing in src reads: " + ", ".join(unread)


def test_field_allowlist_names_unread_fields_only():
    fields, reads = _fields_and_reads()
    found = {(cls, name) for _, cls, name in fields}
    assert ALLOWED_UNREAD_FIELDS <= found
    assert not {name for _, name in ALLOWED_UNREAD_FIELDS} & reads


def _private_imports(path):
    """`module:line name` of each underscore name that the module at path
    takes from another module of the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    out.append(f"{path.name}:{node.lineno} {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            out.append(f"{path.name}:{node.lineno} "
                       f"{node.value.id}.{node.attr}")
    return out


def test_no_module_imports_another_modules_private_name():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5   # the walk found the package
    found = [hit for path in paths for hit in _private_imports(path)]
    assert not found, "underscore names taken from another module: " + \
        ", ".join(found)
