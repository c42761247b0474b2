"""Every optional parameter of the library is set by some caller in src/: an
option that only tests set, or that only ever takes its default, is a constant
in disguise (tests monkeypatch a module constant instead).  SET_OUTSIDE_SRC
names the few options whose caller lives outside src/, with the reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SET_OUTSIDE_SRC = {
    ("cli", "main", "argv"): "console entry point; tests pass argv",
    ("backlund", "ruling_facet_check_qc", "seed"):
        "no src/ caller until backlund-qc runs the QC ruling check",
}


def _defs(tree):
    """Module-level functions and the methods of module-level classes, with
    whether each is a bound method; nested closures are skipped."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, False
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in sub.decorator_list)
                    yield sub, not static


def _optional(fn, bound):
    """(name, positional index or None) of each parameter with a default."""
    args = fn.args
    pos = (args.posonlyargs + args.args)[int(bound):]
    out = [(a.arg, i) for i, a in enumerate(pos)
           if i >= len(pos) - len(args.defaults)]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _calls():
    """(callee name, call, name of the enclosing top-level def) of every call
    in src/."""
    out = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): fn.name for fn, _ in _defs(tree) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name:
                    out.append((name, node, owner.get(id(node))))
    return out


def _passed(call, name, index):
    """The expressions a call passes for a parameter; None where a * or **
    argument may reach it."""
    out = [k.value for k in call.keywords if k.arg == name]
    out += [None for k in call.keywords if k.arg is None]
    if index is not None:
        for j, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                out += [None] if j <= index else []
                break
            if j == index:
                out.append(arg)
    return out


def never_set_options():
    """The optional parameters of src/confocal that no call in src/ sets.
    Passing a parameter only on to an option of the same name in the
    enclosing function, which is itself never set, does not count as setting
    it."""
    options = {}
    for path in sorted((ROOT / "src" / "confocal").glob("*.py")):
        for fn, bound in _defs(ast.parse(path.read_text())):
            for name, index in _optional(fn, bound):
                options[(path.stem, fn.name, name)] = index
    calls = _calls()
    unset = set(options)
    while True:
        forwarded = {(fname, name) for _, fname, name in unset}

        def is_set(key):
            _, fname, name = key
            return any(
                expr is None or not (isinstance(expr, ast.Name)
                                     and (owner, expr.id) in forwarded)
                for callee, call, owner in calls if callee == fname
                for expr in _passed(call, name, options[key]))
        still = {key for key in unset if not is_set(key)}
        if still == unset:
            return sorted(unset)
        unset = still


def test_every_option_is_set_in_src():
    # a stale allow-list entry (gone, or set in src/ after all) fails too
    assert never_set_options() == sorted(SET_OUTSIDE_SRC)
