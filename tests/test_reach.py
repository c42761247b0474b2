"""Every function and method of src/confocal is run by some scenario, every
error class is raised or caught somewhere in src/, every entry of the
tolerance table gates some check, and every module-level name and every
parameter is read: code that only tests reach is a second copy of something
the scenarios compute, and a tolerance, a constant or a parameter no code
reads is a setting that changes nothing.

The small configs of the ten scenarios (test_gridio_cli._STAGED) and an
IQWC zero-soliton run (on the chart cli._setup canonicalizes) run under
sys.setprofile, with the run's tolerance table recording the keys read from
it.  A function none of them calls fails the test unless REACHED_ELSEWHERE
names it with the reason it stays."""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import confocal
from confocal import cli

import test_gridio_cli

SRC = Path(confocal.__file__).resolve().parent

REACHED_ELSEWHERE = {
    "cli.main": "the console entry point; the CLI tests call it with argv",
    "cli.emit_plotdata": "the plotdata subcommand, run on a finished run",
    "gridio.load_fieldgrid": "reads back a saved field; no scenario reloads one",
    "quadric.ivory_map": "the public Ivory affinity x_z with its OffQuadric "
                         "guard; the scenarios apply sqrt(R_z) to stacks",
    "numerics._lstsq_failed": "numpy calls it only when an SVD does not "
                              "converge",
}


def _modules():
    return [importlib.import_module(f"confocal.{m.name}")
            for m in pkgutil.iter_modules([str(SRC)])]


def _members(mod):
    """(qualname, object) of the names of mod and of its classes' members."""
    for name, obj in vars(mod).items():
        yield name, obj
        if inspect.isclass(obj):
            for k, v in vars(obj).items():
                yield f"{name}.{k}", v


def _defined():
    """{"module.qualname": function} of the module-level functions and the
    methods (properties included) of the module-level classes in src/confocal,
    unwrapped from lru_cache; dataclass-generated methods are not in src/."""
    out = {}
    for mod in _modules():
        for qual, obj in _members(mod):
            fn = getattr(obj, "fget", None) or getattr(obj, "__func__", obj)
            fn = getattr(fn, "__wrapped__", fn)
            code = getattr(fn, "__code__", None)
            if (code is not None and fn.__module__ == mod.__name__
                    and Path(code.co_filename).resolve().parent == SRC):
                out[f"{mod.__name__.rsplit('.', 1)[1]}.{qual}"] = fn
    return out


def _run_at_import():
    """Names of the functions a module calls while it is imported."""
    out = set()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, ast.Assign):
                continue
            out |= {f"{path.stem}.{node.func.id}" for node in ast.walk(stmt)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    return out


def _reached(tmp_path):
    """The defined functions, the names of those the scenario runs call or
    that run at import, and the tolerance keys the runs read."""
    defined = _defined()
    # a memoized function called before the trace would not be called in it
    for mod in _modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    configs = [{"scenario": name, **extra}
               for name, (extra, _) in test_gridio_cli._STAGED.items()]
    configs.append(test_gridio_cli.TestRunScenario.IQWC_SOLITON)
    called, read = set(), set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    class Table(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)
    scaled = cli.scaled_tolerances
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "scaled_tolerances", lambda scale: Table(scaled(scale)))
        sys.setprofile(profile)
        try:
            for i, cfg in enumerate(configs):
                cli.run_scenario(cfg, tmp_path / str(i))
        finally:
            sys.setprofile(None)
    return defined, {name for name, fn in defined.items()
                     if fn.__code__ in called} | _run_at_import(), read


def _live_statements(path, live):
    """The module-level statements of a src/ file, its class bodies, and of
    its functions and methods those named in live ("module.qualname")."""
    for stmt in ast.parse(path.read_text()).body:
        cls = isinstance(stmt, ast.ClassDef)
        prefix = f"{path.stem}.{stmt.name}." if cls else f"{path.stem}."
        for node in stmt.body if cls else [stmt]:
            if not isinstance(node, ast.FunctionDef) or prefix + node.name in live:
                yield node


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    return _reached(tmp_path_factory.mktemp("reach"))


def test_every_function_is_reached_by_a_scenario(reach):
    defined, reached, _ = reach
    assert sorted(set(defined) - reached - set(REACHED_ELSEWHERE)) == []
    # a stale entry: gone, or run by a scenario after all
    assert sorted(n for n in REACHED_ELSEWHERE
                  if n not in defined or n in reached) == []


def test_every_error_class_is_raised_or_caught_by_live_code(reach):
    live = reach[1] | set(REACHED_ELSEWHERE)
    classes = [node.name for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    used = set()
    for path in SRC.glob("*.py"):
        for stmt in _live_statements(path, live):
            for node in ast.walk(stmt):
                expr = (node.exc if isinstance(node, ast.Raise) else
                        node.type if isinstance(node, ast.ExceptHandler) else None)
                if expr is not None:
                    used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    assert [c for c in classes if c not in used] == []


def test_every_tolerance_is_read_by_a_check(reach):
    assert sorted(set(cli.TOLERANCES) - reach[2]) == []


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def test_every_module_level_name_is_read_in_src():
    # a name assigned at module level is read in its own module, as an
    # attribute (module.NAME) or through a from-import anywhere in src/
    trees = _trees()
    attrs, imported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                imported |= {(node.module, a.name) for a in node.names}
    unread = []
    for mod, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign) else
                       [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            for name in (n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)):
                if (name not in loaded | attrs and (mod, name) not in imported
                        and name not in ("__version__", "__all__")):
                    unread.append(f"{mod}.{name}")
    assert unread == []


def test_every_parameter_is_read():
    # a parameter kept only for a calling convention starts with "_"; the
    # instance or class parameter of a method is exempt
    unread = []
    for mod, tree in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in (a.posonlyargs + a.args + a.kwonlyargs
                                      + [a.vararg, a.kwarg]) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{mod}.{getattr(fn, 'name', '<lambda>')}:{p}"
                       for p in params if p not in read
                       and not p.startswith("_") and p not in ("self", "cls")]
    assert unread == []
