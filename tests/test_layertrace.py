"""The benchmark's per-layer tracer (perfbench/layertrace.py) wraps library
functions by name and reads their arguments by name.  A rename in src/ would
otherwise surface only in the slow perfbench tests, so this reads the
tracer's tables with ast (the file is parsed, not imported) and checks them
against the library."""

import ast
import inspect
from pathlib import Path

import confocal

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
TREE = ast.parse(TRACER.read_text())


def _table(name):
    """The value node of a module-level NAME = ... assignment."""
    return next(node.value for node in TREE.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name])


def _wrapped():
    """Every 'layer.function' name the tracer wraps."""
    spans = ast.literal_eval(_table("SPANS"))
    return sorted({f"{layer}.{attr}" for layer, attrs in spans.items()
                   for attr in attrs}
                  | ast.literal_eval(_table("HOT"))
                  | ast.literal_eval(_table("HOT_TIMED")))


def _argument_reads():
    """(wrapped name, argument names its WORK entry reads), where an entry is
    a lambda or a module-level function whose first parameter is the dict of
    bound arguments."""
    functions = {node.name: node for node in TREE.body
                 if isinstance(node, ast.FunctionDef)}
    table = _table("WORK")
    out = []
    for key, value in zip(table.keys, table.values):
        fn = functions[value.id] if isinstance(value, ast.Name) else value
        bound = fn.args.args[0].arg
        reads = {node.slice.value for node in ast.walk(fn)
                 if isinstance(node, ast.Subscript)
                 and isinstance(node.value, ast.Name) and node.value.id == bound
                 and isinstance(node.slice, ast.Constant)}
        out.append((key.value, sorted(reads)))
    return out


def _resolve(name):
    layer, attr = name.split(".")
    return getattr(getattr(confocal, layer, None), attr, None)


def test_every_wrapped_name_exists():
    assert [name for name in _wrapped() if not callable(_resolve(name))] == []


def test_work_reads_only_parameters():
    work = _argument_reads()
    assert any(reads for _, reads in work)   # the parse found the reads
    missing = [(name, arg) for name, reads in work
               if callable(fn := _resolve(name))
               for arg in reads if arg not in inspect.signature(fn).parameters]
    assert missing == []
