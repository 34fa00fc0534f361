"""Rules on the library source that the test suite enforces."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import commgrowth


def library_nodes():
    """(file name, node) for every AST node of every library module."""
    sources = sorted(Path(commgrowth.__file__).parent.glob("*.py"))
    assert {"cli.py", "commgraph.py", "root_systems.py"} <= {p.name for p in sources}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_in_library():
    # python -O strips assert statements, so a runtime check of the
    # library must raise explicitly
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_does_not_import_the_benchmark_oracles():
    # perfbench/oracles.py checks the library independently, so the
    # library must never lean on it
    found = []
    for name, node in library_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any({"perfbench", "oracles"} & set(m.split(".")) for m in modules):
            found.append(f"{name}:{node.lineno}")
    assert found == []


def talks_to_the_process(node):
    """True for a call of print, or a use of sys.exit, sys.stdout,
    sys.stderr or sys.set_int_max_str_digits (also imported from sys)."""
    names = {"exit", "stdout", "stderr", "set_int_max_str_digits"}
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "print"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "sys" and node.attr in names
    if isinstance(node, ast.ImportFrom) and node.module == "sys":
        return any(alias.name in names for alias in node.names)
    return False


def test_only_the_cli_talks_to_the_process():
    # stdout is byte-identical for identical flags and stderr carries one
    # diagnostic line, so only the CLI may print, exit, or touch the
    # streams and the interpreter's digit limit
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if name not in ("cli.py", "__main__.py") and talks_to_the_process(node)]
    assert found == []


def test_no_module_touches_the_digit_limit():
    # results print past CPython's int->str digit limit through
    # reporting._decimal_text, so no module, the CLI included, reads or
    # changes that interpreter-wide setting
    names = {"get_int_max_str_digits", "set_int_max_str_digits"}
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if {getattr(node, field, None) for field in ("attr", "id", "name")} & names]
    assert found == []


def reads_the_environment(node):
    """True for a use of os.environ, os.environb or os.getenv (also
    imported from os)."""
    names = {"environ", "environb", "getenv"}
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "os" and node.attr in names
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in names for alias in node.names)
    return False


def test_library_reads_no_environment_variables():
    # the README promises that `growth` reads no environment variables, so
    # no flag can be overridden from outside the command line
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if reads_the_environment(node)]
    assert found == []


def test_guards_are_constants_not_keywords():
    # a resource guard is a module constant read at call time, so no
    # library function takes keyword-only parameters, and only
    # reporting.compare takes ** keywords (the report context)
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             and (node.args.kwonlyargs or node.args.kwarg
                  and (name, getattr(node, "name", None)) != ("reporting.py", "compare"))]
    assert found == []


def test_powers_of_p_and_m_go_through_the_guard():
    # a power of a caller's prime or modulus can outgrow any memory, so the
    # bound modules build it with arith._power, which refuses it first
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if name in ("chevalley.py", "parahoric.py") and isinstance(node, ast.BinOp)
             and isinstance(node.op, ast.Pow) and isinstance(node.left, ast.Name)
             and node.left.id in ("p", "m")]
    assert found == []


def converts_or_bounds_an_integer(node):
    """True for an import of operator, a use of operator.index, or a string
    that says an argument "must be >=" a bound or "must be an integer"."""
    if isinstance(node, ast.Import):
        return any(alias.name == "operator" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "operator"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr) == ("operator", "index")
    return isinstance(node, ast.Constant) and isinstance(node.value, str) \
        and ("must be >=" in node.value or "must be an integer" in node.value)


def test_one_integer_check():
    # every integer argument is converted and bounded by errors._at_least
    # (or only converted, by errors._integer), so a numpy integer or a float
    # is treated alike everywhere and every refusal reads alike
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if name != "errors.py" and converts_or_bounds_an_integer(node)]
    assert found == []


POINT_QUERIES = """
import contextlib, io, sys
from commgrowth.cli import main
statuses = []
for argv in (["--version"], ["order", "--type", "E8", "--p", "7", "--k", "2"],
             ["rootsys", "--type", "E8", "--json"], ["rootsys", "--type", "Q2"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            statuses.append(main(argv))
        except SystemExit as exc:
            statuses.append(exc.code)
print(statuses, "numpy" in sys.modules)
"""


def test_point_queries_do_not_import_numpy():
    # numpy is imported inside the functions that build arrays, so a
    # process that prints the version, an order or a root system, or
    # refuses a label, never pays for the import; one process runs all four
    env = dict(os.environ, PYTHONPATH=str(Path(commgrowth.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", POINT_QUERIES], capture_output=True,
                            text=True, env=env, timeout=60)
    assert (result.stdout, result.stderr) == ("[0, 0, 0, 2] False\n", "")
