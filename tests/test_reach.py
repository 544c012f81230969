"""Tests for tools/reach.py: line counting, the recorder, the exemptions."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "reach", ROOT / "tools" / "reach.py"
)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = '''\
import functools


def called():
    return 1


def never_called():
    value = 1
    return value


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


def outer():
    def inner():
        return 3

    return inner()
'''


def test_own_lines_and_the_uncalled_function_is_found(tmp_path):
    package = tmp_path / "throwaway"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    modules = reach.package_functions(package)
    assert modules == {
        "__init__.py": [],
        "mod.py": [
            reach.Function("called", 4, 2),
            reach.Function("never_called", 8, 3),
            # From the decorator line: CPython's first line for the code.
            reach.Function("decorated", 13, 3),
            # Five lines, less the two of the nested def.
            reach.Function("outer", 18, 3),
            reach.Function("outer.inner", 19, 2),
        ],
    }
    program = (
        "import throwaway.mod as m; m.called(); m.decorated(); m.outer()"
    )
    reached = reach.record([(["-c", program], 0)], package)
    rows = reach.tabulate(modules, reached, package)
    assert rows == [
        reach.Row("__init__.py", 0, 0, 0, []),
        reach.Row("mod.py", 13, 3, 0, [("never_called", 3)]),
    ]


def test_every_exemption_names_an_existing_function():
    modules = reach.package_functions(reach.PACKAGE)
    for key, outcome in reach.EXEMPT.items():
        assert outcome in ("oracle", "pinned", "deferred"), key
        path, _, name = key.partition("::")
        assert path in modules, key
        names = {function.qualname for function in modules[path]}
        assert name in names if name else names, key
