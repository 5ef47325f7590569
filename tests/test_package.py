"""The package as a whole: its public surface, its version and its source layout."""

import ast
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ddpaths
from ddpaths import (
    BijectionRecord,
    CheckResult,
    CountRow,
    DistributionTable,
    PathStats,
    PathWord,
    SlotKind,
    SlotRef,
    VerificationReport,
    bijections,
    enumeration,
    formulas,
    paths,
    verify,
)
from ddpaths.verify import _CheckSpec

if sys.version_info >= (3, 11):
    import tomllib
else:  # Python 3.10 has no tomllib
    tomllib = None

ROOT = Path(__file__).resolve().parent.parent
MODULES = (paths, enumeration, bijections, formulas, verify)
MAX_COLUMNS = 99

# the public surface, sorted; adding or removing a public name is a change to this list
PUBLIC_NAMES = [
    "AsymptoticEstimate",
    "BijectionRecord",
    "CHECK_IDS",
    "CheckResult",
    "CountRow",
    "DEFAULT_ENUMERATION_CAP",
    "DistributionTable",
    "PathClass",
    "PathStats",
    "PathWord",
    "SlotKind",
    "SlotRef",
    "VerificationReport",
    "a_asymptotic",
    "a_closed",
    "ascent_insert",
    "ascent_remove",
    "asymptotic_ratio",
    "catalan",
    "central_binomial",
    "central_binomials",
    "classify",
    "count_ddp_dp",
    "ddp_to_plain",
    "dyck_count",
    "enumerate_ddp",
    "enumerate_dyck",
    "enumerate_plain",
    "is_dispersed_dyck",
    "is_dyck",
    "is_plain_path",
    "k_ascent_total",
    "one_ascent_distribution",
    "one_ascent_positions",
    "parse_path",
    "plain_to_ddp",
    "r_closed",
    "r_convolution",
    "r_pair_decomposition",
    "stats",
    "totals_brute",
    "totals_closed",
    "u_closed",
    "updown_forward",
    "updown_inverse",
    "verify_all",
    "verify_lemma",
]


def test_public_surface_inventory():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(ddpaths.__all__) == PUBLIC_NAMES


def test_public_names_are_unique():
    assert len(ddpaths.__all__) == len(set(ddpaths.__all__))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_names_are_reexported(module):
    for name in module.__all__:
        assert name in ddpaths.__all__
        assert getattr(ddpaths, name) is getattr(module, name)


def test_every_public_name_has_one_home():
    for name in ddpaths.__all__:
        homes = [m.__name__ for m in MODULES if name in m.__all__]
        assert len(homes) == 1, (name, homes)


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    if tomllib is not None:
        version = tomllib.loads(text)["project"]["version"]
    else:
        version = re.search(r'^version = "([^"]+)"', text, re.MULTILINE).group(1)
    assert ddpaths.__version__ == version


def test_source_lines_fit_the_column_limit():
    src = ROOT / "src" / "ddpaths"
    long_lines = [
        f"{path.relative_to(src)}:{lineno}"
        for path in sorted(src.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert not long_lines


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_scan_flags_a_dead_import():
    source = "import json\nimport math\nfrom os import path, sep\nprint(math.pi, sep)\n"
    assert _unused_imports(source) == ["json", "path"]


def test_modules_use_every_name_they_import():
    src = ROOT / "src" / "ddpaths"
    unused = [
        f"{path.name}: {name}"
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path.read_text())
    ]
    assert not unused


def _dead_private_names(sources: list[str]) -> list[str]:
    """Each module-level private function, class or constant that none of ``sources`` reads,
    by name or as a module attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = [name for name in defined if name.startswith("_") and not name.startswith("__")]
    return [name for name in private if name not in read]


def test_dead_helper_scan_flags_an_unread_private_name():
    sources = [
        "_USED = 1\n_DEAD: int = 2\n__all__ = []\n"
        "def _helper():\n    return _USED\ndef _orphan():\n    pass\nclass _Gone:\n    pass\n",
        "from .a import _helper\nprint(_helper(), a._ATTR)\n_ATTR = 3\n",
    ]
    assert _dead_private_names(sources) == ["_DEAD", "_orphan", "_Gone"]


# a private helper that only its own definition names is left over from a refactor
def test_every_private_name_is_read():
    src = ROOT / "src" / "ddpaths"
    assert not _dead_private_names([path.read_text() for path in sorted(src.glob("*.py"))])


def _recursive_functions(source: str) -> list[str]:
    """Each function whose body calls the function's own name."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        )
    ]


def test_recursion_scan_flags_a_recursive_function():
    source = (
        "def fact(n):\n    return n * fact(n - 1) if n else 1\n"
        "def outer():\n    def inner(d):\n        inner(d + 1)\n    inner(0)\n"
        "def flat(n):\n    return sum(range(n))\n"
    )
    assert _recursive_functions(source) == ["fact", "inner"]


# brute force and the word stream walk explicit stacks, so no length meets the recursion limit
def test_no_function_in_the_package_recurses():
    src = ROOT / "src" / "ddpaths"
    recursive = [
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for name in _recursive_functions(path.read_text())
    ]
    assert not recursive


def _checks_with_loops(source: str) -> list[str]:
    """Each ``_check_*`` function that holds a ``for`` or ``while`` statement of its own."""
    loops = (ast.For, ast.AsyncFor, ast.While)
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_check_")
        and any(isinstance(inner, loops) for inner in ast.walk(node))
    ]


def test_loop_scan_flags_a_check_with_a_loop():
    source = (
        "def _check_a(n):\n    for i in range(n):\n        pass\n"
        "def _check_b(n):\n    def inner():\n        while True:\n            break\n"
        "def _check_c(n):\n    return [i for i in range(n)]\n"
        "def helper(n):\n    for i in range(n):\n        pass\n"
    )
    assert _checks_with_loops(source) == ["_check_a", "_check_b"]


# every claim check compares its routes through verify's shared loops (_first_mismatch,
# _doubles, _bijection_mismatch); ASYM alone compares floats against tolerances, not equalities
def test_no_check_in_verify_loops_by_hand():
    source = (ROOT / "src" / "ddpaths" / "verify.py").read_text()
    assert _checks_with_loops(source) == ["_check_asym"]


def _foreign_imports(source: str) -> list[str]:
    """Top-level modules imported from outside the standard library and the package."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:  # relative: the package
            modules.append(node.module)
    tops = [name.split(".")[0] for name in modules]
    return [top for top in tops if top not in sys.stdlib_module_names and top != "ddpaths"]


def test_foreign_import_scan_flags_a_third_party_import():
    source = (
        "import math, numpy.linalg\nfrom . import paths\nfrom ddpaths.paths import PathWord\n"
        "from sympy import binomial\nfrom operator import add\n"
    )
    assert _foreign_imports(source) == ["numpy", "sympy"]


def test_modules_import_only_the_standard_library():
    src = ROOT / "src" / "ddpaths"
    foreign = [
        f"{path.name}: {name}"
        for path in sorted(src.glob("*.py"))
        for name in _foreign_imports(path.read_text())
    ]
    assert not foreign




def _one_ascent_matchers(source: str) -> list[str]:
    """Each ``_k_ascent(1)`` call, and each ``re`` call on a literal pattern that finds what
    ``paths._ONE_ASCENT`` finds, as source text."""
    probe = "UDUUDDRUDUUUDDDUDRRUUDDUD"
    ones = [m.start() for m in paths._ONE_ASCENT.finditer(probe)]
    found = []
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    for node in calls:
        if not (node.args and isinstance(node.args[0], ast.Constant)):
            continue
        func, pattern = node.func, node.args[0].value
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "_k_ascent" and pattern == 1:
            found.append(ast.unparse(node))
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "re"
            and isinstance(pattern, str)
        ):
            try:
                starts = [m.start() for m in re.finditer(pattern, probe)]
            except re.error:
                continue
            if starts == ones:
                found.append(ast.unparse(node))
    return found


def test_one_ascent_scan_flags_a_second_matcher():
    source = (
        "import re\nfrom .paths import _k_ascent\n"
        "ones = _k_ascent(1)\ntwos = _k_ascent(2)\nruns = _k_ascent(k)\n"
        "again = re.compile('(?<!U)U(?!U)')\nups = re.compile('U+')\nbad = re.compile('(')\n"
        "hits = re.finditer(r'(?<!U)U(?=[DR]|$)', word)\n"
    )
    assert _one_ascent_matchers(source) == [
        "_k_ascent(1)",
        "re.compile('(?<!U)U(?!U)')",
        "re.finditer('(?<!U)U(?=[DR]|$)', word)",
    ]


# paths._ONE_ASCENT is the one 1-ascent matcher: the streams, the bijections and the
# position finder read it, so a second pattern could not drift from it unseen
def test_paths_holds_the_one_one_ascent_matcher():
    src = ROOT / "src" / "ddpaths"
    found = {path.stem: _one_ascent_matchers(path.read_text()) for path in src.glob("*.py")}
    assert {stem: calls for stem, calls in found.items() if calls} == {"paths": ["_k_ascent(1)"]}


# dataclasses imports inspect, which brings ast, dis and tokenize: about 1 MiB of peak memory
# and 10 ms of start-up for every run of the CLI, none of it used
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _modules_loaded_by(statement: str) -> set[str]:
    """The modules that ``statement`` adds to those a fresh interpreter has loaded at start."""
    probe = f"import sys\nbare = set(sys.modules)\n{statement}\nprint(*set(sys.modules) - bare)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(child.stdout.split())


def test_import_scan_flags_the_introspection_modules():
    assert INTROSPECTION <= _modules_loaded_by("import dataclasses")


def test_the_cli_loads_no_introspection_module():
    assert not INTROSPECTION & _modules_loaded_by("import ddpaths.cli")


# decimal costs about 0.3 MiB of peak memory; only the routes that print sequence terms and
# closed totals load it
_SETUP = "import ddpaths.cli\nddpaths.cli.build_parser()\n"
_QUIET = "import contextlib, io\nwith contextlib.redirect_stdout(io.StringIO()):\n"


def test_set_up_count_and_verify_load_no_decimal():
    statement = (
        f"{_SETUP}assert ddpaths.verify_all(deep=True).overall\n"
        f"{_QUIET}    ddpaths.cli.main(['count', 'paths', '20000'])\n"
    )
    assert "decimal" not in _modules_loaded_by(statement)


@pytest.mark.parametrize("argv", [["sequence", "ddp-count"], ["totals", "3"]])
def test_printing_terms_loads_decimal(argv):
    assert "decimal" in _modules_loaded_by(f"{_SETUP}{_QUIET}    ddpaths.cli.main({argv!r})\n")


_SLOT = SlotRef(SlotKind.DOWN_STEP, 1)
_SLOT_TEXT = "SlotRef(kind=<SlotKind.DOWN_STEP: 'DownStep'>, index=1)"
_RESULT = CheckResult("THM1", "2 <= m <= 14", False, {"m": 3})
_RESULT_TEXT = (
    "CheckResult(check_id='THM1', range_tested='2 <= m <= 14', passed=False, "
    "counterexample={'m': 3})"
)


def _record(cls, fields, values, short, text, frozen=True, hashable=True):
    return pytest.param(cls, fields, values, short, text, frozen, hashable, id=cls.__name__)


# each record: its fields in order, a value for each, the fewest arguments it takes, the repr
# of the full record, and whether it is frozen and hashable
RECORDS = [
    _record(PathWord, ("word",), ("UD",), (), "PathWord(word='UD')"),
    _record(
        PathStats,
        ("n", "ups", "downs", "rights", "ascent_runs", "k_ascents"),
        (3, 1, 1, 1, (1,), {1: 1}),
        (3, 1, 1, 1, (1,)),
        "PathStats(n=3, ups=1, downs=1, rights=1, ascent_runs=(1,), k_ascents={1: 1})",
        hashable=False,
    ),
    _record(SlotRef, ("kind", "index"), (SlotKind.DOWN_STEP, 1), (SlotKind.START,), _SLOT_TEXT),
    _record(
        BijectionRecord,
        ("input", "output", "slot"),
        (PathWord("UDUD"), PathWord("UD"), _SLOT),
        (PathWord("UDUD"), PathWord("UD")),
        "BijectionRecord(input=PathWord(word='UDUD'), output=PathWord(word='UD'), "
        f"slot={_SLOT_TEXT})",
    ),
    _record(
        CountRow,
        ("n", "ddp", "dyck", "ups", "downs", "rights", "one_ascents"),
        (2, 2, 1, 1, 1, 2, 1),
        (2, 2, 1, 1, 1, 2, 1),
        "CountRow(n=2, ddp=2, dyck=1, ups=1, downs=1, rights=2, one_ascents=1)",
    ),
    _record(
        DistributionTable,
        ("n", "row"),
        (2, {0: 1, 1: 1}),
        (2, {0: 1, 1: 1}),
        "DistributionTable(n=2, row={0: 1, 1: 1})",
        hashable=False,
    ),
    _record(
        CheckResult,
        ("check_id", "range_tested", "passed", "counterexample"),
        ("THM1", "2 <= m <= 14", False, {"m": 3}),
        ("THM1", "2 <= m <= 14", False),
        _RESULT_TEXT,
        hashable=False,
    ),
    _record(
        VerificationReport,
        ("checks",),
        ([_RESULT],),
        ([_RESULT],),
        f"VerificationReport(checks=[{_RESULT_TEXT}])",
        frozen=False,
        hashable=False,
    ),
    _record(
        _CheckSpec,
        ("run", "default_n", "deep_n", "range_text", "max_n"),
        (len, 14, 22, "0 <= n <= {n}", 2000),
        (len, 14, 22, "0 <= n <= {n}"),
        "_CheckSpec(run=<built-in function len>, default_n=14, deep_n=22, "
        "range_text='0 <= n <= {n}', max_n=2000)",
    ),
]

# what an omitted trailing field defaults to
_DEFAULTS = {
    "word": "",
    "k_ascents": {},
    "index": None,
    "slot": None,
    "counterexample": None,
    "max_n": None,
}


@pytest.mark.parametrize("cls,fields,values,short,text,frozen,hashable", RECORDS)
def test_record_behaviour_is_pinned(cls, fields, values, short, text, frozen, hashable):
    """Construction, equality, hashing, repr, assignment, matching and pickling of a record."""
    record = cls(*values)
    assert cls.__match_args__ == fields
    assert [getattr(record, name) for name in fields] == list(values)
    assert cls(**dict(zip(fields, values))) == record
    assert repr(record) == text
    defaulted = fields[len(short) :]
    least = cls(*short)
    assert [getattr(least, name) for name in defaulted] == [_DEFAULTS[n] for n in defaulted]
    assert (least == record) == (short == values)
    assert pickle.loads(pickle.dumps(record)) == record
    if hashable:
        assert hash(cls(*values)) == hash(record)
        assert len({record, cls(*values)}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, fields[0], values[0])
    else:
        setattr(record, fields[0], values[0])
    if not cls.__name__.startswith("_"):  # a public record is no tuple
        assert record != tuple(values)
        with pytest.raises(TypeError):
            iter(record)
        with pytest.raises(TypeError):
            record[0]
