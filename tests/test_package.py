"""Package hygiene: the public export list, the module imports, the
function locals and the private helpers.

Every name in ``eigenprod.__all__`` must resolve under a star import,
appear once, and be the very object its home module defines; every
module-level import in a package module must be read somewhere in that
module; every name a function stores must be loaded in that function;
every module-level function or class must be read somewhere in the
package outside its own definition and ``__init__.py``, and so must every
public method and property of a module-level class, but for the few that
only a named reader outside the package calls; every top-level
definition of the tests' oracle module must be imported by a test module;
the prime-power divisor sum is written once, in ``exact.py``.
"""

import ast
import json
from collections import Counter
from importlib import import_module, resources
from pathlib import Path

import pytest

import eigenprod

SOURCES = sorted(Path(eigenprod.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ORACLES = Path(__file__).with_name("oracles.py")


def test_star_import_resolves_every_exported_name_once():
    repeated = [name for name, n in Counter(eigenprod.__all__).items() if n > 1]
    assert repeated == []
    namespace: dict = {}
    exec("from eigenprod import *", namespace)
    missing = [name for name in eigenprod.__all__ if name not in namespace]
    assert missing == []


def test_lazy_export_is_its_home_modules_object():
    # the package loads a name's home module on first access and keeps the
    # value; the home must define it, not merely import it
    for name in eigenprod.__all__:
        if name == "__version__":
            continue
        home = import_module(f"eigenprod.{eigenprod._HOME[name]}")
        value = getattr(eigenprod, name)
        assert value is getattr(home, name), name
        assert vars(eigenprod)[name] is value, name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_unknown_package_attribute_is_missing():
    with pytest.raises(AttributeError, match="no attribute 'riemann_zeta_neg'"):
        eigenprod.riemann_zeta_neg
    assert not hasattr(eigenprod, "ramare")
    assert "ramare" not in vars(eigenprod)


def test_package_dir_covers_every_export():
    assert set(eigenprod.__all__) <= set(dir(eigenprod))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unused_locals(source: str) -> list[str]:
    # a name a function stores but never loads; `_` and names the
    # function declares global or nonlocal are stored for their effect
    unused = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [n for n in ast.walk(func) if isinstance(n, ast.Name)]
        loaded = {n.id for n in names if not isinstance(n.ctx, ast.Store)}
        declared = {
            name
            for n in ast.walk(func)
            if isinstance(n, (ast.Global, ast.Nonlocal))
            for name in n.names
        }
        unused += sorted(
            {
                f"{func.name}:{n.id}"
                for n in names
                if isinstance(n.ctx, ast.Store)
                and n.id != "_"
                and n.id not in loaded | declared
            }
        )
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_locals(path):
    assert _unused_locals(path.read_text(encoding="utf-8")) == []


def test_unused_local_is_caught():
    source = (
        "def f(xs):\n"
        "    global seen\n"
        "    seen = xs\n"
        "    last = None\n"
        "    for x in xs:\n"
        "        last, _ = x, 0\n"
        "    return xs\n"
    )
    assert _unused_locals(source) == ["f:last"]


def _unread_definitions(sources: dict[str, str], private: bool = True) -> list[str]:
    # a definition counts as read when another statement of its module
    # reads its name, or another module other than __init__.py imports it
    # from its module; the export list alone is no reader
    trees = {name: ast.parse(text) for name, text in sources.items()}
    imported = {
        (f"{node.module}.py", alias.name)
        for module, tree in trees.items()
        if module != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    unread = []
    for module, tree in trees.items():
        reads = [
            {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            for stmt in tree.body
        ]
        for i, stmt in enumerate(tree.body):
            if (
                isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and stmt.name.startswith("_") == private
                and not stmt.name.startswith("__")
                and (module, stmt.name) not in imported
                and not any(stmt.name in r for j, r in enumerate(reads) if j != i)
            ):
                unread.append(f"{module}:{stmt.name}")
    return unread


def test_every_private_helper_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert _unread_definitions(sources) == []


def test_unread_private_helper_is_caught():
    # a helper that only reads itself is unread, and so is one whose name
    # another module reads from its own copy
    exact = (
        "def _squarefree(n):\n    return n < 2 or _squarefree(n - 1)\n\n\n"
        "def _factorize(n):\n    return [(n, 1)]\n\n\n"
        "def _is_prime(n):\n    return n\n"
    )
    hmf = (
        "from .exact import _is_prime\n\n\n"
        "def _factorize(n):\n    return [(n, 1)]\n\n\n"
        "VALUE = _factorize(_is_prime(6))\n"
    )
    sources = {"exact.py": exact, "hmf_coeffs.py": hmf}
    assert _unread_definitions(sources) == [
        "exact.py:_squarefree",
        "exact.py:_factorize",
    ]


def _unread_methods(sources: dict[str, str]) -> list[str]:
    # a public method or property of a module-level class counts as read
    # when the package loads an attribute of its name outside its own
    # body; the match is by name alone, so a read of a namesake keeps it
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = Counter(
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                own = sum(
                    1
                    for n in ast.walk(fn)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Load)
                    and n.attr == fn.name
                )
                if reads[fn.name] == own:
                    unread.append(f"{module}:{cls.name}.{fn.name}")
    return unread


# Public methods that no statement of the package reads, kept for the
# reader named beside each
READ_OUTSIDE_THE_PACKAGE = {
    "cli.py:_Parser.error": "argparse, on a usage error",
    "fixtures.py:Fixtures.keys": "bench/child.py, which counts the facts",
    "interval.py:Decision.precision_used": (
        "bench/tracer.py, which counts verifier.checks through it"
    ),
}


def test_every_public_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert _unread_definitions(sources, private=False) == []
    assert sorted(_unread_methods(sources)) == sorted(READ_OUTSIDE_THE_PACKAGE)


def test_unread_method_is_caught():
    # a method read only inside its own body is unread; one another
    # statement reads, a property read as an attribute, and a private or
    # dunder method are not reported
    exact = (
        "class Character:\n"
        "    def __repr__(self):\n        return 'chi'\n\n"
        "    def _row(self):\n        return ()\n\n"
        "    def power_sum(self, i):\n        return self.power_sum(i - 1)\n\n"
        "    def power_sums(self, i):\n        return self._row()\n\n"
        "    @property\n    def period(self):\n        return 4\n"
    )
    hmf = (
        "from .exact import Character\n\n\n"
        "ROW = Character().power_sums(Character().period)\n"
    )
    sources = {"exact.py": exact, "hmf_coeffs.py": hmf}
    assert _unread_methods(sources) == ["exact.py:Character.power_sum"]


def test_unread_public_name_is_caught():
    # a public function that only the export list imports, or only reads
    # itself, is unread; one another module imports is read
    exact = (
        "def riemann_zeta_neg(k):\n    return riemann_zeta_neg(k - 2)\n\n\n"
        "def bernoulli(k):\n    return k\n\n\n"
        "def dedekind_zeta_neg(k):\n    return bernoulli(k)\n"
    )
    init = "from .exact import bernoulli, dedekind_zeta_neg, riemann_zeta_neg\n"
    hmf = "from .exact import dedekind_zeta_neg\n\n\nVALUE = dedekind_zeta_neg(2)\n"
    sources = {"__init__.py": init, "exact.py": exact, "hmf_coeffs.py": hmf}
    assert _unread_definitions(sources, private=False) == ["exact.py:riemann_zeta_neg"]


# The public names that only the tests read; they live in tests/oracles.py
TEST_ONLY_NAMES = (
    "TotallyPositiveElement",
    "coefficient",
    "enumerate_totally_nonneg",
    "fundamental_unit_norm",
    "ideal_from_prime_powers",
    "ideals_of_norm",
    "residual_unequal",
)


@pytest.mark.parametrize("name", TEST_ONLY_NAMES)
def test_test_only_name_is_not_exported(name):
    assert name not in eigenprod.__all__
    with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
        getattr(eigenprod, name)
    for home in ("quadfield", "hmf_coeffs"):
        assert not hasattr(import_module(f"eigenprod.{home}"), name), home


# Public names removed with no alias: a `Rat` leaf of the factorial
# encloses what the leaf kind `GammaInt` did
REMOVED_NAMES = ("GammaInt", "gamma_integer")


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_is_gone(name):
    assert name not in eigenprod.__all__
    with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
        getattr(eigenprod, name)
    assert not hasattr(import_module("eigenprod.interval"), name)


def _unimported_oracles(oracles: str, tests: dict[str, str]) -> list[str]:
    # a public oracle counts as read when a test module imports it from
    # oracles; a private helper when another statement of oracles.py reads it
    imported = {
        alias.name
        for source in tests.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "oracles"
        for alias in node.names
    }
    tree = ast.parse(oracles)
    reads = [
        {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)} for stmt in tree.body
    ]
    unread = []
    for i, stmt in enumerate(tree.body):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name.startswith("_"):
            read = any(stmt.name in r for j, r in enumerate(reads) if j != i)
        else:
            read = stmt.name in imported
        if not read:
            unread.append(stmt.name)
    return unread


def test_every_oracle_is_imported_by_a_test():
    oracles = ORACLES.read_text(encoding="utf-8")
    tests = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(ORACLES.parent.glob("*.py"))
        if p != ORACLES
    }
    assert "test_hmf_coeffs.py" in tests
    assert _unimported_oracles(oracles, tests) == []


def test_unimported_oracle_is_caught():
    # an oracle only its own module reads is unimported, and so is a private
    # helper that only reads itself; a helper another oracle reads is not
    oracles = (
        "def _parity(n):\n    return n % 2\n\n\n"
        "def _loop(n):\n    return _loop(n - 1)\n\n\n"
        "def coefficient(n):\n    return _parity(n)\n\n\n"
        "def residual(n):\n    return coefficient(n)\n"
    )
    tests = {
        "test_a.py": "from oracles import coefficient\n",
        "test_b.py": "from eigenprod import residual\nimport oracles\n",
    }
    assert _unimported_oracles(oracles, tests) == ["_loop", "residual"]


def _is_pow(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)


def _minus_one(node) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
    )


def _geometric_sum_sites(sources: dict[str, str]) -> list[str]:
    # the modules that write 1 + q + ... + q^e, once per spelling: sum() over
    # a comprehension of powers whose exponent reads a loop variable, or the
    # closed form (q^(e+1) - 1) / (q - 1)
    sites = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
                and _is_pow(node.args[0].elt)
            ):
                targets = {
                    n.id
                    for gen in node.args[0].generators
                    for n in ast.walk(gen.target)
                    if isinstance(n, ast.Name)
                }
                exponent = {
                    n.id for n in ast.walk(node.args[0].elt.right) if isinstance(n, ast.Name)
                }
                if targets & exponent:
                    sites.append(module)
            elif (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.FloorDiv, ast.Div))
                and _minus_one(node.left)
                and _is_pow(node.left.left)
                and _minus_one(node.right)
            ):
                sites.append(module)
    return sorted(sites)


def test_prime_power_divisor_sum_is_written_once_in_exact():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert _geometric_sum_sites(sources) == ["exact.py"]


def test_second_divisor_sum_is_caught():
    # a generator sum of powers and a second closed form are each a copy; a
    # sum of fixed powers, or a quotient of other shape, is not
    exact = "def _sum(q, e):\n    return (q ** (e + 1) - 1) // (q - 1)\n"
    hmf = (
        "def coeff(q, e):\n    return sum(q**i for i in range(e + 1))\n\n\n"
        "def norm2(xs):\n    return sum(x**2 for x in xs)\n"
    )
    verifier = (
        "def sigma(n, e):\n    return (n ** (e + 1) - 1) / (n - 1)\n\n\n"
        "def ratio(a, b):\n    return (a**2 - 1) // (b + 1)\n"
    )
    sources = {"exact.py": exact, "hmf_coeffs.py": hmf, "verifier.py": verifier}
    assert _geometric_sum_sites(sources) == ["exact.py", "hmf_coeffs.py", "verifier.py"]


def _fixture_key_homes(sources: dict, keys) -> dict:
    # the modules that write each key as a whole string literal
    literals = {
        name: {
            node.value
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        for name, source in sources.items()
    }
    return {key: sorted(n for n, lits in literals.items() if key in lits) for key in keys}


def test_every_fixture_key_is_spelled_in_one_module():
    # a run reads a fact through _Run.use_fixture(key) and hands the record
    # to its accessor, so each key of the fixtures document is written once
    doc = resources.files("eigenprod.data").joinpath("fixtures.json")
    keys = json.loads(doc.read_text(encoding="utf-8"))["facts"]
    assert keys
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    homes = _fixture_key_homes(sources, keys)
    assert {key: names for key, names in homes.items() if len(names) != 1} == {}


def test_fixture_key_spelled_twice_is_caught():
    # an accessor that looks its own key up again spells it a second time;
    # a key inside a longer string or an f-string is not a spelling
    fixtures = 'def takeuchi_constants(fx):\n    return fx.get("takeuchi_disc_bound")\n'
    verifier = (
        'a = takeuchi_constants(run.use_fixture("takeuchi_disc_bound"))\n'
        'note = "takeuchi_disc_bound is cited"\n'
        'key = f"{fact.key}[{degree}]"\n'
    )
    sources = {"fixtures.py": fixtures, "verifier.py": verifier}
    assert _fixture_key_homes(sources, ["takeuchi_disc_bound", "magma_dim_d8"]) == {
        "takeuchi_disc_bound": ["fixtures.py", "verifier.py"],
        "magma_dim_d8": [],
    }
