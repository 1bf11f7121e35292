"""Every module-level import of the package is used by its module, every
module-level private function or class is used somewhere in the package,
no module imports a private name from another, no module calls the numpy routines that the column helpers replace, only
``geometry`` reads the snap rule's ``SNAP_FACTOR``, the breakpoint
merge's ``BREAKPOINT_MERGE_RTOL`` and the length floor's
``LENGTH_EPS_FACTOR`` or calls ``merge_collinear``, a remainder or an
unwrap (``np.mod``, ``np.fmod``, ``np.remainder``, ``np.unwrap``,
``math.fmod``, ``math.remainder``), every tolerance is
defined once, in ``tolerances``, and no module imports scipy, so no
subcommand loads it: scipy is a test-only oracle.  A fresh process loads
only the package modules its subcommand runs, ``import isocomb`` loads
none, and the package namespace resolves each exported name lazily to the
object its module holds."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isocomb"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name counts as read when it appears as a name anywhere in the module,
    including inside quoted annotations; ``__future__`` imports are exempt.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    annotations = [
        n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))
    ] + [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    quoted = [
        ast.parse(a.value, mode="eval")
        for a in annotations
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    read = {n.id for t in [tree, *quoted] for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nimport os.path\n"
        "from .a import B, C\n"
        "def f(x: 'C') -> None:\n    return np.pi\n"
    )
    assert unused_imports(source) == ["os", "os", "B"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions and classes that no module reads.

    ``sources`` maps module file names to their text.  A definition counts
    as read when its name appears in any of the modules as a name, an
    attribute or an imported name; its own ``def`` or ``class`` line does
    not count.  Dunder names are exempt.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            f"{module}:{node.name}"
            for node in tree.body
            if isinstance(node, DEFINITIONS)
            and node.name.startswith("_")
            and not node.name.endswith("__")
        ]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
    return [d for d in defined if d.split(":")[1] not in read]


def test_unused_private_definitions_are_found():
    sources = {
        "a.py": (
            "def _called():\n    return 1\n"
            "def _dead():\n    return _called()\n"
            "class _Dead:\n    def _method(self):\n        pass\n"
            "def _imported():\n    pass\n"
            "def _by_attribute():\n    pass\n"
            "def __getattr__(name):\n    pass\n"
            "def public():\n    pass\n"
        ),
        "b.py": "from .a import _imported\nfrom . import a\nx = a._by_attribute\n",
    }
    assert unused_private_definitions(sources) == ["a.py:_dead", "a.py:_Dead"]


def test_package_has_no_unused_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_definitions(sources) == []


def private_imports(source: str) -> list[str]:
    """``_private`` names a module takes from a package module, as
    ``line:module.name`` in line order: imported by a relative or an
    ``isocomb`` import, or read as an attribute of a name such an import
    binds.  Dunder names are exempt."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    found, bound = [], set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.level or n.module.split(".")[0] == "isocomb"):
            for alias in n.names:
                if private(alias.name):
                    found.append((n.lineno, n.col_offset, f"{n.module or ''}.{alias.name}"))
                bound.add(alias.asname or alias.name)
        elif isinstance(n, ast.Import):
            bound.update(a.asname for a in n.names if a.asname and a.name.split(".")[0] == "isocomb")
    found += [
        (n.lineno, n.col_offset, f"{n.value.id}.{n.attr}")
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id in bound and private(n.attr)
    ]
    return [f"{line}:{name}" for line, _, name in sorted(found)]


def test_private_imports_are_found():
    source = (
        "from .geometry import TAU, _hidden\n"
        "from . import planar, __version__\n"
        "from isocomb.spherical import _frame as frame\n"
        "import isocomb.cones as cones\n"
        "import numpy as np\n"
        "def _own(self):\n"
        "    return np._NoValue, self._x, planar._frame, cones._combined_cone, planar.__name__\n"
        "def f():\n    from .combination import _row_gaps\n"
    )
    assert private_imports(source) == [
        "1:geometry._hidden", "3:isocomb.spherical._frame", "7:planar._frame",
        "7:cones._combined_cone", "9:combination._row_gaps",
    ]


# a private helper has one module: a module that needs another's helper
# imports a public function instead (planar.chain_certificate, spherical.edge_frame)
@pytest.mark.parametrize("module", MODULES)
def test_module_imports_no_private_name_from_another(module):
    assert private_imports((PACKAGE / module).read_text()) == []


# geometry.roll_next / roll_prev and cross3 equal np.roll and np.cross bit
# for bit without numpy's per-call axis handling
REPLACED_NUMPY = ("roll", "cross")


def replaced_numpy_calls(source: str) -> list[str]:
    """``np.<name>`` attributes for the names in ``REPLACED_NUMPY``, as
    ``line:np.name`` in line order."""
    found = [
        n for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute)
        and n.attr in REPLACED_NUMPY
        and isinstance(n.value, ast.Name)
        and n.value.id == "np"
    ]
    return [f"{n.lineno}:np.{n.attr}" for n in sorted(found, key=lambda n: n.lineno)]


def test_replaced_numpy_calls_are_found():
    source = (
        "import numpy as np\n"
        "a = np.roll(x, -1, axis=0)\n"
        "f = np.cross\n"
        "b = np.cumsum(x)\n"
        "c = roll(x)\n"
        "d = other.roll(x)\n"
        "s = 'np.roll(x, 1)'\n"
    )
    assert replaced_numpy_calls(source) == ["2:np.roll", "3:np.cross"]


@pytest.mark.parametrize("module", MODULES)
def test_module_calls_no_replaced_numpy_routine(module):
    assert replaced_numpy_calls((PACKAGE / module).read_text()) == []


# geometry owns the snap rule, the breakpoint merge and the length floor:
# ArcPolygon.locate is the one reader of SNAP_FACTOR, every other module
# asking it which edge a position is on, merged_vertex_positions the one
# reader of BREAKPOINT_MERGE_RTOL, so plane and cone merge at one tolerance,
# and short_edges the one reader of LENGTH_EPS_FACTOR, so both builders, the
# certificate and its deduplication refuse an edge by one test; the
# tolerance ledger defines all three, and reads them no more than any other module
SNAP_OWNER = "geometry.py"
OWNED_TOLERANCES = ("SNAP_FACTOR", "BREAKPOINT_MERGE_RTOL", "LENGTH_EPS_FACTOR")
LEDGER = "tolerances.py"


def owned_name_readers(sources: dict[str, str], name: str) -> list[str]:
    """Modules other than ``SNAP_OWNER`` that read ``name`` as a name, an
    attribute or an imported name, as ``module:line``; the ``LEDGER``'s
    assignment to it is its definition, not a read."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return [
        f"{module}:{n.lineno}"
        for module, source in sources.items()
        if module != SNAP_OWNER
        for n in ast.walk(ast.parse(source))
        if type(n) in fields and getattr(n, fields[type(n)]) == name
        and not (module == LEDGER and isinstance(getattr(n, "ctx", None), ast.Store))
    ]


def test_snap_factor_readers_are_found():
    sources = {
        "geometry.py": "from .tolerances import SNAP_FACTOR\nsnap = SNAP_FACTOR * 2\n",
        "tolerances.py": "SNAP_FACTOR = 1e-15\nTWICE = 2 * SNAP_FACTOR\n",
        "a.py": "from .geometry import SNAP_FACTOR as S\n",
        "b.py": "from . import geometry\nx = geometry.SNAP_FACTOR\n",
        "c.py": "from .geometry import *\ny = SNAP_FACTOR\n",
        "d.py": "z = 'SNAP_FACTOR'\nfrom .geometry import TAU\n",
        "e.py": "from . import tolerances\nSNAP_FACTOR = tolerances.SNAP_FACTOR\n",
    }
    assert owned_name_readers(sources, "SNAP_FACTOR") == [
        "tolerances.py:2", "a.py:1", "b.py:2", "c.py:2", "e.py:2", "e.py:2",
    ]


def test_only_geometry_reads_snap_factor():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert SNAP_OWNER in sources and LEDGER in sources
    for name in OWNED_TOLERANCES:
        assert f"{name} = " in sources[LEDGER], name
        assert owned_name_readers(sources, name) == [], name


# geometry owns the collinear merge: merge_to_corners is the one caller of
# merge_collinear, so both builders merge in one loop
def test_only_geometry_calls_merge_collinear():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert "merge_collinear(" in sources[SNAP_OWNER]
    assert owned_name_readers(sources, "merge_collinear") == []


# geometry owns angle and modulo reductions: norm_angle(_many) and turns
# reduce angles, reduce_mod and ArcPolygon.locate reduce arc positions, so
# the plane, the combined curve and the cone search turn and unwrap by one
# rule, and no other module calls a remainder or an unwrap of its own
REDUCTIONS = {"np": ("mod", "fmod", "remainder", "unwrap"), "math": ("fmod", "remainder")}


def reduction_calls(source: str) -> list[str]:
    """``np.<name>`` and ``math.<name>`` attributes and imported names for
    the names in ``REDUCTIONS``, as ``line:module.name`` in line order;
    ``numpy`` counts as ``np``."""
    modules = {"numpy": "np", "np": "np", "math": "math"}
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            module, names = modules.get(n.value.id), [n.attr]
        elif isinstance(n, ast.ImportFrom):
            module, names = modules.get(n.module), [alias.name for alias in n.names]
        else:
            continue
        found += [(n.lineno, f"{module}.{name}") for name in names if name in REDUCTIONS.get(module, ())]
    return [f"{line}:{name}" for line, name in sorted(found)]


def test_reduction_calls_are_found():
    source = (
        "import math\n"
        "import numpy as np\n"
        "a = np.mod(x, 2.0)\n"
        "b = numpy.unwrap(p)\n"
        "from numpy import remainder, cumsum\n"
        "from math import fmod as f\n"
        "c = math.remainder(x, 2.0) + math.floor(x)\n"
        "d = np.fmod\n"
        "e = np.cumsum(x) + other.mod(x) + mod(x)\n"
        "s = 'np.unwrap(p)'\n"
    )
    assert reduction_calls(source) == [
        "3:np.mod", "4:np.unwrap", "5:np.remainder", "6:math.fmod", "7:math.remainder", "8:np.fmod",
    ]


def test_only_geometry_reduces_angles_and_arc_positions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert reduction_calls(sources[SNAP_OWNER]) != []
    assert {name: found for name, source in sources.items() if name != SNAP_OWNER
            if (found := reduction_calls(source))} == {}


# tolerances.py is the one table of stated tolerances: no other module
# writes a small float inline, and no constant is defined in two modules
SMALL_FLOAT = 1e-6


def small_float_literals(source: str) -> list[str]:
    """Float literals in (0, SMALL_FLOAT] in ``source``, as ``line:value``
    in line order; a negated literal counts by its magnitude."""
    found = [
        n for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Constant) and type(n.value) is float and 0.0 < n.value <= SMALL_FLOAT
    ]
    return [f"{n.lineno}:{n.value!r}" for n in sorted(found, key=lambda n: (n.lineno, n.col_offset))]


def test_small_float_literals_are_found():
    source = (
        "TOL = 1e-9\n"
        "x = y - 1e-12 * p\n"
        "z = -1.0 + 1e-6\n"
        "big = 1.5e-6 + 1e-3 + 1 + 0.0\n"
        "s = '1e-9'\n"
    )
    assert small_float_literals(source) == ["1:1e-09", "2:1e-12", "3:1e-06"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != LEDGER])
def test_module_writes_no_tolerance_inline(module):
    assert small_float_literals((PACKAGE / module).read_text()) == []


def shared_constants(sources: dict[str, str]) -> list[str]:
    """UPPER_CASE names assigned at module level in more than one module,
    as ``NAME:module,module`` in name order."""
    owners = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for n in (n for t in targets for n in ast.walk(t)):
                    if isinstance(n, ast.Name) and n.id.isupper():
                        owners.setdefault(n.id, set()).add(module)
    return [f"{name}:{','.join(sorted(mods))}" for name, mods in sorted(owners.items()) if len(mods) > 1]


def test_shared_constants_are_found():
    sources = {
        "a.py": "TOL = 1e-9\nPAIR, SHARED = 1, 2\nlocal = 3\ndef f():\n    INNER = 1\n",
        "b.py": "from .a import TOL\nSHARED: int = 2\nINNER = 4\nlocal = 3\n",
        "c.py": "TOL = 1e-8\n",
    }
    assert shared_constants(sources) == ["SHARED:a.py,b.py", "TOL:a.py,c.py"]


def test_no_constant_is_defined_in_two_modules():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert LEDGER in sources
    assert shared_constants(sources) == []


# every scipy routine the package once used has an in-package equivalent
# (the 2-D hull, Brent's method, the rotation-vector conversions), so no
# scipy import is allowed; scipy is the tests' oracle only
ALLOWED_SCIPY = set()


def scipy_imports(source: str) -> list[str]:
    """Imports of scipy anywhere in ``source`` other than ``ALLOWED_SCIPY``,
    as ``line:module`` or ``line:module.name`` in line order."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            found += [(n.lineno, a.name) for a in n.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(n, ast.ImportFrom) and n.level == 0 and n.module.split(".")[0] == "scipy":
            found += [
                (n.lineno, f"{n.module}.{a.name}")
                for a in n.names
                if (n.module, a.name) not in ALLOWED_SCIPY
            ]
    return [f"{line}:{name}" for line, name in sorted(found)]


def test_scipy_imports_are_found():
    source = (
        "import scipy\n"
        "from scipy.spatial import ConvexHull, QhullError\n"
        "def f():\n    from scipy.optimize import brentq\n    import scipy.optimize as so\n"
        "from scipy.spatial.transform import Rotation\n"
        "from scipy import spatial\n"
        "from .scipy import x\n"
        "import scipyx\n"
    )
    assert scipy_imports(source) == [
        "1:scipy", "2:scipy.spatial.ConvexHull", "2:scipy.spatial.QhullError",
        "4:scipy.optimize.brentq", "5:scipy.optimize",
        "6:scipy.spatial.transform.Rotation", "7:scipy.spatial",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_from_scipy_only_the_hull(module):
    # ALLOWED_SCIPY is empty, so this asserts that the module imports no scipy
    assert scipy_imports((PACKAGE / module).read_text()) == []


# imports isocomb, runs cli.main on each argv list, and prints the loaded
# modules of the package named by the second argument
PROBE = """
import json, sys
import isocomb
for argv in json.loads(sys.argv[1]):
    from isocomb import cli
    if cli.main(argv) != 0:
        raise SystemExit(f"{argv} failed")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == sys.argv[2])))
"""


def run_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter on ``args`` that imports isocomb from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def loaded_modules(argvs, package) -> set[str]:
    run = run_python("-c", PROBE, json.dumps(argvs), package)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


def probe_inputs(tmp_path) -> dict:
    """Seeded input files for the subcommands: two links, a planar
    polygon and a digon."""
    from isocomb.serialization import planar_to_dict, spherical_to_dict
    from isocomb.spherical import random_convex_link
    from isocomb.suite import random_convex_polygon

    rng = np.random.default_rng(17)
    files = {}
    for name, data in (
        ("a", spherical_to_dict(random_convex_link(rng, 3.0))),
        ("b", spherical_to_dict(random_convex_link(rng, 3.0))),
        ("f1", planar_to_dict(random_convex_polygon(rng, 3, 10))),
        ("digon", {"type": "digon", "angle": 1.1}),
    ):
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(data))
    return files


def test_no_subcommand_loads_scipy(tmp_path):
    files = probe_inputs(tmp_path)
    argvs = [
        ["digon", "--angle1", "1.0", "--angle2", "1.5", "--ladder", "0.2,0.1",
         "--out", str(tmp_path / "digon_out.json")],
        ["cone-combine", "--a", files["a"], "--b", files["b"], "--position",
         "--out", str(tmp_path / "cone.json")],
        ["align", "--a", files["f1"], "--b", files["f1"],
         "--out", str(tmp_path / "align.json")],
        ["validate", files["digon"]],
        ["suite", "planar", "--trials", "2", "--report", str(tmp_path / "planar.jsonl")],
        ["suite", "cone", "--trials", "2", "--report", str(tmp_path / "cone.jsonl")],
        ["suite", "planar", "--replay", "1"],
        ["suite", "cone", "--replay", "1"],
    ]
    assert loaded_modules(argvs, "scipy") == set()


# the package modules each subcommand loads in a fresh process: the ones
# that validate an input file, plus what the subcommand runs
VALIDATE = {f"isocomb{m}" for m in (
    "", ".cli", ".errors", ".tolerances", ".geometry", ".planar", ".spherical", ".serialization")}
COMBINATION, CONES = {"isocomb.combination"}, {"isocomb.cones"}
SUITE, SVGPLOT = {"isocomb.suite", "isocomb.combination"}, {"isocomb.svgplot"}
SUBCOMMAND_MODULES = {
    "validate planar": (["validate", "{f1}"], VALIDATE),
    "validate spherical": (["validate", "{a}"], VALIDATE),
    "validate digon": (["validate", "{digon}"], VALIDATE | CONES),
    "align": (["align", "--a", "{f1}", "--b", "{f1}", "--out", "{out}"], VALIDATE | COMBINATION),
    "align --svg": (["align", "--a", "{f1}", "--b", "{f1}", "--out", "{out}", "--svg", "{svg}"],
                    VALIDATE | COMBINATION | SVGPLOT),
    "combine": (["combine", "--a", "{f1}", "--b", "{f1}", "--out", "{out}"], VALIDATE | COMBINATION),
    "combine --svg": (["combine", "--a", "{f1}", "--b", "{f1}", "--out", "{out}", "--svg", "{svg}"],
                      VALIDATE | COMBINATION | SVGPLOT),
    "pogorelov": (["pogorelov", "--a", "{a}", "--b", "{b}", "--out", "{out}"], VALIDATE | CONES),
    "cone-combine": (["cone-combine", "--a", "{a}", "--b", "{b}", "--position", "--out", "{out}"],
                     VALIDATE | CONES),
    "digon": (["digon", "--angle1", "1.0", "--angle2", "1.5", "--ladder", "0.2,0.1", "--out", "{out}"],
              VALIDATE | CONES),
    "suite planar": (["suite", "planar", "--trials", "2", "--report", "{out}"], VALIDATE | SUITE),
    "suite planar --replay": (["suite", "planar", "--replay", "1"], VALIDATE | SUITE),
    "suite cone": (["suite", "cone", "--trials", "2", "--report", "{out}"], VALIDATE | SUITE | CONES),
}


@pytest.mark.parametrize("argv, expected", SUBCOMMAND_MODULES.values(), ids=SUBCOMMAND_MODULES.keys())
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, expected):
    names = dict(probe_inputs(tmp_path), out=str(tmp_path / "out"), svg=str(tmp_path / "out.svg"))
    argv = [arg.format(**names) for arg in argv]
    assert loaded_modules([argv], "isocomb") == expected


def test_importing_the_package_loads_no_module():
    assert loaded_modules([], "isocomb") == {"isocomb"}


def test_cli_runs_as_a_module_with_runtime_warnings_as_errors(tmp_path):
    # runpy warns when the package has already imported the module it runs
    run = run_python("-W", "error::RuntimeWarning", "-m", "isocomb.cli", "validate",
                     probe_inputs(tmp_path)["f1"])
    assert (run.returncode, run.stderr) == (0, "")


# the names the package exported when it imported every module eagerly
EXPORTED = {
    "combination": (
        "AlignmentResult", "CombinedCurve", "MarkedPair", "VertexEvents", "align", "apply_alignment",
        "bending_check", "combine", "combine_aligned", "combine_at", "make_pair",
        "semitangent_condition", "vertex_events",
    ),
    "cones": (
        "ConvexCone3", "Digon", "DigonCombinationReport", "PogorelovImage", "PositioningReport",
        "combine_cones", "combine_dihedral", "cone_from_link", "image_polygons", "link_hausdorff",
        "make_digon", "pogorelov_forward", "pogorelov_identity_check", "position_and_combine",
        "transform_link_pair", "truncate_digons",
    ),
    "geometry": ("Angle", "RigidMotion2", "Vec2", "apply_motion", "compose", "norm_angle"),
    "planar": (
        "ConvexityCertificate", "PlanarPolygon", "build_polygon", "convexity_certificate",
        "dilate_to_perimeter", "point_at",
    ),
    "spherical": ("SphericalPolygon", "build_spherical_polygon", "centroid_direction", "random_convex_link"),
    "suite": ("SuiteConfig", "TrialReport", "run_cone_suite", "run_planar_suite"),
}


def test_lazy_namespace_keeps_every_exported_name():
    import isocomb

    exported = {name: module for module, names in EXPORTED.items() for name in names}
    assert sorted(isocomb.__all__) == sorted(exported)
    listed = dir(isocomb)
    for name, module in exported.items():
        assert getattr(isocomb, name) is getattr(importlib.import_module(f"isocomb.{module}"), name), name
        assert name in listed, name
    namespace = {}
    exec("from isocomb import *", namespace)
    assert {name: namespace[name] for name in exported} == {
        name: getattr(isocomb, name) for name in exported}
    assert isocomb.__version__ == "0.1.0" and "__version__" in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        isocomb.no_such_name
