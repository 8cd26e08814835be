"""The package's modules form one import order, and `derive` loads only the
replica's modules.

The replica re-derives the chain from L1 data alone, so nothing it runs may
reach pool, quarantine, detection or sequencer code. `LAYERS` is the order:
a module may import only modules of an earlier layer. The static check reads
every module's source with `ast`; the CLI alone may import later layers, and
only inside its commands. The dynamic check runs `derive` in a fresh
interpreter and lists what it loaded."""
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import rollupsim.core
import rollupsim.sequencer
from rollupsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rollupsim"

# `__init__` comes first: importing the package imports none of its modules.
LAYERS = (
    {"__init__"}, {"core"}, {"vm"}, {"l1da"}, {"derivation", "lines"}, {"detection"}, {"mempool"}, {"quarantine"},
    {"sequencer"}, {"formats"}, {"cli"}, {"__main__"},
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}
REPLICA = {"rollupsim", "rollupsim.cli", "rollupsim.core", "rollupsim.vm", "rollupsim.l1da", "rollupsim.derivation",
           "rollupsim.lines"}


def imported(source, commands_exempt=False):
    """(line, module) for each package module `source` imports; with
    `commands_exempt`, imports inside functions are left out."""
    tree = ast.parse(source)
    nodes = ast.walk(tree)
    if commands_exempt:
        nodes = (node for stmt in tree.body if not isinstance(stmt, ast.FunctionDef) for node in ast.walk(stmt))
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and (module == "rollupsim" or module.startswith("rollupsim.")):
                module = module[len("rollupsim"):].lstrip(".")
            elif node.level == 0:
                continue
            if module:
                yield node.lineno, module.split(".")[0]
            else:  # `from . import vm`
                yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (
                (node.lineno, alias.name.split(".")[1]) for alias in node.names if alias.name.startswith("rollupsim.")
            )


def violations(name, source):
    return [
        f"{name}.py:{lineno} imports {module}" for lineno, module in imported(source, commands_exempt=name == "cli")
        if RANK.get(module, len(LAYERS)) >= RANK[name]
    ]


class TestLayering:
    def test_every_module_has_a_layer(self):
        assert {path.stem for path in PACKAGE.glob("*.py")} == set(RANK)

    def test_each_module_imports_only_earlier_layers(self):
        found = [v for path in sorted(PACKAGE.glob("*.py")) for v in violations(path.stem, path.read_text("utf-8"))]
        assert not found

    def test_the_check_sees_every_import_form(self):
        source = (
            "from .sequencer import run\nfrom . import mempool\nimport rollupsim.quarantine\n"
            "from rollupsim.detection import hybrid_detect\ndef f():\n    from .formats import parse_report\n"
        )
        assert [module for _line, module in imported(source)] == [
            "sequencer", "mempool", "quarantine", "detection", "formats"
        ]
        assert len(violations("lines", source)) == 5
        assert violations("cli", "def cmd_run(args):\n    from . import __main__\n") == []  # a command's own imports
        assert violations("cli", "from . import __main__\n") == ["cli.py:1 imports __main__"]
        assert violations("core", "from .vm import make_state\n") == ["core.py:1 imports vm"]
        assert violations("__init__", "from .core import tx_hash\n") == ["__init__.py:1 imports core"]


PROBE = """
import json, sys
import rollupsim
bare = sorted(m for m in sys.modules if m.split(".")[0] == "rollupsim")
import rollupsim.cli
code = rollupsim.cli.main(["derive", "--l1", sys.argv[1]])
print(json.dumps([code, bare, sorted(m for m in sys.modules if m.split(".")[0] == "rollupsim")]))
"""


class TestReplicaImports:
    def test_derive_loads_only_replica_modules(self, tmp_path):
        history = tmp_path / "kitchen_sink.l1"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([
                "run", "--scenario", str(ROOT / "scenarios" / "kitchen_sink.scn"), "--report",
                str(tmp_path / "kitchen_sink.report"), "--l1-out", str(history),
            ])
        assert code == 0
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(history)], env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        code, bare, loaded = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        assert bare == ["rollupsim"]
        assert set(loaded) == REPLICA

    def test_scenario_error_is_defined_once(self):
        assert rollupsim.sequencer.ScenarioError is rollupsim.core.ScenarioError
