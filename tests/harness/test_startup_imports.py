"""Start-up tripwire: a campaign process imports only what it runs.

Every process of a paper campaign (each ``python -m repro campaign`` or
``figures`` run, each perfbench pass) pays for its imports before any
work, so a module that no campaign runs costs all of them.  Each check
runs in a fresh interpreter, since this one has imported everything.
The pooled engine's lazy ``multiprocessing`` import stays covered by the
``CampaignEngine(workers=2|3)`` tests.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
PASSES = SRC.parent / "perfbench" / "passes.py"

#: modules that only the service, the manifest layer or a pooled engine
#: runs
NOT_AT_STARTUP = {
    "asyncio",
    "multiprocessing",
    "repro.service.server",
    "repro.service.admission",
    "repro.service.routes",
    "repro.harness.manifest",
    "repro.harness.orchestrator",
}


def loaded_modules(script: str) -> tuple[list[str], set[str]]:
    """Run ``script`` in a fresh interpreter; its stdout lines, and the
    names in its ``sys.modules`` afterwards."""
    epilogue = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", script + epilogue],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    *lines, modules = out.stdout.splitlines()
    return lines, set(json.loads(modules))


def repro_imports(path: Path) -> str:
    """The module-level statements of ``path`` that import from
    ``repro``."""
    def from_repro(node: ast.stmt) -> bool:
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            return False
        return any(name.split(".")[0] == "repro" for name in names)

    tree = ast.parse(path.read_text())
    return "\n".join(ast.unparse(node) for node in tree.body
                     if from_repro(node))


def test_a_perfbench_pass_imports_no_server_manifest_or_pool():
    statements = repro_imports(PASSES)
    assert "build_grid" in statements, statements
    _, loaded = loaded_modules(statements)
    assert {"repro.harness.campaign", "repro.service.wire"} <= loaded
    assert sorted(loaded & NOT_AT_STARTUP) == []


def test_campaign_verb_imports_no_server_manifest_or_pool(tmp_path):
    argv = ["campaign", "--scheme", "lockstep", "--benchmark", "stream",
            "--trials", "3", "--cache-dir", str(tmp_path / "cache"),
            "--json"]
    lines, loaded = loaded_modules(
        f"from repro.__main__ import main\nassert main({argv!r}) == 0")
    assert len(json.loads(lines[-1])["records"]) == 3
    assert {"repro.harness.campaign", "repro.service.wire"} <= loaded
    assert sorted(loaded & NOT_AT_STARTUP) == []
