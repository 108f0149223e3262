"""Every function in `src/sdcps/` is reached by a scenario, or listed.

One subprocess starts a call tracer before it imports `sdcps`, then drives
the CLI over every fixture and golden scenario (`run --trace-hash`,
`validate`, `twin-compare`), one `sweep`, and the bad inputs of
`tests/test_harness.py`: malformed JSON, an oversubscribed slice and a
usage error. It then runs the benchmark harness over both golden instances,
one of them rehearsing, as `tests/test_benchmark_contract.py` does. A
function is reached when its code object ran, matched by file, first line
(that of its first decorator, if any) and name.

A function that nothing reaches is either deleted or listed in
`LIBRARY_ONLY` with the reason it stays. A listed function that is reached,
or no longer exists, fails too, so the table only shrinks honestly.

Run as a script (`python tests/test_reach.py OUT_DIR`), this file makes
that traced run and writes the reached functions to `OUT_DIR/reached.json`,
creating `OUT_DIR` if it does not exist.
With `--lines` it also writes the statements no run executed to `OUT_DIR/unreached_lines.txt`.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sdcps"
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_INSTANCES = {"federated-admission-2-0": False, "twin-rehearsal-2-0": True}  # -> rehearse

# function -> why it stays although no scenario reaches it
LIBRARY_ONLY = {
    "topology.Topology.shortest_path":
        "no caller in src/; perfbench/harness.py traces it by name",
    "topology.Topology.has_link":
        "checks a reroute path; no document can ask for a reroute yet",
    "flow_engine.FlowEngine.reroute":
        "enacts a reroute decision; no document can ask for one yet",
    "sandbox.Decision.reroute":
        "builds a reroute decision; no document can ask for one yet",
    "sandbox.Decision.set_slice":
        "builds a slice decision; no document can ask for one yet",
    "topology.Health.congested":
        "library constructor; documents build Health in parse_health",
    "topology.Health.failed":
        "library constructor; documents build Health in parse_health",
    "topology.Health.malicious":
        "library constructor; documents build Health in parse_health",
}


def functions():
    """'module.Qual.name' -> (file, first line, name) for every def in the
    package, nested ones included."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    assert name not in found, f"{name} is defined twice"
                    found[name] = (path.name, first, child.name)
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path)
    return found


def reached_functions(out_dir: Path) -> set:
    """(file, first line, name) of every package function the traced run reached."""
    proc = subprocess.run([sys.executable, __file__, str(out_dir)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {tuple(k) for k in json.loads((out_dir / "reached.json").read_text())}


def unreached_statements(ran: set) -> list:
    """'file:line: statement' per package statement whose lines (a compound's header) never ran."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        rows = path.read_text().splitlines()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.stmt) and not (  # a docstring runs no code
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                last = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
                if not any((str(path), n) in ran for n in range(first, max(first, last) + 1)):
                    out.append((path.name, node.lineno, rows[node.lineno - 1].strip()))
    return [f"{name}:{line}: {text}\n" for name, line, text in sorted(out)]


def drive(out_dir: Path, lines: bool = False) -> None:
    """Trace every scenario the repository ships through the CLI and the
    benchmark harness; write the reached package functions as JSON."""
    out_dir.mkdir(parents=True, exist_ok=True)
    codes, ran = set(), set()

    def tracer(frame, event, arg):  # 'call' events, and with `lines` the package's line events
        codes.add(frame.f_code)
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return tracer if lines and frame.f_code.co_filename.startswith(str(PACKAGE)) else None

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.settrace(tracer)
    from sdcps.cli import main

    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    scenarios = sorted(FIXTURES.glob("*.json")) + [GOLDEN / f"{n}.json" for n in GOLDEN_INSTANCES]
    metrics = str(out_dir / "metrics.jsonl")
    runs = [(["run", str(p), "--trace-hash", "--out", metrics], 0) for p in scenarios]
    runs += [(["validate", str(p)], 0) for p in scenarios]
    runs += [(["twin-compare", str(p)], 0) for p in scenarios]
    runs.append((["sweep", str(FIXTURES / "minimal.json"), "--instances", "1,2",
                  "--out", str(out_dir / "sweep.csv")], 0))
    oversubscribed = json.loads((FIXTURES / "qos_contention.json").read_text())
    oversubscribed["tenants"][0]["share"] = 3  # 3 + 1 > capacity 3
    for name, text in (("malformed", "{\n  broken\n}"),
                       ("oversubscribed", json.dumps(oversubscribed))):
        (out_dir / f"{name}.json").write_text(text)
        runs.append((["validate", str(out_dir / f"{name}.json")], 1))
    runs.append((["no-such-command"], 1))
    for argv, code in runs:
        assert exit_code(argv) == code, argv

    import harness

    for name, rehearse in GOLDEN_INSTANCES.items():
        scenario, world, _ = harness.set_up((GOLDEN / f"{name}.json").read_text())
        harness.run_instance(harness.PassResult(), name, rehearse, scenario, world)
    sys.settrace(None)

    package = str(PACKAGE)
    reached = sorted({(Path(c.co_filename).name, c.co_firstlineno, c.co_name)
                      for c in codes if str(Path(c.co_filename).parent) == package})
    (out_dir / "reached.json").write_text(json.dumps(reached))
    if lines:
        (out_dir / "unreached_lines.txt").write_text("".join(unreached_statements(ran)))


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    return reached_functions(tmp_path_factory.mktemp("reach"))


def test_every_function_is_reached_or_library_only(reached):
    dark = sorted(name for name, key in functions().items()
                  if key not in reached and name not in LIBRARY_ONLY)
    assert dark == [], "reached by no scenario: delete it, or list it in LIBRARY_ONLY"


def test_library_only_lists_only_unreached_functions(reached):
    defs = functions()
    stale = sorted(name for name in LIBRARY_ONLY
                   if name not in defs or defs[name] in reached)
    assert stale == [], "reached or gone: take it off LIBRARY_ONLY"


if __name__ == "__main__":
    drive(Path(sys.argv[1]), lines="--lines" in sys.argv[2:])
