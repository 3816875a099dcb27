"""The pin module: its runner fails where it must, and no digest lives elsewhere."""

import ast
import hashlib
import re
import resource
from pathlib import Path

from qgen.cli import EXIT_OK, run as qgen_run
import pins
from pins import Pin

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
NO_OUTPUT = hashlib.sha256(b"").hexdigest()


def test_perfbench_golden_copy_is_the_golden_pin():
    # perfbench keeps its own copy of the golden digest; editing that
    # file is a benchmark change, so tier-1 reads it without importing it
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    copies = [node.value.value for node in ast.walk(tree)
              if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "GOLDEN_SHA256" for t in node.targets)]
    assert copies == [pins.GOLDEN.sha256]


def test_no_digest_outside_the_pin_module():
    paths = [p for p in sorted((ROOT / "tests").glob("*.py")) if p.name != "pins.py"]
    paths.append(ROOT / ".github" / "workflows" / "ci.yml")
    literal = re.compile(r"\b[0-9a-fA-F]{64}\b")
    found = [f"{path.name}: {match}" for path in paths
             for match in literal.findall(path.read_text(encoding="utf-8"))]
    assert found == []


def test_runner_fails_each_broken_pin(capsys, monkeypatch):
    # a cheap pin whose digest comes from an in-process run holds cold;
    # a wrong digest, a nonzero exit (table --alpha 0 exits 2 and prints
    # nothing on stdout) and a 1 MB bound each fail it alone
    monkeypatch.setenv("PYTHONPATH", SRC)
    command = "bernstein --n 1 --format json"
    assert qgen_run(command.split(" ")) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    real = tuple(pins.PINS)
    assert pins.run([Pin(command, digest)]) == 0
    line, summary = capsys.readouterr().out.splitlines()
    assert line.startswith("ok") and line.endswith(f"MB  {command}")
    assert summary == "1 of 1 pins hold"
    for pin, failure in [
        (Pin(command, NO_OUTPUT), f"sha256 {digest}"),
        (Pin("table --alpha 0", NO_OUTPUT), "exit 2"),
        (Pin(command, digest, max_rss_mb=1), "peak over 1 MB"),
    ]:
        assert pins.run([pin]) == 1
        line, summary = capsys.readouterr().out.splitlines()
        assert line.startswith("FAIL") and line.endswith(f"{pin.command}  ({failure})")
        assert summary == "0 of 1 pins hold"
    assert pins.PINS == real


def test_peak_is_the_pins_own(capsys, monkeypatch):
    # a child's ru_maxrss starts at the high-water mark of the process
    # that spawns it; the runner's trampoline keeps this process's 64 MB
    # or more out of a small pin's peak (16-20 MB on its own)
    monkeypatch.setenv("PYTHONPATH", SRC)
    command = "bernstein --n 1 --format json"
    assert qgen_run(command.split(" ")) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    block = b"\x01" * 64_000_000
    del block
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6 >= 64
    peak_mb, failures = pins.check(Pin(command, digest))
    assert failures == []
    assert 5 < peak_mb < 40
