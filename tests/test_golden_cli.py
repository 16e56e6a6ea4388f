"""Golden CLI outputs: stdout and exit code of a fixed command list over corpus/.

Every command runs from the repository root with paths relative to it, and
its stdout must match ``tests/golden/<slug>.out`` byte for byte.  The first
line of each expected file is ``exit <code>``; the rest is stdout.  Stderr is
not compared.  Regenerate the expected files (only when an output change is
intended) with:

    PYTHONPATH=src python tests/test_golden_cli.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from pandora_hedge.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SINGLE = ("weitzman", "local-hedging", "commit-enum", "inspect-all", "never-inspect")
COMB = ("frugal-oi", "local-hedging")
MC = ("--trials", "2000", "--seed", "7", "--trace", "3", "--json")


def _commands() -> list[tuple[str, ...]]:
    cmds = []
    for path in sorted((ROOT / "corpus").glob("*.json")):
        rel = f"corpus/{path.name}"
        policies = COMB if "model" in json.loads(path.read_text()) else SINGLE
        cmds.append(("analyze", rel))
        cmds.append(("bounds", rel))
        cmds.append(("bounds", rel, "--mc", "--budget", "2", "--trials", "2000", "--seed", "3", "--json"))
        for policy in policies:
            cmds.append(("simulate", rel, "--policy", policy) + MC)
            cmds.append(("simulate", rel, "--policy", policy, "--exact", "--json"))
        cmds.append(("verify", rel))
    # more trials than one MC_CHUNK
    for rel in ("corpus/golden_two_item.json", "corpus/matroid_rank2.json"):
        cmds.append(("simulate", rel, "--policy", "local-hedging", "--trials", "5000", "--seed", "7", "--json"))
    cmds.append(("verify", "--corpus", "corpus"))
    cmds.append(("verify", "--corpus", "corpus", "--budget", "0"))
    cmds.append(("verify", "--corpus", "corpus", "--budget", "10"))
    cmds.append(("verify", "--corpus", "corpus", "--budget", "10", "--json"))
    cmds.append(("verify", "--random", "20", "--seed", "42"))
    cmds.append(("verify", "--random", "20", "--seed", "42", "--json"))
    return cmds


COMMANDS = _commands()


def _slug(argv) -> str:
    text = "_".join(a.replace("corpus/", "").replace(".json", "").lstrip("-") for a in argv)
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text)


def _run(argv) -> str:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return f"exit {code}\n" + out.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=_slug)
def test_golden_output(argv, monkeypatch):
    monkeypatch.delenv("PANDORA_BUDGET", raising=False)
    expected = (GOLDEN_DIR / f"{_slug(argv)}.out").read_text()
    assert _run(argv) == expected


def test_command_slugs_are_unique():
    assert len({_slug(a) for a in COMMANDS}) == len(COMMANDS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden_cli.py --regenerate")
    os.environ.pop("PANDORA_BUDGET", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.out"):
        stale.unlink()
    for argv in COMMANDS:
        (GOLDEN_DIR / f"{_slug(argv)}.out").write_text(_run(argv))
    print(f"wrote {len(COMMANDS)} expected outputs to {GOLDEN_DIR.relative_to(ROOT)}")
