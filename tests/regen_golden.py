"""Rewrite the golden CLI outputs that ``test_cli.py::TestReadmeExamples`` pins.

Usage, from the repository root: ``PYTHONPATH=src python tests/regen_golden.py`` (no options).

It runs ``COMMANDS`` in a temporary directory, then replaces ``tests/data/golden`` with their outputs and writes
``tests/data/golden/SHA256SUMS`` (``sha256sum`` format, so ``sha256sum -c SHA256SUMS`` checks it there) from the
same bytes.  On an unchanged tree it changes no file.
"""

import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

from sqwbench.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
SUMS = GOLDEN / "SHA256SUMS"

# the five commands of the README's CLI section, as written there, then three more
COMMANDS = [
    "walk --path 133 --theta pi/3 --steps 32 --start 66 --out runs/line --svg",
    "walk --lattice 3,3 --steps 8 --out runs/lattice",
    "walk --graph mygraph.json --theta 0.9 --steps 5 --out runs/custom",
    "circuit --sweep 24 --out runs/circuit",
    "schedule --path 5 --theta pi/3 --steps 1 --out runs/sched",
    "walk --lattice 7,5 --convention abstract --theta 0.9 --steps 9 --out runs/abstract",
    "walk --path 3 --theta=-0 --out runs/minus0",
    "schedule --lattice 100,100 --steps 5 --out runs/sched100",
]


def run_examples(directory: Path) -> list[str]:
    """Run ``COMMANDS`` in ``directory``, their outputs going to its ``runs``; the commands that exited non-zero.

    The working directory is ``directory`` meanwhile, because ``run.json`` records the graph file's path as given.
    """
    (directory / "mygraph.json").write_bytes((DATA / "graph_bipartite7.json").read_bytes())
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [command for command in COMMANDS if main(command.split()) != 0]
    finally:
        os.chdir(cwd)


def golden_digests() -> dict[str, str]:
    """Each golden file's sha256, by its path under ``tests/data/golden``, as ``SHA256SUMS`` lists it."""
    return {name: digest for digest, name in (line.split("  ", 1) for line in SUMS.read_text().splitlines())}


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        if failed := run_examples(Path(tmp)):
            sys.exit("failed: " + "; ".join(failed))
        runs = Path(tmp) / "runs"
        names = sorted(p.relative_to(runs).as_posix() for p in runs.rglob("*") if p.is_file())
        shutil.rmtree(GOLDEN)
        lines = []
        for name in names:
            data = (runs / name).read_bytes()
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN / name).write_bytes(data)
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}\n")
        SUMS.write_text("".join(lines))


if __name__ == "__main__":
    regenerate()
