"""Run one fixed matrix of ``scnls`` commands on two source trees and compare the outputs.

Usage::

    python tools/same_outputs.py PARENT_TREE [CHANGE_TREE]

A tree is a directory with the package under ``src/scnls``: a checkout, or a
``git archive`` of a commit unpacked somewhere.  CHANGE_TREE defaults to the
checkout this script lives in.  Every command of ``MATRIX`` runs once per
tree, in a fresh interpreter with that tree's ``src`` on ``PYTHONPATH``
(``SCNLS_OUTPUT_DIR`` and ``SCNLS_WORKERS`` unset), on the same input
configs: the checkout's ``configs/`` with the keys the matrix changes,
written once to ``inputs/``.  A command runs in its own directory and writes
its outputs there (``--output-dir .``); its standard output goes to
``<name>.stdout`` beside it, and its standard error, which is not compared,
to ``<tree>.stderr/``.  Everything is written under ``.same_outputs/``
in the checkout, which is emptied first and is git-ignored.

The report gives each command's exit codes and, for each file either tree
wrote, whether the SHA-256 of the two copies match.  The exit status is 0
only when every exit code and every file is identical, else 1.  Standard
library and numpy only (numpy through the trees' own package).
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent

# (name, subcommand, shipped config, {section: {key: value}} changed in it,
# arguments after the config)
MATRIX = (
    ("simulate_soliton", "simulate", "soliton.ini", {}, []),
    ("simulate_stochastic_pair", "simulate", "stochastic_pair.ini", {}, []),
    ("simulate_collapse_2d", "simulate", "collapse_2d.ini", {}, []),
    ("simulate_snapshot", "simulate", "stochastic_pair.ini",
     {"time": {"T": "0.2"}, "run": {"snapshot_final": "true"}}, []),
    ("ensemble_workers_1", "ensemble", "stochastic_pair.ini", {"time": {"T": "0.2"}},
     ["--paths", "6", "--workers", "1"]),
    ("ensemble_workers_2", "ensemble", "stochastic_pair.ini", {"time": {"T": "0.2"}},
     ["--paths", "6", "--workers", "2"]),
    ("verify_soliton", "verify", "soliton.ini", {}, []),
    # T not a multiple of dt: each level runs its whole steps to the same horizon
    ("verify_soliton_T_0.0104", "verify", "soliton.ini", {"time": {"T": "0.0104"}}, []),
    ("verify_stochastic_pair", "verify", "stochastic_pair.ini",
     {"time": {"T": "0.25", "record_every": "1"}}, []),
    ("groundstate_soliton", "groundstate", "soliton.ini", {}, []),
    ("groundstate_collapse_2d", "groundstate", "collapse_2d.ini", {}, []),
    ("criterion_collapse_2d", "criterion", "collapse_2d.ini", {}, ["--tbar", "1.0"]),
)


def _variant(text: str, changes: dict) -> str:
    """The config ``text`` with the keys in ``changes`` set (sections added as needed)."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keep "T" and "L" as written
    parser.read_string(text)
    for section, values in changes.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, value in values.items():
            parser.set(section, key, value)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def _run(tree: Path, inputs: Path, out: Path, logs: Path, matrix) -> dict:
    """Run ``matrix`` on ``tree`` under ``out``; the exit code of each command by name."""
    logs.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in ("SCNLS_OUTPUT_DIR", "SCNLS_WORKERS")}
    env["PYTHONPATH"] = str(tree / "src")
    codes = {}
    for name, command, _, _, extra in matrix:
        cwd = out / name
        cwd.mkdir(parents=True)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "scnls", command, str(inputs / f"{name}.ini"), *extra,
             "--output-dir", "."],
            cwd=cwd, env=env, capture_output=True)
        (out / f"{name}.stdout").write_bytes(done.stdout)
        # warnings name the tree's source files, so standard error is kept, not compared
        (logs / f"{name}.stderr").write_bytes(done.stderr)
        codes[name] = done.returncode
        print(f"  {tree}: {name} exit {done.returncode} "
              f"({time.perf_counter() - start:.2f} s)", flush=True)
    return codes


def _digests(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def compare(parent: Path, change: Path, matrix=MATRIX, work: Path | None = None) -> int:
    """Run ``matrix`` on both trees under ``work``, print the report, return 0 on identity."""
    work = CHECKOUT / ".same_outputs" if work is None else work
    if work.exists():
        shutil.rmtree(work)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    for name, _, config, changes, _ in matrix:
        text = (CHECKOUT / "configs" / config).read_text(encoding="utf-8")
        (inputs / f"{name}.ini").write_text(_variant(text, changes), encoding="utf-8")

    codes = {label: _run(tree.resolve(), inputs, work / label, work / f"{label}.stderr", matrix)
             for label, tree in (("parent", parent), ("change", change))}
    files = {label: _digests(work / label) for label in codes}

    same = True
    for name, *_ in matrix:
        a, b = codes["parent"][name], codes["change"][name]
        same &= a == b
        print(f"{'same' if a == b else 'DIFFERS':8} exit codes of {name}: {a} / {b}")
    for path in sorted(files["parent"].keys() | files["change"].keys()):
        a, b = files["parent"].get(path), files["change"].get(path)
        verdict = ("same" if a == b else "DIFFERS" if a and b
                   else "only in parent" if a else "only in change")
        same &= a == b
        print(f"{verdict:8} {path}")
    count = len(files["parent"].keys() | files["change"].keys())
    print(f"{len(matrix)} commands, {count} files: "
          + ("all identical" if same else "NOT identical"))
    return 0 if same else 1


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: python tools/same_outputs.py PARENT_TREE [CHANGE_TREE]", file=sys.stderr)
        return 2
    trees = [Path(arg) for arg in argv] + [CHECKOUT] * (2 - len(argv))
    for tree in trees:
        if not (tree / "src" / "scnls").is_dir():
            print(f"{tree} has no src/scnls", file=sys.stderr)
            return 2
    return compare(*trees)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
