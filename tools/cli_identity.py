"""Compare the command line of two source trees, call by call.

    python tools/cli_identity.py OLD_SRC NEW_SRC CONF...

OLD_SRC and NEW_SRC are directories that hold a ``pumpedsu11`` package (a
checkout's ``src``).  Every config file goes through ``qfi``,
``sensitivity``, ``sweep`` and ``gw-compare`` three times: without
``--out``, with ``--out`` in CSV and with ``--out`` in JSON.  Each tree runs
all of its calls in-process through ``cli.main``, in one subprocess of its
own whose working directory is an empty scratch directory, so the relative
``--out`` paths and the ``wrote`` lines read the same for both trees.

Prints each call whose exit code, stdout, stderr or written files differ,
with the first line where they part, then the number of differing calls.
Exits 1 if any call differs, 0 if none does.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

COMMANDS = ("qfi", "sensitivity", "sweep", "gw-compare")
OUTPUTS = ((), ("--out", "out.csv", "--format", "csv"), ("--out", "out.json", "--format", "json"))
FIELDS = ("exit code", "stdout", "stderr", "files")

# Runs the argv lists read from stdin through one process's cli.main and
# writes [exit code, stdout, stderr, {file: text}] for each as JSON.
CHILD = r"""
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from pumpedsu11 import cli
results = []
for argv in json.load(sys.stdin):
    for name in os.listdir("."):
        os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is a result to compare too
            code = f"raised {type(exc).__name__}: {exc}"
    files = {}
    for name in sorted(os.listdir(".")):
        with open(name, encoding="utf-8", newline="") as fh:
            files[name] = fh.read()
    results.append([code, out.getvalue(), err.getvalue(), files])
json.dump(results, sys.stdout)
"""


def calls(configs) -> list:
    return [[command, "--config", os.path.abspath(config), *out]
            for config in configs for command in COMMANDS for out in OUTPUTS]


def run_tree(src: str, argvs: list) -> list:
    """The results of ``argvs`` under the package in ``src``, one per call."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "PUMPEDSU11_OUTDIR")}
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run([sys.executable, "-c", CHILD, os.path.abspath(src)],
                              input=json.dumps(argvs), capture_output=True, text=True,
                              cwd=workdir, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: the child process failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def first_difference(old, new) -> str:
    """Where two results of one field part: the first differing line of a text."""
    if isinstance(old, dict):
        for name in sorted(set(old) | set(new)):
            if name not in old or name not in new:
                return f"{name} written by {'new' if name in new else 'old'} only"
            if old[name] != new[name]:
                return f"{name}: " + first_difference(old[name], new[name])
    if not isinstance(old, str) or not isinstance(new, str):
        return f"{old!r} -> {new!r}"
    old_lines, new_lines = old.splitlines(True), new.splitlines(True)
    for i in range(max(len(old_lines), len(new_lines))):
        a = old_lines[i] if i < len(old_lines) else "<end>"
        b = new_lines[i] if i < len(new_lines) else "<end>"
        if a != b:
            return f"line {i + 1}: {a!r} -> {b!r}"
    return "same lines"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("configs", nargs="+", metavar="CONF")
    args = parser.parse_args(argv)
    argvs = calls(args.configs)
    old, new = run_tree(args.old_src, argvs), run_tree(args.new_src, argvs)
    differing = 0
    for argv, a, b in zip(argvs, old, new):
        if a == b:
            continue
        differing += 1
        print(" ".join(argv))
        for field, x, y in zip(FIELDS, a, b):
            if x != y:
                print(f"  {field}: {first_difference(x, y)}")
    print(f"{differing} of {len(argvs)} calls differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
