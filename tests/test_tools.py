import pathlib
import shutil
import subprocess
import sys

from conftest import PACKAGE_ROOT

IDENTITY = pathlib.Path(__file__).resolve().parent.parent / "tools" / "cli_identity.py"


def identity(tmp_path, old_src, new_src, texts):
    configs = []
    for k, text in enumerate(texts):
        configs.append(tmp_path / f"run{k}.conf")
        configs[-1].write_text(text)
    return subprocess.run([sys.executable, str(IDENTITY), old_src, new_src, *map(str, configs)],
                          capture_output=True, text=True, cwd=tmp_path)


def test_cli_identity_finds_no_difference_between_a_tree_and_itself(tmp_path):
    proc = identity(tmp_path, PACKAGE_ROOT, PACKAGE_ROOT, [
        "channel = squeezing\nr = 0.5\nnbar = 100\ntheta = 0.4\n",
        "channel = phase\nr = 0.5\nnbar = 1e4\n[sweep]\ntheta = values 0.1 0.4\n",
        "[gw]\nn0 = 1e6\nr_original = 4.2\n[sweep]\ntheta_sq = values -0.01 0.05\n"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 of 36 calls differ\n", "")


def test_cli_identity_reports_each_differing_call(tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(pathlib.Path(PACKAGE_ROOT) / "pumpedsu11", changed / "pumpedsu11",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "pumpedsu11" / "cli.py"
    cli.write_text(cli.read_text().replace('print(f"wrote {path}', 'print(f"saved {path}'))
    proc = identity(tmp_path, PACKAGE_ROOT, str(changed),
                    ["channel = squeezing\nr = 0.5\nnbar = 100\n"])
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    # qfi, sensitivity and sweep each write both formats; gw-compare refuses the file
    assert lines[-1] == "6 of 12 calls differ"
    config = tmp_path / "run0.conf"
    assert lines[:2] == [f"qfi --config {config} --out out.csv --format csv",
                         "  stdout: line 3: 'wrote out.csv (1 rows)\\n' -> "
                         "'saved out.csv (1 rows)\\n'"]
