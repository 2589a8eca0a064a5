"""Record the reproduce-paper reference files into perfbench/ref/.

Run from the repository root: ``python3 perfbench/record_refs.py``. Uses
``--workers 1``; criterion 11 makes the files identical for any worker
count. Re-record only when a change is meant to alter the paper's numbers.
"""
from __future__ import annotations

import gzip
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    out = HERE / "out" / "record-refs"
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "qfchub", "reproduce-paper", "--workers", "1",
                    "--out-dir", str(out)], check=True, env=env, cwd=ROOT)
    ref = HERE / "ref"
    ref.mkdir(exist_ok=True)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        with open(ref / f"{path.name}.gz", "wb") as raw, \
                gzip.GzipFile(path.name, "wb", 9, raw, mtime=0) as fh:
            fh.write(path.read_bytes())
        print(path.name)
    shutil.rmtree(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
