#!/usr/bin/env python3
"""Run every pipeline phase over the bundled demo inputs.

Regenerates the sampled demo inputs if data/synthetic.csv is missing, then
runs select through report with the demo config data/pipeline.ini. Pass
--seed to try a different train/test split.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bnpipeline.cli import _COMMANDS, main as pipeline


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, help="override the split seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args()

    root = Path(__file__).resolve().parents[1]
    os.chdir(root)  # the demo config uses repo-relative paths
    config = root / "data" / "pipeline.ini"
    if not (root / "data" / "synthetic.csv").is_file():
        subprocess.run([sys.executable, str(root / "scripts" / "make_synthetic.py")], check=True)

    for phase in _COMMANDS:
        argv = [phase, "--config", str(config)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        if args.out is not None:
            argv += ["--out", args.out]
        print(f"== {phase}")
        rc = pipeline(argv)
        if rc != 0:
            print(f"{phase} failed with exit code {rc}", file=sys.stderr)
            return rc
    out = Path(args.out) if args.out else Path("out")
    print(f"done; see {out / 'report.md'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
