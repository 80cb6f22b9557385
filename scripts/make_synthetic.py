#!/usr/bin/env python3
"""Regenerate the sampled demo inputs: dataset, schema, ground-truth structures.

Writes them under data/ (relative to the repository root), beside the
hand-written demo config data/pipeline.ini, which this leaves as it is. The
dataset is sampled from the declared benchmark network, so the demo pipeline
can be checked against a known answer.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bnpipeline.bayesnet import write_structure
from bnpipeline.dataset import write_csv, write_schema
from bnpipeline.simulate import benchmark_alternative, benchmark_network, sample_dataset

N_RECORDS = 1000
DATA_SEED = 11


def main() -> None:
    root = Path(__file__).resolve().parents[1]
    data_dir = root / "data"
    data_dir.mkdir(exist_ok=True)
    dag, schema, tables = benchmark_network()
    data = sample_dataset(dag, schema, tables, N_RECORDS, seed=DATA_SEED)
    write_csv(data, data_dir / "synthetic.csv")
    write_schema(schema, data_dir / "synthetic.schema")
    write_structure(dag, data_dir / "truth.structure")
    write_structure(benchmark_alternative(dag), data_dir / "alt.structure")
    print(f"wrote demo inputs under {data_dir}")


if __name__ == "__main__":
    main()
