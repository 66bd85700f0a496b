#!/usr/bin/env python3
"""Fingerprint the outputs of a fixed set of CLI commands.

Each command runs in-process through `cli.main` with a fresh `--out`
directory.  One line per command gives its exit code and the sha256 of its
stdout, then one line per output file: the sha256 of a JSON report with its
timestamp stripped, or of a CSV trace as written.  Run it on two checkouts
and diff the outputs to check that a change keeps every byte.

Usage, from the repository root:
    PYTHONPATH=src python scripts/byte_identity.py > fingerprints.txt
"""

import contextlib
import hashlib
import io
import os
import tempfile

from pinchflow import cli, reports

FLOW = "--a 2 --b 1 --n-nodes 101 --stop-fraction 0.1"
COMMANDS = [
    "sweep --config perfbench/sweep_coarse.json --workers 1",
    f"flow --family gauss_power --alpha 1 {FLOW}",
    f"flow --family mean_power --alpha 1.5 {FLOW}",
    f"flow --family norm_power --alpha 1 {FLOW}",
    f"flow --family sum_power --alpha 2.5 {FLOW}",
    "flow --family gauss_power --alpha 1 --a 1 --b 1 --n-nodes 33"
    " --stop-fraction 0.2",
    "flow --family mean_power --alpha 1 --a 1 --b 1 --n-nodes 33"
    " --stop-fraction 0.2",
    "flow --family norm_power --alpha 1 --a 1 --b 1 --n-nodes 33"
    " --stop-fraction 0.2",
    "flow --family sum_power --alpha 2 --a 1 --b 1 --n-nodes 33"
    " --stop-fraction 0.2",
    "flow --family norm_power --alpha 2 --a 2 --b 1 --n-nodes 201"
    " --max-steps 3000 --record-every 1",
    "q-sign --family gauss_power --alpha 1.5",
    "q-sign --family gauss_power --alpha 0.4",
    "q-sign --family gauss_power --alpha 2.1",
    "q-sign --family gauss_power --alpha 3.0",
    "q-sign --family mean_power --alpha 2.5 --t-max 1e4",
    "q-sign --family mean_power --alpha 6 --t-max 1e4",
    "q-sign --family norm_power --alpha 8 --t-max 1e4",
    "q-sign --family norm_power --alpha 8.15625",
    "q-sign --family sum_power --alpha 3 --t-max 1e3",
    "q-sign --family sum_power --alpha 0.38",
    "q-sign --family sum_power --alpha 0.3",
    "q-sign --family sum_power --alpha 0.375",
    "q-sign --family sum_power --alpha 0.390625",
    "threshold --family gauss_power --alpha-lo 1.5 --alpha-hi 3 --tol 0.05",
    "threshold --family gauss_power --alpha-lo 1.5 --alpha-hi 3",
    "threshold --family mean_power --alpha-lo 4 --alpha-hi 6",
    "threshold --family norm_power --alpha-lo 7 --alpha-hi 9",
    "q-sign --family mean_power --alpha 1",
    "q-sign --family norm_power --alpha 2",
    "q-sign --family mean_power --alpha 5.171875",
    "q-sign --family mean_power --alpha 5.17578125",
    "verify-identities --draws 2000 --seed 0",
    "verify-identities --draws 2000 --seed 7",
    "verify-identities --seed 134",
]


def sha(data):
    return hashlib.sha256(data.encode()).hexdigest()


def main():
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as out:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([*command.split(), "--out", out])
            print(command, f"exit={code}", f"stdout={sha(stdout.getvalue())}")
            for root, _, files in sorted(os.walk(out)):
                for name in sorted(files):
                    path = os.path.join(root, name)
                    with open(path) as fh:
                        text = fh.read()
                    if name.endswith(".json"):
                        text = reports.strip_timestamp(text)
                    print("   ", os.path.relpath(path, out), sha(text))


if __name__ == "__main__":
    main()
