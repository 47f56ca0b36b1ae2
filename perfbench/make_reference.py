#!/usr/bin/env python3
"""Recompute perfbench/reference.json from the program in ./src.

    python3 perfbench/make_reference.py

Run it only on a commit whose answers are known to be right: the digests
it writes are what every later run is checked against.
"""

import json
import os
import tempfile

import run
import workloads

SEEDS = {"default": 1, "confirm": 2}


def main():
    cx = run.load_program()
    digests = {}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for size, table in workloads.WORKLOADS.items():
        digests[size] = {}
        for name, wl in table.items():
            seeded = hasattr(wl, "reference_digest")
            got = {}
            for seed in SEEDS.values() if seeded else (1,):
                inputs = wl.inputs(seed)
                with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
                    rep = run.run_once(cx, wl, inputs, workdir)
                if rep.failed or (seeded and rep.digest != wl.reference_digest(inputs)):
                    raise SystemExit(f"{name} ({size}, seed {seed}) failed its checks")
                got[str(seed)] = rep.digest
            digests[size][name] = got if seeded else got["1"]
            print(size, name, digests[size][name])
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump({"seeds": SEEDS, "digests": digests}, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
