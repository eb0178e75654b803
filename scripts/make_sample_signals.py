#!/usr/bin/env python3
"""Regenerate the bundled sample signals in data/.

Produces:
  packet00.json  unit Gaussian packet centered at the phase-space origin
  two_peak.json  two-packet superposition with complex weights
  chirp.csv      Gaussian-windowed linear chirp, sampled on a uniform grid

JSON labels are [P, Q] pairs (momentum, position); weights are [re, im].
The JSON files are reproduced byte for byte. chirp.csv is reproduced only up
to the platform's exp/sin/cos rounding: with numpy 2.4.6 one value (line 318)
differs from the committed file in its last digit.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from holofrft import CoherentLabel, cli, closedform

CHIRP_RATE = 1.2
CHIRP_EXTENT = 10.0
CHIRP_POINTS = 801


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--out-dir", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data"),
        help="directory to write into (default: the repository data/)")
    ns = parser.parse_args(argv)
    os.makedirs(ns.out_dir, exist_ok=True)

    def dump(name: str, obj: dict) -> None:
        path = os.path.join(ns.out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")

    dump("packet00.json", {"weights": [[1.0, 0.0]], "labels": [[0.0, 0.0]]})
    dump("two_peak.json", {"weights": [[0.8, 0.0], [0.0, 0.6]],
                           "labels": [[0.5, 1.2], [-0.4, -0.9]]})

    xs = np.linspace(-CHIRP_EXTENT, CHIRP_EXTENT, CHIRP_POINTS)
    window = closedform.coherent_state(xs, CoherentLabel(0.0, 0.0))
    values = window * np.exp(0.5j * CHIRP_RATE * xs * xs)
    chirp_path = os.path.join(ns.out_dir, "chirp.csv")
    cli.write_signal(chirp_path, xs, values)
    print(f"wrote {chirp_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
