"""Correctness fingerprint: the sweep CSV hash plus spectra on fixed fibers.

    python3 perfbench/fingerprint.py

Prints one JSON object: the sha256 of the CSV that
``latticebound sweep --lambda-range=-12:12 --mu-range=-12:12 --step 0.5``
writes at gamma = 1, and the bound states (12 significant digits, repeated
by multiplicity) at a fixed set of (gamma, lam, mu, K), with a sha256 over
them.  Two commits that give the same counts and positions print the same
object.  It is a reference for performance changes, not a gate of the
benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from latticebound import ModelParams, TorusPoint, atlas, cli  # noqa: E402
from latticebound.spectrum import spectrum_general, spectrum_k0  # noqa: E402

# (gamma, lam, mu, K1, K2); K = 0 goes through the factored solver
FIBERS = (
    (1.0, 1.0, 10.0, 0.0, 0.0),
    (1.0, 6.0, 10.0, 0.0, 0.0),
    (1.0, -1.0, 0.0, 0.0, 0.0),
    (1.0, 0.0, -12.0, 0.0, 0.0),
    (0.5, 3.75, 9.0, 0.0, 0.0),
    (2.0, -7.0, 4.0, 0.0, 0.0),
    (1.0, 6.0, 10.0, 1.0, 0.5),
    (1.0, 0.0, -12.0, 0.3, 1.1),
    (0.5, -4.0, 8.0, 2.0, -1.0),
    (2.0, 10.0, -3.0, -2.5, 0.7),
)


def _fmt(z: float) -> str:
    return format(z, ".12g")


def main() -> int:
    rows = atlas.sweep((-12.0, 12.0), (-12.0, 12.0), 0.5, gamma=1.0, workers=1)
    buf = io.StringIO()
    cli.emit_csv(rows, buf)
    csv_sha = hashlib.sha256(buf.getvalue().encode()).hexdigest()

    spectra = []
    for gamma, lam, mu, k1, k2 in FIBERS:
        params = ModelParams(gamma, lam, mu)
        rep = (spectrum_k0(params) if (k1, k2) == (0.0, 0.0)
               else spectrum_general(TorusPoint(k1, k2), params))
        spectra.append({
            "fiber": [gamma, lam, mu, k1, k2],
            "below": [_fmt(ev.z) for ev in rep.below for _ in range(ev.multiplicity)],
            "above": [_fmt(ev.z) for ev in rep.above for _ in range(ev.multiplicity)],
        })
    spectra_sha = hashlib.sha256(json.dumps(spectra).encode()).hexdigest()
    print(json.dumps({"sweep_csv_sha256": csv_sha, "sweep_rows": len(rows),
                      "spectra_sha256": spectra_sha, "spectra": spectra},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
