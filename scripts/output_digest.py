#!/usr/bin/env python3
"""Hash the CLI outputs on the shipped configs, or compare two such runs.

A refactor that should not change any number is proven by identical
hashes before and after.  Each case runs ``flathump.cli.main`` in-process
and keeps, per case directory, every file the command wrote plus its
captured ``stdout.txt`` and ``exit_code.txt``:

    simulate_bump            simulate on configs/simulate_bump.cfg
    simulate_custom          simulate on configs/simulate_custom.cfg: the same
                             run with example-A given as expressions
    stationary_c             stationary on configs/stationary_c.cfg
    stationary_c_v0_auto     the same with stationary.v0 = auto
    stationary_c_v0_length   the same with stationary.v0 = length:12
    verify_default           verify on configs/verify_default.cfg

Usage (from the repository root; ``flathump`` is imported from the path):

    PYTHONPATH=src python scripts/output_digest.py OUT_DIR
    python scripts/output_digest.py --compare OUT_A OUT_B

The first form prints one ``sha256  path`` line per file, paths relative
to OUT_DIR.  ``--compare`` prints, for each file whose hash differs, the
largest |difference| per CSV column (per key for ``key,value`` tables and
``# key=value`` metadata) or the differing lines of any other file, and
names files present on one side only.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

# (case, command, config file, lines appended to it; later keys win)
CASES = [
    ("simulate_bump", "simulate", "simulate_bump.cfg", ""),
    ("simulate_custom", "simulate", "simulate_custom.cfg", ""),
    ("stationary_c", "stationary", "stationary_c.cfg", ""),
    ("stationary_c_v0_auto", "stationary", "stationary_c.cfg", "stationary.v0 = auto\n"),
    ("stationary_c_v0_length", "stationary", "stationary_c.cfg", "stationary.v0 = length:12\n"),
    ("verify_default", "verify", "verify_default.cfg", ""),
]


def run_cases(out_dir: str) -> None:
    from flathump import cli

    os.makedirs(out_dir, exist_ok=True)
    for case, command, cfg_name, extra in CASES:
        case_dir = os.path.join(out_dir, case)
        os.makedirs(case_dir, exist_ok=True)
        with open(os.path.join(CONFIG_DIR, cfg_name), encoding="utf-8") as fh:
            text = fh.read()
        cfg_path = os.path.join(out_dir, f"{case}.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n" + extra)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main([command, "--config", cfg_path, "--out", case_dir])
        with open(os.path.join(case_dir, "stdout.txt"), "w", encoding="utf-8") as fh:
            fh.write(captured.getvalue())
        with open(os.path.join(case_dir, "exit_code.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"{code}\n")


def digests(out_dir: str) -> dict[str, str]:
    """Relative path -> sha256 of every file under ``out_dir``."""
    out = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def _cells(path: str) -> dict[str, list[str]]:
    """Label -> values of a CSV: a column by its header, a ``key,value`` row
    by its key, a ``# key=value`` metadata token by ``#key``."""
    cells: dict[str, list[str]] = {}
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                for tok in line[1:].split():
                    key, _, val = tok.partition("=")
                    cells.setdefault("#" + key, []).append(val)
                continue
            fields = line.split(",")
            if header is None:
                header = fields
            elif header[:2] == ["key", "value"]:
                cells.setdefault(fields[0], []).extend(fields[1:])
            else:
                for name, val in zip(header, fields):
                    cells.setdefault(name, []).append(val)
    return cells


def _max_abs_diff(a: list[str], b: list[str]) -> str:
    if len(a) != len(b):
        return f"length {len(a)} vs {len(b)}"
    worst = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            worst = max(worst, abs(float(x) - float(y)))
        except ValueError:
            return f"text differs: {x!r} vs {y!r}"
    return f"max |diff| {worst:.3g}"


def compare(dir_a: str, dir_b: str) -> int:
    """Print what differs between two output directories; 1 if anything does."""
    da, db = digests(dir_a), digests(dir_b)
    differs = 0
    for rel in sorted(set(da) | set(db)):
        if rel not in da or rel not in db:
            print(f"{rel}: only in {dir_a if rel in da else dir_b}")
            differs = 1
            continue
        if da[rel] == db[rel]:
            continue
        differs = 1
        print(f"{rel}: differs")
        if not rel.endswith(".csv"):
            with open(os.path.join(dir_a, rel), encoding="utf-8") as fa, \
                    open(os.path.join(dir_b, rel), encoding="utf-8") as fb:
                for x, y in zip(fa, fb):
                    if x != y:
                        print(f"  - {x.rstrip()}\n  + {y.rstrip()}")
            continue
        ca, cb = _cells(os.path.join(dir_a, rel)), _cells(os.path.join(dir_b, rel))
        for label in dict.fromkeys([*ca, *cb]):
            if ca.get(label) != cb.get(label):
                print(f"  {label}: {_max_abs_diff(ca.get(label, []), cb.get(label, []))}")
    if not differs:
        print("all files identical")
    return differs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", nargs="?", help="directory to run the cases into")
    ap.add_argument("--compare", nargs=2, metavar=("OUT_A", "OUT_B"),
                    help="compare two directories written by earlier runs")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.out_dir:
        ap.error("give OUT_DIR or --compare OUT_A OUT_B")
    run_cases(args.out_dir)
    for rel, digest in digests(args.out_dir).items():
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
