"""Golden CLI outputs on the shipped configs.

Each case runs one command on a config under configs/ and compares what it
writes with the files under tests/golden/<config>-<command>/: the exit
code, every key, string, integer and bool exactly, JSON floats to 1e-12
relative, and the density column of density.csv to 1e-12 of the file's
peak. The CSV prints 12 significant digits, so its values may also differ
by one unit in the last digit printed.

A change that moves these numbers on purpose rewrites the files with
`PYTHONPATH=src python tests/test_golden.py`, which prints each file whose
content changed with the number of rows or values that differ, and says
why. Both density grids are Marchenko-Pastur laws, checked against their
closed form here to 1e-11 of the peak.
"""
import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from helpers import mp_stieltjes

from specbulk.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

# (config, command, exit code): every command with a section in mp.json and
# atom.json, and solve and equivalents on threeclass.json
CASES = [
    ("mp", "density", 0),
    ("mp", "solve", 0),
    ("mp", "simulate", 3),
    ("mp", "equivalents", 0),
    ("atom", "density", 0),
    ("atom", "simulate", 3),
    ("threeclass", "solve", 0),
    ("threeclass", "equivalents", 0),
]


def _run(config, command, out):
    return main([command, "--config", str(ROOT / "configs" / f"{config}.json"),
                 "--out", str(out)])


def _print_unit(value):
    """One unit in the 12th significant digit of value, as "%.12g" prints it."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 11) if value else 0.0


def _compare_json(new, old, where, errors, rtol=RTOL):
    if type(new) is not type(old):
        errors.append(f"{where}: {new!r} != {old!r}")
    elif isinstance(old, dict):
        if sorted(new) != sorted(old):
            errors.append(f"{where}: keys {sorted(new)} != {sorted(old)}")
        for key in sorted(set(new) & set(old)):
            _compare_json(new[key], old[key], f"{where}.{key}", errors, rtol)
    elif isinstance(old, list):
        if len(new) != len(old):
            errors.append(f"{where}: length {len(new)} != {len(old)}")
        for i, (a, b) in enumerate(zip(new, old)):
            _compare_json(a, b, f"{where}[{i}]", errors, rtol)
    elif isinstance(old, float):
        if not abs(new - old) <= rtol * abs(old):
            errors.append(f"{where}: {new!r} != {old!r}")
    elif new != old:
        errors.append(f"{where}: {new!r} != {old!r}")


def _compare_csv(new, old, errors):
    new_rows, old_rows = list(csv.reader(new)), list(csv.reader(old))
    if new_rows[:2] != old_rows[:2] or len(new_rows) != len(old_rows):
        errors.append(f"header or length: {new_rows[:2]}, {len(new_rows)} rows != "
                      f"{old_rows[:2]}, {len(old_rows)} rows")
        return
    peak = max(float(row[1]) for row in old_rows[2:])
    for i, (a, b) in enumerate(zip(new_rows[2:], old_rows[2:])):
        (x_new, d_new), (x_old, d_old) = map(float, a), map(float, b)
        if not abs(x_new - x_old) <= max(RTOL * abs(x_old), _print_unit(x_old)):
            errors.append(f"row {i}: x {a[0]} != {b[0]}")
        if not abs(d_new - d_old) <= max(RTOL * peak, _print_unit(d_old)):
            errors.append(f"row {i}: density {a[1]} != {b[1]}")


@pytest.mark.parametrize("config, command, code", CASES,
                         ids=[f"{config}-{command}" for config, command, _ in CASES])
def test_golden_output(tmp_path, capsys, config, command, code):
    assert _run(config, command, tmp_path) == code
    capsys.readouterr()
    golden = GOLDEN / f"{config}-{command}"
    names = sorted(path.name for path in golden.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    errors = []
    for name in names:
        new, old = (tmp_path / name).read_text(), (golden / name).read_text()
        if name.endswith(".csv"):
            _compare_csv(new.splitlines(), old.splitlines(), errors)
        else:
            _compare_json(json.loads(new), json.loads(old), name, errors)
    assert not errors, "\n".join(errors[:20])


@pytest.mark.parametrize("config, c0", [("mp", 1.0), ("atom", 0.5)])
def test_density_matches_closed_form(tmp_path, config, c0):
    # (1/pi) Im m(x + i eta) of the Marchenko-Pastur law with ratio c0 = p/n,
    # less the kernel of the atom 1 - c0 at zero when c0 < 1, clamped at zero
    # as density_grid does. The solver's tol bounds the residual relative to
    # |g|, so each point's error is also held to 1e-11 of |m|/pi, which in
    # the tails is several times below 1e-11 of the peak
    assert _run(config, "density", tmp_path) == 0
    rows = np.loadtxt(tmp_path / "density.csv", delimiter=",", skiprows=2)
    eta = json.loads((tmp_path / "support.json").read_text())["eta"]
    xs, dens = rows[:, 0], rows[:, 1]
    m = np.array([mp_stieltjes(complex(x, eta), c0) for x in xs])
    ref = np.maximum(m.imag / np.pi, 0.0)
    atom = max(0.0, 1.0 - c0)
    if atom:
        ref = np.clip(ref - atom * (eta / np.pi) / (xs**2 + eta**2), 0.0, None)
    err = np.abs(dens - ref)
    assert err.max() <= 1e-11 * ref.max()
    assert (err <= 1e-11 * np.abs(m) / np.pi).all()


def _changed(name, new, old):
    """The number of rows (CSV) or values (JSON) of a golden file whose
    new content differs from the old."""
    if name.endswith(".csv"):
        new_rows, old_rows = new.splitlines(), old.splitlines()
        return (sum(a != b for a, b in zip(new_rows, old_rows))
                + abs(len(new_rows) - len(old_rows)))
    errors = []
    _compare_json(json.loads(new), json.loads(old), name, errors, rtol=0.0)
    return len(errors)


if __name__ == "__main__":
    # rewrite the golden files from this tree's outputs, printing what changed
    for config, command, code in CASES:
        golden = GOLDEN / f"{config}-{command}"
        with tempfile.TemporaryDirectory() as tmp:
            if _run(config, command, tmp) != code:
                raise SystemExit(f"{config} {command} did not exit with {code}")
            new_files = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
        golden.mkdir(exist_ok=True)
        for path in golden.glob("*"):
            if path.name not in new_files:
                path.unlink()
                print(f"{path.relative_to(ROOT)}: removed")
        for name, new in sorted(new_files.items()):
            path = golden / name
            old = path.read_bytes() if path.exists() else None
            if new == old:
                continue
            path.write_bytes(new)
            what = ("new file" if old is None
                    else f"{_changed(name, new.decode(), old.decode())} differ")
            print(f"{path.relative_to(ROOT)}: {what}")
