"""Golden CLI outputs on the shipped configs.

Each case runs one command on a config under configs/ and compares what it
writes with the files under tests/golden/<config>-<command>/: the exit
code, every key, string, integer and bool exactly, JSON floats to 1e-12
relative, and the density column of density.csv to 1e-12 of the file's
peak. The CSV prints 12 significant digits, so its values may also differ
by one unit in the last digit printed.

A change that moves these numbers on purpose rewrites the files with
`PYTHONPATH=src python tests/test_golden.py` and says why.
"""
import csv
import json
import math
from pathlib import Path

import pytest

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


def _compare_json(new, old, where, errors):
    if type(new) is not type(old):
        errors.append(f"{where}: {new!r} != {old!r}")
    elif isinstance(old, dict):
        if sorted(new) != sorted(old):
            errors.append(f"{where}: keys {sorted(new)} != {sorted(old)}")
        for key in sorted(set(new) & set(old)):
            _compare_json(new[key], old[key], f"{where}.{key}", errors)
    elif isinstance(old, list):
        if len(new) != len(old):
            errors.append(f"{where}: length {len(new)} != {len(old)}")
        for i, (a, b) in enumerate(zip(new, old)):
            _compare_json(a, b, f"{where}[{i}]", errors)
    elif isinstance(old, float):
        if not abs(new - old) <= RTOL * abs(old):
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


if __name__ == "__main__":
    # rewrite the golden files from this tree's outputs
    for config, command, code in CASES:
        out = GOLDEN / f"{config}-{command}"
        for path in out.glob("*"):
            path.unlink()
        if _run(config, command, out) != code:
            raise SystemExit(f"{config} {command} did not exit with {code}")
