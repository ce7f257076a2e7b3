"""Mutation check of the solver's certificates: does a test notice when one
is lost?

Each mutant is one exact text replacement in one file under src/. For each
mutant the script copies src/, tests/ and configs/ to a temporary directory,
applies the replacement there, runs the Tier-1 suite on the copy and counts
the failed tests. A mutant that fails at least one test is killed; one that
fails none survives, and names a certificate that no test guards. The
working tree is never edited.

    PYTHONPATH=src python tests/mutants.py            # every mutant
    PYTHONPATH=src python tests/mutants.py NAME ...   # the named ones

It first runs the unmutated copy, which must pass, then prints one table
row a mutant. Each run is one Tier-1 run. pytest does not collect this file.
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXED_POINT = "src/specbulk/fixed_point.py"
SPECTRUM = "src/specbulk/spectrum.py"
EQUIVALENTS = "src/specbulk/equivalents.py"

# (file, exact text, replacement, name); the text must occur exactly once
MUTANTS = [
    (FIXED_POINT,
     "    bad = ((sign * g.imag < slack) | (sign * (z * g).imag < slack * abs(z))).any(-1)\n",
     "    bad = np.zeros(g.shape[:-1], dtype=bool)\n",
     "_violates_signs always false"),
    (FIXED_POINT,
     "            accepted = bool(np.isfinite(jac).all()) and spectral_radius(jac) < 1.0\n",
     "            accepted = True\n",
     "_trial accepts a real point without rho(Omega) < 1"),
    (FIXED_POINT,
     "    if _exceeds_bound(z, g, params):\n        raise ConsistencyError(",
     "    if False:\n        raise ConsistencyError(",
     "_check_bound does nothing"),
    (SPECTRUM,
     "        if count_v != count:  # None unless certified\n",
     "        if count_v is None:\n",
     "_trace_edge keeps a step with another count"),
    (FIXED_POINT,
     "        accepted = (resid <= opts.tol) & ~_violates_signs(z, g)\n",
     "        accepted = resid <= opts.tol\n",
     "_stacked_trial skips the sign check"),
    (SPECTRUM,
     "    return int(np.count_nonzero(inv < 0.0)\n"
     "               + np.asarray(params.class_sizes)[1.0 - t / x < 0.0].sum())\n",
     "    return int(np.count_nonzero(inv < 0.0))\n",
     "_count without its class term"),
    (FIXED_POINT,
     "        over = accepted & _exceeds_bound(z, g, params)\n",
     "        over = np.zeros_like(accepted)\n",
     "_fill skips the stack-wide bound check"),
    (FIXED_POINT,
     "    if x < 0 and (params.c0 * g <= 0).any():\n",
     "    if False:\n",
     "_solve_real without its c0 g > 0 check at x < 0"),
    (EQUIVALENTS,
     "    if residual > 1e-10:\n",
     "    if False:\n",
     "first_order without its Qtbar inversion-residual check"),
    (EQUIVALENTS,
     "    if rho >= 1.0:\n",
     "    if False:\n",
     "second_order_from_equivalents without its rho(Omega) >= 1 error"),
    (FIXED_POINT,
     "        if not (d > 0.0).all():\n",
     "        if False:\n",
     "_log_det_mixture without its d > 0 check on joint spectra"),
]


def run_suite(tree: Path):
    """Run Tier-1 on the copy at tree; return (failed count, failed ids)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src"),
                      "PYTHONDONTWRITEBYTECODE": "1"},  # no stale bytecode across mutants
        capture_output=True, text=True,
    )
    out = proc.stdout + proc.stderr
    failed = sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", out.splitlines()[-1]))
    ids = re.findall(r"^(?:FAILED|ERROR) (\S+)", out, flags=re.MULTILINE)
    return failed, ids


def copy_tree(dest: Path):
    for name in ("src", "tests", "configs", "pyproject.toml"):
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def main(names):
    chosen = [m for m in MUTANTS if not names or m[3] in names]
    unknown = set(names) - {m[3] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        failed, ids = run_suite(tree)
        if failed:
            raise SystemExit(f"the unmutated tree fails {failed} tests: {ids[:5]}")
        print("| mutant | Tier-1 failures | verdict |")
        print("|---|---|---|")
        for path, text, replacement, name in chosen:
            source = (ROOT / path).read_text()
            if source.count(text) != 1:
                print(f"| {name} | text found {source.count(text)} times in {path} | stale |")
                continue
            (tree / path).write_text(source.replace(text, replacement))
            try:
                failed, ids = run_suite(tree)
            finally:
                (tree / path).write_text(source)
            shown = ", ".join(i.split("::", 1)[-1] for i in ids[:3])
            more = f" and {len(ids) - 3} more" if len(ids) > 3 else ""
            verdict = "killed" if failed else "**survived**"
            print(f"| {name} | {failed}{f' ({shown}{more})' if ids else ''} | {verdict} |",
                  flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
