"""Self-test: the benchmark's output check catches faults.

    python3 perfbench/selftest.py

Runs one real ``pressure --model all`` operation of readme-free and shows
that its check passes, that a perturbation of one anchor pressure within
the tolerance still passes, that one beyond it fails, and that a non-zero
exit fails.  Exits 0 when all four hold.
"""

import shutil
import sys

import check
import run
import workloads


def perturb_anchor(path, factor):
    """Scale the nonlocal pressure at the first separation (100 nm)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines[1:], start=1):
        cols = line.split(",")
        if cols[1] == "nonlocal":
            cols[2] = repr(float(cols[2]) * factor)
            lines[i] = ",".join(cols)
            break
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        op = next(o for o in workloads.build("readme-free", 0, workdir)
                  if o.kind == "pressure")
        tol = op.expect.rel_tol
        out = workdir / op.output
        outcomes = {}

        res = run.run_op(workdir, op)
        outcomes["correct output passes"] = res["ok"]
        good = out.read_text(encoding="utf-8")

        perturb_anchor(out, 1.0 + 0.1 * tol)
        outcomes["anchor within tolerance passes"] = \
            not check.check_op(op, 0, out)

        out.write_text(good, encoding="utf-8")
        perturb_anchor(out, 1.0 + 10.0 * tol)
        outcomes["anchor beyond tolerance fails"] = \
            bool(check.check_op(op, 0, out))

        (workdir / "run.cfg").write_text("variant = nonlocal\n"
                                         "omega_p_ev = -1\n", encoding="utf-8")
        res = run.run_op(workdir, op)
        outcomes["non-zero exit fails"] = res["rc"] != 0 and not res["ok"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, ok in outcomes.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
