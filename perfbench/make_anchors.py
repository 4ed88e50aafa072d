"""Regenerate anchors.json, the reference pressures the benchmark checks.

    python3 perfbench/make_anchors.py

Runs ``casimag pressure --model all`` from ``src/`` at the anchor
separations of every workload, without and with the base optical table
(the seeded rows the benchmark adds lie on the table's interpolant and do
not change these values).  Rerun only when the physics is meant to change;
a faster implementation must reproduce the committed values.
"""

import json
import sys

import workloads

ANCHORS_NM = {"no_table": ((100, 800), (1000, 6000)), "table": ((100, 800),)}


def main() -> int:
    sys.path.insert(0, str(workloads.HERE.parent / "src"))
    from casimag.cli import main as cli_main

    tol = dict(workloads.TOLERANCES)
    work = workloads.HERE / "_work" / "anchors"
    work.mkdir(parents=True, exist_ok=True)
    workloads._write_csv(work / "optical.csv", "omega_ev,im_eps",
                         [(repr(w), repr(v))
                          for w, v in workloads.optical_rows()])
    out = {"quad_tol": float(tol["quad_tol"]),
           "series_tol": float(tol["series_tol"]), "pressure_pa": {}}
    for table, pairs in ANCHORS_NM.items():
        per_a = out["pressure_pa"][table] = {}
        for lo, hi in pairs:
            cfg = dict(workloads.MATERIAL) | dict(workloads.TOLERANCES) | {
                "a_min_nm": str(lo), "a_max_nm": str(hi), "points": "2",
                "temperature_k": "300"}
            if table == "table":
                cfg["optical_data_path"] = str(work / "optical.csv")
            text = "".join(f"{k} = {v}\n" for k, v in cfg.items())
            (work / "anchor.cfg").write_text(text, encoding="utf-8")
            csv = work / "anchor.csv"
            rc = cli_main(["pressure", "--model", "all", "--config",
                           str(work / "anchor.cfg"), "--output", str(csv)])
            if rc != 0:
                return rc
            for line in csv.read_text(encoding="utf-8").splitlines()[1:]:
                a_m, model, p = line.split(",")[:3]
                per_a.setdefault(f"{float(a_m) * 1e9:g}", {})[model] = float(p)
    workloads.ANCHORS_PATH.write_text(json.dumps(out, indent=1) + "\n",
                                      encoding="utf-8")
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
