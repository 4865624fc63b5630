#!/usr/bin/env python3
"""CI gate for the adaptive sampling engine (campaign-contracts job).

Compares two sfi_campaign manifests of the same campaign — one run with
the fixed-N policy, one with --sampling ci — and asserts:

  1. the adaptive run spent strictly fewer Monte-Carlo trials in total;
  2. every frequency panel's adaptive PoFF lies inside the fixed-N run's
     confidence interval, taken as +/- one grid step around the fixed-N
     PoFF (the dense estimate is only step-accurate, and each grid point
     carries its own Wilson uncertainty on top);
  3. both runs completed.

Writes a BENCH_sampling.json artifact (trial budgets, wall clock,
per-panel PoFFs) so the perf trajectory of the sampling engine is
recorded per commit.

Usage:
  check_sampling_speedup.py FIXED_MANIFEST ADAPTIVE_MANIFEST OUT_JSON [GRID_STEP_MHZ]
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def panel_map(manifest):
    return {p["name"]: p for p in manifest["panels"] if p["kind"] != "cdf"}


def main():
    if len(sys.argv) not in (4, 5):
        sys.exit(__doc__)
    fixed = load(sys.argv[1])
    adaptive = load(sys.argv[2])
    out_path = sys.argv[3]
    grid_step = float(sys.argv[4]) if len(sys.argv) == 5 else 0.5

    failures = []
    for manifest, label in ((fixed, "fixed"), (adaptive, "adaptive")):
        if not manifest["run"]["completed"]:
            failures.append(f"{label} run did not complete")

    fixed_trials = fixed["run"]["trials_spent"]
    adaptive_trials = adaptive["run"]["trials_spent"]
    if not adaptive_trials < fixed_trials:
        failures.append(
            f"adaptive run spent {adaptive_trials} trials, expected fewer "
            f"than the fixed-N run's {fixed_trials}")

    panels = []
    for name, fixed_panel in panel_map(fixed).items():
        adaptive_panel = panel_map(adaptive).get(name)
        if adaptive_panel is None:
            failures.append(f"panel {name} missing from the adaptive run")
            continue
        entry = {
            "panel": name,
            "fixed_trials": fixed_panel["trials_spent"],
            "adaptive_trials": adaptive_panel["trials_spent"],
            "fixed_poff_mhz": fixed_panel.get("poff_mhz"),
            "adaptive_poff_mhz": adaptive_panel.get("poff_mhz"),
        }
        panels.append(entry)
        f_poff, a_poff = entry["fixed_poff_mhz"], entry["adaptive_poff_mhz"]
        if f_poff is None and a_poff is None:
            continue  # PoFF above the swept range in both runs: consistent
        if (f_poff is None) != (a_poff is None):
            failures.append(
                f"panel {name}: PoFF found in only one run "
                f"(fixed={f_poff}, adaptive={a_poff})")
            continue
        if abs(a_poff - f_poff) > grid_step:
            failures.append(
                f"panel {name}: adaptive PoFF {a_poff} MHz outside the "
                f"fixed-N confidence interval {f_poff} +/- {grid_step} MHz")

    report = {
        "campaign": fixed["campaign"],
        "grid_step_mhz": grid_step,
        "fixed": {
            "trials_spent": fixed_trials,
            "wall_clock_s": fixed["run"]["wall_clock_s"],
        },
        "adaptive": {
            "trials_spent": adaptive_trials,
            "wall_clock_s": adaptive["run"]["wall_clock_s"],
        },
        "trials_saved_percent":
            round(100.0 * (1.0 - adaptive_trials / fixed_trials), 2)
            if fixed_trials else None,
        "panels": panels,
        "ok": not failures,
        "failures": failures,
    }
    with open(out_path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(json.dumps(report, indent=2))

    if failures:
        sys.exit("sampling-speedup check FAILED:\n  " + "\n  ".join(failures))
    saved = report["trials_saved_percent"]
    print(f"sampling-speedup check passed: {adaptive_trials} vs "
          f"{fixed_trials} trials ({saved}% saved)")


if __name__ == "__main__":
    main()
