"""Fast self-test of the benchmark, at the tiniest run length.

    python3 perfbench/selftest.py

Checks that
  * every metric BENCHMARK.json names is emitted with its unit, on every
    workload, traced and untraced;
  * a deliberately corrupted golden hash is counted in fail_ratio;
  * the traced counts repeat exactly across two traced runs and equal the
    work each workload is known to do: 19,000 trial seeds per fig3-1f op,
    1,700,025 explog_exp1 calls per predict-1f op, and 8 FFTs over
    3,080,190 points per exact-mask op.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import sys

import run

SECONDS = 1.0
SEED = run.DEFAULT_SEED

EXPECTED = {
    "fig3-1f": {"ensemble.trial_seed_calls": 19000},
    "predict-1f": {"asymptotic.explog_calls": 1700025},
    "exact-mask": {"patterns.fft_calls + spectral.fft_calls": 8,
                   "patterns.fft_points + spectral.fft_points": 3080190},
}


def _value(metrics, expression):
    return sum(metrics[name.strip()]["value"] for name in expression.split("+"))


def main():
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'}  {what}", flush=True)
        if not ok:
            failures.append(what)

    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
        check(units == wanted, f"{group} metrics and units match BENCHMARK.json")

    golden = json.loads(run.GOLDEN.read_text())
    for name in run.WORKLOADS:
        result, _, _ = run.run_workload(name, SEED, SECONDS, trace=False)
        check(result["correct"] and result["failed"] == 0, f"{name}: untraced run passes its checks")
        check({k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS,
              f"{name}: every end-to-end metric emitted with its unit")
        traced = [run.run_workload(name, SEED, SECONDS, trace=True)[0] for _ in range(2)]
        check(all(r["correct"] for r in traced), f"{name}: traced runs pass their checks")
        check(all({k: v["unit"] for k, v in r["metrics"].items()} == run.PER_LAYER_UNITS
                  for r in traced), f"{name}: every per-layer metric emitted with its unit")
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] in ("count/op", "B/op")} for r in traced]
        check(counts[0] == counts[1], f"{name}: traced counts repeat exactly")
        for expression, expected in EXPECTED.get(name, {}).items():
            got = _value(traced[0]["metrics"], expression)
            check(got == expected,
                  f"{name}: {expression} = {got:,.0f} per op (expected {expected:,})")

    corrupted = dict(golden["fig3-1f"], **{"fig3.csv": "0" * 64})
    result, _, _ = run.run_workload("fig3-1f", SEED, SECONDS, trace=False,
                                    golden={"fig3-1f": corrupted})
    check(not result["correct"] and result["failed"] == result["attempted"] >= 2,
          f"corrupted golden hash counted in fail_ratio "
          f"({result['failed']} of {result['attempted']} ops failed)")

    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'all checks passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
