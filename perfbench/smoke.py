"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload shrunk by ``units.tiny``, untraced and traced, in this
process, and asserts that every metric named in BENCHMARK.json is emitted
with its unit, that every output check passes, and that self times in the
trace add up to each span's duration.  Exits non-zero on the first failure.
"""

import json
import os

import run  # noqa: F401  (fixes BLAS threads and the import path)

import bench
import spans
import units


def check_spans(tracer):
    sp = tracer.spans
    assert sp, "traced run recorded no spans"
    selfs = tracer.self_times()
    child = [0.0] * len(sp)
    for s in sp:
        assert s[2] is not None and s[2] >= s[1], f"span {s[0]} not closed"
        if s[3] is not None:
            parent = sp[s[3]]
            assert parent[1] <= s[1] and s[2] <= parent[2], f"{s[0]} outside {parent[0]}"
            child[s[3]] += s[2] - s[1]
    for s, st, c in zip(sp, selfs, child):
        assert abs(st + c - (s[2] - s[1])) <= 1e-9, f"self time of {s[0]} does not add up"
        assert st >= -1e-9, f"negative self time in {s[0]}"
    # the self times under each root add up to the root's duration
    total = {}
    for st, r in zip(selfs, tracer.roots()):
        total[r] = total.get(r, 0.0) + st
    for r, t in total.items():
        assert abs(t - (sp[r][2] - sp[r][1])) <= 1e-9, f"subtree of {sp[r][0]} does not add up"
    names = {s[0] for s in sp}
    assert {"unit.step", "unit.train", "unit.solve"} <= names, names


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert {x["name"]: x["why"] for x in spec["workloads"]} == {
        name: w.why for name, w in units.WORKLOADS.items()}
    for name, w in units.WORKLOADS.items():
        tw = units.tiny(w)
        for traced in (0, 1):
            part, tracer = bench.measure(tw, seed=3, seconds=0.05, traced=traced)
            part = json.loads(json.dumps(part))  # what a part process prints
            report, result = bench.summary(tw, 3, 0.05, traced, [part])
            assert result["correct"], (name, traced, report["failures"])
            assert result["failed"] == 0 and result["attempted"] >= 1
            metrics = (bench.per_layer(part, tracer, w.primary) if traced
                       else bench.end_to_end([part]))
            got = {k: unit for k, (_, unit) in metrics.items()}
            assert got == want[traced], (name, traced, set(got) ^ set(want[traced]))
            if traced:
                check_spans(tracer)
                for loss_id in units.LOSS_IDS:
                    assert part["traced_times"].get(f"step:{loss_id}"), loss_id
                assert set(spans.SPAN_NAMES) <= {k.rsplit(".", 1)[0] for k in got}
            else:
                for k in ("train_run_s.p10", "solve_s.p10", "setup_s", "step_ms.ince.p10"):
                    assert metrics[k][0] > 0, k
            print(f"ok  {name}  trace={traced}  ops={result['attempted']}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
