"""Show that every workload check passes on real output and fires on perturbed output.

    python3 bench/selftest.py

Runs a few real ops per workload, then perturbs their results: a shifted
sigma, a lost convergence flag, a wrong verdict, a wrong witness, a wrong
exit code, a changed byte and a missing file.  Exits 0 when every real
result passes and every perturbed one fails.  Not collected by pytest (the
tier-1 suite lives in tests/), and nothing in tests/ imports it.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

from run import SRC, WORK, load_valiron

sys.path.insert(0, str(SRC))

from workloads import ClassifySweep, RenormGrid, ReportAll  # noqa: E402

SEED = 7


def main() -> int:
    valiron = load_valiron()
    work_dir = WORK / f"selftest-{os.getpid()}"
    outcomes = []

    def expect(label: str, want_ok: bool, verdict: tuple) -> None:
        ok, msg, _ = verdict
        good = ok == want_ok
        outcomes.append(good)
        shown = "passes" if ok else f"fails ({msg})"
        print(f"{'ok  ' if good else 'BAD '} {label}: {shown}")

    try:
        wl = RenormGrid(valiron, SEED, str(work_dir))
        result, probes = wl.op(0)
        expect("renorm_grid real output", True, wl.check(0, (result, probes)))
        shifted = dataclasses.replace(result, sigma=result.sigma + 1e-3)
        expect("renorm_grid shifted grid sigma", False, wl.check(0, (shifted, probes)))
        expect("renorm_grid shifted probe sigma", False,
               wl.check(0, (result, probes + 1e-3j)))
        stalled = dataclasses.replace(result, converged=False)
        expect("renorm_grid not converged", False, wl.check(0, (stalled, probes)))

        wl = ClassifySweep(valiron, SEED, str(work_dir))
        for i in range(3):
            expect(f"classify_sweep real output, op {i}", True, wl.check(i, wl.op(i)))
        out = wl.op(3)
        draw = out[-1]
        (kseq, kcls), rest = draw[0], draw[1:]

        def perturbed(new_draw):
            return out[:-1] + [new_draw]

        no_region = [(kseq, dataclasses.replace(kcls, koranyi_m=None))] + rest
        expect("classify_sweep koranyi verdict dropped", False,
               wl.check(3, perturbed(no_region)))
        cseq, ccls = draw[1]
        too_far = [draw[0], (cseq, dataclasses.replace(ccls, c_special=10.0))] + draw[2:]
        expect("classify_sweep c-special witness too large", False,
               wl.check(3, perturbed(too_far)))
        narrow = [(kseq, dataclasses.replace(kcls, m_predicted=1.0))] + rest
        expect("classify_sweep witness conversion broken", False,
               wl.check(3, perturbed(narrow)))

        wl = ReportAll(valiron, SEED, str(work_dir))
        expect("report_all first pass", True, wl.check(0, wl.op(0)))
        expect("report_all second pass", True, wl.check(1, wl.op(1)))
        codes = wl.op(2)
        expect("report_all wrong exit code", False, wl.check(2, codes[:-1] + [0]))
        codes = wl.op(3)
        label = wl.configs[0][0]
        path = os.path.join(wl._out_dir(3, label), "limits.csv")
        with open(path, "r+b") as handle:
            first = handle.read(1)
            handle.seek(0)
            handle.write(bytes([first[0] ^ 1]))
        expect("report_all changed byte", False, wl.check(3, codes))
        codes = wl.op(4)
        os.remove(os.path.join(wl._out_dir(4, label), "jwc.csv"))
        expect("report_all missing file", False, wl.check(4, codes))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    bad = outcomes.count(False)
    print(f"{len(outcomes) - bad}/{len(outcomes)} checks behaved as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
