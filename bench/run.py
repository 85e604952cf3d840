"""platformsim benchmark: one workload, one seed, one measurement window.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed). Each repetition of the workload runs in a
fresh interpreter (``bench/body.py``), so the process-wide threshold and
quadrature caches start cold, as they do for a CLI user. Repetitions run
back to back (a closed loop with one caller) while the next one is
expected to end within ``S`` seconds (at least one runs).

``--trace 0`` reports the end-to-end metrics, measured untraced, each the
median over the repetitions of the window (``setup_s`` over every fresh
interpreter the run started). On a shared 2-core host the speed of the
whole machine drifts by 20-30% over minutes; in back-to-back series of
70-100 repetitions, the median of a 28 s window spread less between windows
than the best repetition did (mc_presets 0.15 vs 0.19-0.29 of the median,
design_search 0.17 vs 0.21, patient_w2 0.07 vs 0.11).

- ``setup_s``: seconds for a fresh interpreter to import ``platformsim.cli``;
- ``run_s``: wall seconds of the workload body;
- ``cpu_s``: user + system CPU seconds of the body's process and its
  worker children over the body;
- ``peak_rss_mb``: peak resident MiB of that process plus its largest
  worker child.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``bench/trace_layers.py`` from the traced repetition
with the median ``run_s``, the tracing overhead (median traced minus median
untraced ``run_s``) and two ``scipy.stats`` import
probes (see ``_scipy_stats_import_s``).

Every run checks its outputs: oracle checks on the first repetition
(``bench/checks.py``), byte-identical files across repetitions of one seed
and, on ``mc_presets_w2``, ``results.csv`` and ``plotdata/*.csv`` identical
to a serial ``mc_presets`` repetition of the same seed. An operation is one
preset or config run or one output check; ``failed / attempted`` is the
failed fraction.

The last line of standard output is the result object; the line before it
records the environment and where the full record was written
(``.bench_run/`` in the checkout). Exit code 2 without a result when the
checkout holds no platformsim sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
DEADLINE_S = 170.0  # every run must end within 180 s
SCIPY_STATS_SAMPLES = 3

sys.path.insert(0, str(BENCH))
from body import WORKLOADS  # noqa: E402  (no platformsim import)
from trace_layers import COMPUTED  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
# first matching suffix wins
LAYER_UNITS = {
    "reps_per_s": "1/s", "_ms_p50": "ms", "_ms_p90": "ms", "_s": "s",
    "hit_ratio": "ratio", "bytes_drawn_computed": "B", "bytes_written": "B",
}


class Deadline(Exception):
    pass


def _unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _child_env():
    # the CLI reads SIMULATE_* variables; the benchmark passes flags only
    return {k: v for k, v in os.environ.items() if not k.startswith("SIMULATE_")}


def _run_child(argv, deadline):
    """Run a command in its own process group; kill the group on timeout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Deadline() from None
    finally:
        # pool workers of a crashed repetition must not outlive the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out, err


def _repetition(workload, seed, out, deadline, check=False, spans=None):
    argv = [sys.executable, str(BENCH / "body.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(out)]
    if check:
        argv.append("--check")
    if spans is not None:
        argv += ["--spans", str(spans)]
    code, stdout, stderr = _run_child(argv, deadline)
    lines = stdout.strip().splitlines()
    try:
        if code != 0:
            raise ValueError(f"exit code {code}")
        return json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        sys.stderr.write(stderr)
        return {"crashed": f"{workload} repetition: {exc}"}


def _scipy_stats_import_s(deadline):
    """Medians of two set-up probes, each in fresh interpreters.

    ``setup.scipy_stats_s``: import ``scipy.stats`` alone (numpy and scipy's
    core included). ``setup.scipy_stats_in_cli_s``: the cumulative
    ``-X importtime`` entry of ``scipy.stats`` while importing
    ``platformsim.cli``, i.e. what the package pays for it; 0 when the
    package does not import it.
    """
    alone = "import time; t = time.perf_counter(); import scipy.stats; print(time.perf_counter() - t)"
    in_cli = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import platformsim.cli"
    samples = {"setup.scipy_stats_s": [], "setup.scipy_stats_in_cli_s": []}
    for _ in range(SCIPY_STATS_SAMPLES):
        rc, out, _ = _run_child([sys.executable, "-c", alone], deadline)
        if rc == 0:
            samples["setup.scipy_stats_s"].append(float(out.strip().splitlines()[-1]))
        rc, _, err = _run_child([sys.executable, "-X", "importtime", "-c", in_cli], deadline)
        if rc == 0:
            # "import time: self [us] | cumulative | imported package"
            cumulative = [int(line.split("|")[1]) for line in err.splitlines()
                          if line.startswith("import time:") and line.split("|")[2].strip() == "scipy.stats"]
            samples["setup.scipy_stats_in_cli_s"].append(sum(cumulative) / 1e6)
    return {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}


def _environment(seed):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "seed": seed,
        "machine": platform.machine(),
    }


class Ledger:
    """Operations attempted and failed, with notes on the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)

    def take(self, rep):
        if "crashed" in rep:
            self.add(False, rep["crashed"])
            return False
        for name, ok in rep["ops"]:
            self.add(ok, f"operation {name} failed")
        checks = rep.get("checks")
        if checks:
            self.attempted += checks["attempted"]
            self.failed += checks["failed"]
            self.notes += [f"check {n}: {d}" for n, d in checks["failures"]]
        return True

    def compare(self, label, files, reference, only_csv=False):
        """One check per reference file: same bytes in ``files``."""
        for name, (digest, _) in reference.items():
            if only_csv and not name.endswith(".csv"):
                continue
            self.add(files.get(name, (None,))[0] == digest, f"{label}: {name} differs")


def _measure(args, work, deadline):
    ledger = Ledger()
    untraced, traced = [], []
    reference = None
    try:
        if args.workload == "mc_presets_w2":
            reference = _repetition("mc_presets", args.seed, work / "serial", deadline, check=True)
            if not ledger.take(reference):
                reference = None
        start = time.monotonic()
        while True:
            index = len(untraced)
            began = time.monotonic()
            rep = _repetition(args.workload, args.seed, work / f"rep{index}", deadline,
                              check=index == 0)
            if ledger.take(rep):
                untraced.append(rep)
            if args.trace:
                rep = _repetition(args.workload, args.seed, work / f"traced{index}", deadline,
                                  spans=work / "spans.jsonl")
                if ledger.take(rep):
                    traced.append(rep)
            shutil.rmtree(work / f"rep{index}", ignore_errors=True)
            shutil.rmtree(work / f"traced{index}", ignore_errors=True)
            if not untraced or (args.trace and not traced):
                break  # the program is broken; more repetitions will not help
            # start another repetition only if it should end inside the window
            if time.monotonic() - start + (time.monotonic() - began) > args.seconds:
                break
        layers_extra = _scipy_stats_import_s(deadline) if args.trace else {}
    except Deadline:
        ledger.add(False, "deadline reached")
        layers_extra = {}
    for rep in untraced[1:] + traced:
        ledger.compare("rerun", rep["files"], untraced[0]["files"])
    if reference is not None:
        for rep in untraced:
            ledger.compare("workers 2 vs 1", rep["files"], reference["files"], only_csv=True)
    imports = [r["import_s"] for r in untraced + traced + ([reference] if reference else [])]
    return ledger, untraced, traced, imports, layers_extra


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "platformsim" / "cli.py").is_file():
        print(f"error: no platformsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        ledger, untraced, traced, imports, layers_extra = _measure(args, work, deadline)
        spans_file = work / "spans.jsonl"
        if spans_file.exists():
            spans_file.replace(RUN_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not untraced or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": max(ledger.attempted, 1),
                          "failed": max(ledger.failed, 1), "metrics": {}}))
        return 1
    if args.trace:
        # one repetition's layers, so that self and child times add up
        typical = sorted(traced, key=lambda r: r["run_s"])[len(traced) // 2]
        layers = dict(typical["layers"], **layers_extra)
        layers["trace.overhead_s"] = _median(traced, "run_s") - _median(untraced, "run_s")
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(imports),
            "run_s": _median(untraced, "run_s"),
            "cpu_s": _median(untraced, "cpu_s"),
            "peak_rss_mb": _median(untraced, "peak_rss_mb"),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": _environment(args.seed),
        "repetitions": len(untraced),
        "traced_repetitions": len(traced),
        "samples": {k: [r[k] for r in untraced] for k in ("run_s", "cpu_s", "peak_rss_mb")},
        "setup_samples": imports,
        "failed_frac": ledger.failed / ledger.attempted,
        "failure_notes": ledger.notes[:20],
        "computed_metrics": list(COMPUTED) if args.trace else [],
        "metrics": metrics,
    }
    record_path = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"env": record["env"], "record": str(record_path.relative_to(ROOT))}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
