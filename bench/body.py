"""One repetition of a benchmark workload, in a fresh interpreter.

Run by ``bench/run.py``, never imported by the package. The repetition

1. times ``import platformsim.cli`` (the set-up every CLI invocation pays),
2. runs the workload body through the public entry points and times it,
   together with the CPU and peak memory of this process and its worker
   children,
3. hashes every output file, and optionally checks the outputs against
   exact oracles (``--check``),
4. optionally traces the body (``--spans FILE``): public functions of every
   module are wrapped in the namespaces where callers look them up, spans
   are kept in memory and written to FILE after the body, and per-layer
   numbers are derived from them.

The last line of standard output is one JSON object.

    python3 bench/body.py --workload mc_presets --seed 1 --out DIR [--check] [--spans FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MC_PRESETS = (
    "table3",
    "table4",
    "fig2_kfwer_sweep",
    "fig3_power_fixed_total",
    "fig4_disj_conj",
    "fig5_flex_fwer",
    "fig7_flex_disj_conj",
)
MC_REPS = 50_000
# m=10, common control, Dunnett, arm 1 effective, patient-level draws
PATIENT_CONFIG = {
    "m": 10,
    "n": 150,
    "control": "common",
    "effects": [0.38] + [0.0] * 9,
    "adjustment": "dunnett",
    "reps": 50_000,
    "mode": "patient",
}
# step-1 shift grid of the flexible-platform sweep script
FIG6_OVERRIDES = {"reps": 2000, "sweep": range(0, 151)}


def _mc_presets(cli, presets, seed, out, workers):
    ops = []
    for name in MC_PRESETS:
        argv = [
            "--preset", name, "--out", str(out / name), "--seed", str(seed),
            "--reps", str(MC_REPS), "--mode", "sufficient", "--workers", str(workers),
        ]
        ops.append((name, cli.main(argv) == 0))
    return ops


def _patient(cli, presets, seed, out, workers):
    argv = ["--config", str(out / "config.json"), "--out", str(out / "patient"),
            "--seed", str(seed), "--workers", str(workers)]
    return [("patient_config", cli.main(argv) == 0)]


def _design_search(cli, presets, seed, out, workers):
    ops = []
    for name, overrides in (("fig3_required_n", {}), ("fig6_flex_n_and_power", FIG6_OVERRIDES)):
        try:
            presets.run_preset(name, dict(overrides, seed=seed), out_dir=out / name)
            ops.append((name, True))
        except Exception as exc:  # a failed preset is a failed operation, not a crash
            print(f"error: {name}: {exc}", file=sys.stderr)
            ops.append((name, False))
    return ops


BODIES = {
    "mc_presets": (_mc_presets, 1),
    "mc_presets_w2": (_mc_presets, 2),
    "patient_w2": (_patient, 2),
    "design_search": (_design_search, 1),
}
WORKLOADS = tuple(BODIES)


def _prepare_inputs(workload, seed, out):
    if workload == "patient_w2":
        config = dict(PATIENT_CONFIG, seed=seed)
        (out / "config.json").write_text(json.dumps(config), encoding="utf-8")


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _output_files(out):
    """Relative path -> (sha256, size) of every file the body wrote."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "config.json":
            data = path.read_bytes()
            files[path.relative_to(out).as_posix()] = (hashlib.sha256(data).hexdigest(), len(data))
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--check", action="store_true", help="check outputs against oracles")
    parser.add_argument("--spans", type=Path, help="trace the body and write spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import platformsim.cli as cli  # noqa: E402  (timed: the set-up a CLI user pays)

    import_s = time.perf_counter() - start
    from platformsim import presets

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: platformsim imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    body, workers = BODIES[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    _prepare_inputs(args.workload, args.seed, args.out)

    tracer = None
    if args.spans is not None:
        import trace_layers

        tracer = trace_layers.Tracer()
        tracer.install()
        tracer.enabled = True

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    ops = body(cli, presets, args.seed, args.out, workers)
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux

    files = _output_files(args.out)
    result = {
        "workload": args.workload,
        "import_s": import_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": [[name, ok] for name, ok in ops],
        "files": files,
        "bytes_written": sum(size for _, size in files.values()),
    }
    if tracer is not None:
        tracer.enabled = False
        result["layers"] = tracer.layer_metrics(bytes_written=result["bytes_written"])
        result["layers"]["engine.zstat_s"] = tracer.replay_zstat_blocks()
        tracer.write_spans(args.spans)
    if args.check:
        import checks

        result["checks"] = checks.check_outputs(args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
