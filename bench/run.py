"""Time-to-certified-verdict benchmark for eigenprod.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all ...    # every workload, interleaved
    python3 bench/run.py --self-test

A closed loop with one client: each eigenprod command runs in a fresh
interpreter (``bench/child.py``), the next child starts only after the
previous one exits, and at most one child runs at a time.  Workloads,
reference outputs and metric definitions are in ``bench/spec.json``.

``--trace 0`` reports the end-to-end metrics with tracing off.  A round
runs every command of the workload cold (then warm in the same child) and
two set-up-only children, in an order drawn from ``--seed``.  Each child
also times a fixed calibration unit around every call, and every time
metric is scaled to the reference host speed by it (``calibration`` in
``bench/spec.json``), because the shared host's speed drifts by up to 2x.
``--trace 1`` reports the per-layer metrics: a round runs the workload
untraced and traced, again in seeded order, and the deterministic counts
of all traced rounds must agree.  Rounds repeat while the next one fits
in ``--seconds``; every value is the median over rounds.

The inputs are fixed configurations because the verifier is
deterministic; the seed only sets the interleaving, so drift on a shared
host spreads over all jobs.  Every output is checked against the
reference, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
taken from ``src/`` of the checkout that holds this file; without it the
benchmark exits 2.  Scratch files go to ``.bench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))

SETUP_PROBES_PER_ROUND = 2
WARM_CALLS = 2
# calibration units a child times after set-up and after every call
# (bench/child.py); time metrics are scaled by the speed they measure
CALIB_UNITS = 20
CALIB_UNIT_REF_S = SPEC["calibration"]["unit_ref_s"]
MIN_SETUP_PROBES = 12
# a run must end within 180 s; no child may outlive this budget
HARD_LIMIT_S = 170.0
ESCALATE = "interval.evaluate_with_escalation"
SECTION_SPANS = {
    "s3-unequal": "verifier.verify_section3_unequal",
    "s3-equal": "verifier.verify_section3_equal",
    "s4-inert": "verifier.verify_section4_inert",
    "s4-noninert": "verifier.verify_section4_noninert",
    "s5": "verifier.verify_section5",
}
# per-layer values that must repeat exactly between traced runs
EXACT_UNITS = ("count", "bits", "bytes", "ratio")
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


# ---------------------------------------------------------------------------
# children


class Job:
    """One child process: a workload command (cold, warm or traced) or a
    set-up-only probe."""

    def __init__(self, workload, variant, round_no, index=None):
        self.workload = workload
        self.variant = variant  # "warm", "base", "trace" or "setup"
        self.round = round_no
        self.index = index
        self.problems = []
        self.data = None
        self.spawned = 0.0

    def scale(self, call=0):
        """Factor that takes a time of this child to the reference host
        speed: the reference unit time over the mean of the unit times
        measured before and after call `call` (0 = cold, k = k-th warm) or,
        for a set-up probe, after set-up.  Below 1 when the host ran slow."""
        around = self.data["calib"][call : call + 2]
        return CALIB_UNIT_REF_S * len(around) / sum(around)

    @property
    def argv(self):
        return list(SPEC["workloads"][self.workload]["commands"][self.index])


def spawn(mode, argv, deadline, fixtures=False, warm=0, warm_out_dir=None, spans=None, calib=0):
    """Run child.py; return (spawn time, parsed result or None, problem)."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC), "--mode", mode]
    if fixtures:
        cmd.append("--fixtures")
    if warm:
        cmd += ["--warm", str(warm)]
    if calib:
        cmd += ["--calib", str(calib)]
    if warm_out_dir is not None:
        cmd += ["--warm-out-dir", str(warm_out_dir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *argv]
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False
        )
    except subprocess.TimeoutExpired:
        return t0, None, f"timeout after {timeout:.0f} s"
    if proc.returncode != 0:
        return t0, None, f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    try:
        return t0, json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return t0, None, "child printed no result"


def verify_sections(argv):
    target = argv[1] if len(argv) > 1 and not argv[1].startswith("-") else "all"
    verdicts = SPEC["reference"]["verdicts"]
    return list(verdicts) if target == "all" else [target]


def check_output(argv, rc, stdout, stderr):
    """Problems with one call's exit code and printed output."""
    ref = SPEC["reference"]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if "golden mismatch" in stderr:
        problems.append("golden mismatch")
    if argv[0] == "verify":
        expect = [f"section {s}: {ref['verdicts'][s]}" for s in verify_sections(argv)]
        got = [line for line in stdout.splitlines() if line.startswith("section ")]
        if got != expect:
            problems.append(f"verdicts {got} != {expect}")
    elif argv[0] == "scan":
        if stdout.splitlines() != ref["scan"]:
            problems.append(f"scan printed {stdout.splitlines()}")
    elif argv[0] == "demo-sqrt5":
        m = re.search(r"coefficients compared up to trace \d+: (\d+)", stdout)
        if "all coefficients verified" not in stdout:
            problems.append("demo did not verify all coefficients")
        if m is None or int(m.group(1)) != ref["demo_coefficients"]:
            problems.append(f"demo compared {m and m.group(1)} coefficients")
    return problems


def check_reports(workload, argv, out_dir):
    """Problems with the report files, their total bytes and the number
    whose sha256 equals the reference."""
    ref = SPEC["reference"]
    digests = ref["report_sha256"].get(workload, {})
    problems, nbytes, matches = [], 0, 0
    for section in verify_sections(argv):
        name = f"report-{section}.json"
        try:
            raw = (out_dir / name).read_bytes()
        except OSError:
            problems.append(f"{name} missing")
            continue
        nbytes += len(raw)
        matches += hashlib.sha256(raw).hexdigest() == digests.get(name)
        doc = json.loads(raw)
        if doc.get("verdict") != ref["verdicts"][section]:
            problems.append(f"{name}: verdict {doc.get('verdict')!r}")
        if doc.get("inconclusive") != 0:
            problems.append(f"{name}: inconclusive {doc.get('inconclusive')}")
    return problems, nbytes, matches


def run_command(job, deadline):
    """Run one workload command in a fresh child and check its outputs."""
    argv = job.argv
    tag = f"{job.workload}-r{job.round}-{job.variant}-c{job.index}"
    out_dir = OUT / tag
    verify = argv[0] == "verify"
    if verify:
        argv += ["--out-dir", str(out_dir / "cold")]
    traced = job.variant == "trace"
    job.spawned, data, problem = spawn(
        "trace" if traced else "cold",
        argv,
        deadline,
        warm=WARM_CALLS if job.variant == "warm" else 0,
        warm_out_dir=out_dir / "warm" if verify and job.variant == "warm" else None,
        spans=OUT / f"spans-{job.workload}-c{job.index}.json" if traced else None,
        calib=CALIB_UNITS if job.variant == "warm" else 0,
    )
    try:
        if data is None:
            job.problems.append(problem)
            return
        job.data = data
        job.problems += check_output(argv, data["rc"], data["stdout"], data["stderr"])
        for call in data.get("warm", ()):
            job.problems += [
                f"warm: {p}" for p in check_output(argv, call["rc"], call["stdout"], call["stderr"])
            ]
        data["report_bytes"] = data["digest_match"] = 0
        if verify:
            problems, data["report_bytes"], data["digest_match"] = check_reports(
                job.workload, argv, out_dir / "cold"
            )
            job.problems += problems
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_setup(job, deadline):
    fixtures = SPEC["workloads"][job.workload]["fixtures"]
    job.spawned, job.data, problem = spawn("setup", [], deadline, fixtures=fixtures, calib=CALIB_UNITS)
    if job.data is None:
        job.problems.append(problem)


# ---------------------------------------------------------------------------
# rounds


def round_jobs(workload, trace, round_no):
    """The jobs of one round of a workload, before shuffling."""
    ncmd = len(SPEC["workloads"][workload]["commands"])
    if trace:
        return [Job(workload, v, round_no, i) for v in ("base", "trace") for i in range(ncmd)]
    return [Job(workload, "warm", round_no, i) for i in range(ncmd)] + [
        Job(workload, "setup", round_no) for _ in range(SETUP_PROBES_PER_ROUND)
    ]


def execute(workloads, trace, seconds, rng, t_start):
    """Run seeded rounds while the next one fits; return every job."""
    deadline = t_start + seconds * len(workloads)
    hard = t_start + HARD_LIMIT_S * len(workloads)
    done, round_no = [], 0
    while True:
        jobs = [j for wl in workloads for j in round_jobs(wl, trace, round_no)]
        rng.shuffle(jobs)
        t_round = time.monotonic()
        for job in jobs:
            (run_setup if job.variant == "setup" else run_command)(job, hard)
            done.append(job)
        last = time.monotonic() - t_round
        round_no += 1
        # the next round is about as long as this one
        if time.monotonic() + last > deadline:
            break
    # top up the set-up samples of short runs, which have few rounds
    for wl in workloads if not trace else ():
        for _ in range(MIN_SETUP_PROBES - sum(j.workload == wl and j.variant == "setup" for j in done)):
            job = Job(wl, "setup", round_no)
            run_setup(job, hard)
            done.append(job)
    return done


def iterations(jobs, workload):
    """Group command jobs into attempts: one run of every command."""
    groups = {}
    for job in jobs:
        if job.workload == workload and job.variant != "setup":
            groups.setdefault((job.round, job.variant), []).append(job)
    return [sorted(g, key=lambda j: j.index) for _, g in sorted(groups.items())]


# ---------------------------------------------------------------------------
# metrics


def end_to_end(its, probes, scaled=True):
    """Per-attempt end-to-end values; lists, one value per sample.  Times
    are scaled to the reference host speed unless `scaled` is false."""
    values = {m["name"]: [] for m in SPEC["end_to_end"]}

    def scale(job, call=0):
        return job.scale(call) if scaled else 1.0

    for it in its:
        values["wall_s"].append(sum(wall(j) * scale(j) for j in it))
        values["cpu_s"].append(sum(j.data["cpu_s"] * scale(j) for j in it))
        values["warm_s"] += [
            sum(j.data["warm"][k]["s"] * scale(j, k + 1) for j in it) for k in range(WARM_CALLS)
        ]
        values["peak_rss_mb"].append(max(j.data["maxrss_kb"] for j in it) / 1024)
    values["setup_s"] = [(p.data["t_ready"] - p.spawned) * scale(p) for p in probes]
    return values


def wall(job):
    """Cold wall time of a command child: spawn to ready, plus the call."""
    return job.data["t_ready"] - job.spawned + job.data["cold_s"]


def layer_samples(traced):
    """Per-layer sample lists over traced attempts (overhead excluded)."""
    layer = [per_layer(it) for it in traced]
    return {name: [m[name] for m in layer] for name in layer[0]} if layer else {}


def per_layer(it):
    """Per-layer values of one traced attempt (summed over its commands)."""
    stats, caches = {}, {}
    for job in it:
        for name, entry in job.data["stats"].items():
            acc = stats.setdefault(name, dict.fromkeys(entry, 0))
            for key, v in entry.items():
                acc[key] += v
        for name, entry in job.data["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0})
            for key, v in entry.items():
                acc[key] += v

    def get(name, key="s"):
        return stats.get(name, {}).get(key, 0)

    def layer_self(layer):
        return sum(e["self_s"] for n, e in stats.items() if n.startswith(layer + "."))

    probes = get(ESCALATE, "calls")
    checks = sum(j.data["interval_checks"] for j in it)
    enclosures = get("interval.certified_compare", "under_escalate_calls")
    coeff_calls = get("hmf_coeffs.coefficient", "calls")
    coeff_distinct = sum(j.data["coefficient_distinct"] for j in it)
    m = {f"verifier.{sec}.s": get(span) for sec, span in SECTION_SPANS.items()}
    m.update(
        {
            "verifier.self_s": layer_self("verifier"),
            "verifier.probes": probes,
            "verifier.checks": checks,
            "verifier.probes_per_check": probes / checks if checks else 0.0,
            "interval.escalate.s": get(ESCALATE),
            "interval.arith_s": get(ESCALATE)
            - sum(
                e["under_escalate_s"]
                for n, e in stats.items()
                if n.startswith("interval.enclose_")
            ),
            "interval.enclose_zeta.calls": get("interval.enclose_zeta", "calls"),
            "interval.enclose_zeta.misses": caches.get("interval.enclose_zeta", {}).get("misses", 0),
            "interval.enclose_zeta.s": get("interval.enclose_zeta"),
            "interval.enclose_pi.s": get("interval.enclose_pi"),
            "interval.transcendental.s": sum(
                get(f"interval.enclose_{f}") for f in ("sqrt", "exp", "log")
            ),
            "interval.enclosures": enclosures,
            "interval.escalations": enclosures - probes,
            "interval.max_endpoint_bits": max(j.data["max_endpoint_bits"] for j in it),
            "exact.dedekind_zeta_neg.calls": get("exact.dedekind_zeta_neg", "calls"),
            "exact.dedekind_zeta_neg.misses": caches.get("exact.dedekind_zeta_neg", {}).get("misses", 0),
            "exact.dedekind_zeta_neg.s": get("exact.dedekind_zeta_neg"),
            "exact.generalized_bernoulli.calls": get("exact.generalized_bernoulli", "calls"),
            "exact.generalized_bernoulli.s": get("exact.generalized_bernoulli"),
            "quadfield.narrow_one_fields.s": get("quadfield.narrow_one_fields"),
            "quadfield.narrow_class_number.calls": get("quadfield.narrow_class_number", "calls"),
            "quadfield.class_number_imaginary.s": get("quadfield.class_number_imaginary"),
            "hmf_coeffs.product_coefficient.calls": get("hmf_coeffs.product_coefficient", "calls"),
            "hmf_coeffs.product_coefficient.s": get("hmf_coeffs.product_coefficient"),
            "hmf_coeffs.coefficient.calls": coeff_calls,
            "hmf_coeffs.coefficient.useful_ratio": coeff_distinct / coeff_calls if coeff_calls else 0.0,
            "hmf_coeffs.factor_ideal.s": get("hmf_coeffs.factor_ideal"),
            "hmf_coeffs.cusp_dim_lower_bound.calls": get("hmf_coeffs.cusp_dim_lower_bound", "calls"),
            "hmf_coeffs.cusp_dim_lower_bound.s": get("hmf_coeffs.cusp_dim_lower_bound"),
            "fixtures.load_s": get("fixtures.Fixtures.load"),
            "report.to_json.s": get("report.VerificationReport.to_json"),
            "report.golden_s": get("report.compare_to_golden"),
            "report.bytes": sum(j.data["report_bytes"] for j in it),
            "report.digest_match": sum(j.data["digest_match"] for j in it),
            "cli.self_s": layer_self("cli"),
        }
    )
    return m


def summarize(values, exact=False):
    """(median, q1, q3, n) of a sample list; counts keep their type."""
    median = statistics.median_low(values) if exact else statistics.median(values)
    if len(values) == 1:
        return median, median, median, 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def repeat_problems(layer_samples):
    """Deterministic per-layer values that differ between traced runs."""
    return [
        f"{name} differs between traced runs: {vals}"
        for name, vals in layer_samples.items()
        if LAYER_UNITS[name] in EXACT_UNITS and len(set(vals)) > 1
    ]


def report_workload(workload, jobs, trace):
    """Metrics, attempts, failures and problems of one workload."""
    its = iterations(jobs, workload)
    probes = [j for j in jobs if j.workload == workload and j.variant == "setup"]
    failed = [it for it in its if any(j.problems for j in it)]
    problems = [
        f"{workload}/{j.variant}/r{j.round}: {p}"
        for j in [j for it in its for j in it] + probes
        for p in j.problems
    ]
    # a failed attempt is counted in `failed`; its timings still count
    # when every child of it returned them
    measured = [it for it in its if all(j.data is not None for j in it)]
    raw = {}
    if not trace:
        units = E2E_UNITS
        probes = [p for p in probes if p.data is not None]
        samples = end_to_end(measured, probes)
        raw = {
            name: statistics.median(v)
            for name, v in end_to_end(measured, probes, scaled=False).items()
            if v and units[name] == "s"
        }
    else:
        units = LAYER_UNITS
        traced = [it for it in measured if it[0].variant == "trace"]
        base = [it for it in measured if it[0].variant == "base"]
        samples = layer_samples(traced)
        problems += repeat_problems(samples)
        if traced and base:
            walls = lambda its: statistics.median(sum(map(wall, it)) for it in its)  # noqa: E731
            samples["trace.overhead_s"] = [walls(traced) - walls(base)]
    missing = [name for name in units if not samples.get(name)]
    if missing:
        problems.append(f"no samples for {', '.join(missing)}")
    stats = {
        name: summarize(samples[name], units[name] in EXACT_UNITS)
        for name in units
        if samples.get(name)
    }
    return {
        "attempted": len(its),
        "failed": len(failed),
        "problems": problems,
        "units": units,
        "stats": stats,
        "raw": raw,
    }


def machine(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# self-test


def self_test():
    """The failure detector must fail a known-bad run, and the traced
    deterministic counts must repeat exactly."""
    ok = True
    st = SPEC["self_test"]
    hard = time.monotonic() + HARD_LIMIT_S
    argv = st["command"] + ["--out-dir", str(OUT / "self-test")]
    _, data, problem = spawn("cold", argv, hard)
    try:
        problems = [problem] if data is None else check_output(argv, data["rc"], data["stdout"], data["stderr"])
        if data is not None:
            problems += check_reports("self-test", argv, OUT / "self-test")[0]
    finally:
        shutil.rmtree(OUT / "self-test", ignore_errors=True)
    seen_exit = data is not None and data["rc"] == st["expect_exit"]
    counted = bool(problems) and seen_exit
    ok &= counted
    print(f"self-test: {' '.join(st['command'])} exit {data and data['rc']}, "
          f"counted as failed: {counted} ({'; '.join(problems)})")
    for workload in ("verify-default", "exact-arith"):
        ncmd = len(SPEC["workloads"][workload]["commands"])
        jobs = [Job(workload, "trace", r, i) for r in range(2) for i in range(ncmd)]
        for job in jobs:
            run_command(job, hard)
        its = iterations(jobs, workload)
        problems = [p for j in jobs for p in j.problems]
        samples = layer_samples([] if problems else its)
        problems += repeat_problems(samples)
        good = not problems and len(its) == 2
        ok &= good
        print(f"self-test: {workload} traced twice, outputs correct and counts repeat: {good}")
        for n in ("verifier.probes", "verifier.checks", "interval.enclosures",
                  "interval.max_endpoint_bits", "hmf_coeffs.coefficient.calls", "report.bytes"):
            print(f"  {n} = {samples.get(n)}")
        for p in problems:
            print(f"  problem: {p}")
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# main


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*SPEC["workloads"], "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    t_start = time.monotonic()
    if not (SRC / "eigenprod" / "__init__.py").is_file():
        print(f"bench: no eigenprod package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    workloads = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    rng = random.Random(args.seed)
    # one discarded set-up child compiles the bytecode before anything is timed
    warmup = Job(workloads[0], "setup", -1)
    run_setup(warmup, t_start + HARD_LIMIT_S)
    jobs = execute(workloads, bool(args.trace), args.seconds, rng, t_start)

    results = {wl: report_workload(wl, jobs, bool(args.trace)) for wl in workloads}
    metrics, problems = {}, list(warmup.problems)
    for wl, res in results.items():
        frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
        print(f"{wl}: {res['attempted']} attempted, {res['failed']} failed, fail_frac {frac:.4f}")
        for name, (med, q1, q3, n) in res["stats"].items():
            unit = res["units"][name]
            raw = f" (unscaled {fmt(res['raw'][name])})" if name in res["raw"] else ""
            print(f"  {name:40s} {fmt(med):>12} {unit:6s} q1 {fmt(q1)} q3 {fmt(q3)} n={n}{raw}")
            key = name if len(workloads) == 1 else f"{wl}.{name}"
            metrics[key] = {"value": med, "unit": unit}
        problems += res["problems"]
    for p in problems:
        print(f"problem: {p}")
    info = machine(args.seed)
    units = [u for j in jobs for u in (j.data or {}).get("calib", ())]
    if units:
        # the host's speed during this run
        info["calib_unit_s"] = statistics.median(units)
        info["calib_unit_ref_s"] = CALIB_UNIT_REF_S
    print("machine: " + json.dumps(info, sort_keys=True))
    record = {
        "machine": info,
        "args": vars(args),
        "problems": problems,
        "jobs": [
            {k: v for k, v in vars(j).items() if k != "data"}
            | {"data": {k: v for k, v in (j.data or {}).items() if k not in ("stats", "stdout", "warm")}}
            | {"warm_s": [call["s"] for call in (j.data or {}).get("warm", ())]}
            for j in jobs
        ],
    }
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if not metrics:
        print("bench: nothing was measured", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
