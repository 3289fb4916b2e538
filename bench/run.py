"""Order-level benchmark for agentmesh.

    python3 bench/run.py --workload forged_bids --seed 1 --seconds 20 --trace 0

Runs orders (one `run_scenario` call each) as a closed loop with one client
in one process for --seconds, checks every report, and prints one JSON
object as the last line of standard output. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs the same orders untraced and then
traced and reports the per-layer metrics. bench/README.md has the details.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
program cannot be imported.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 4  # extra fresh-process set-ups; setup_s is the median of 1 + these

END_TO_END = (
    ("orders_per_s", "1/s"),
    ("order_ms_p50", "ms"),
    ("order_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_program() -> None:
    """Put this checkout's src/ and the benchmark's own modules on the path
    and import them; refuse an agentmesh installed anywhere else."""
    sys.path[:0] = [SRC, HERE]
    import agentmesh

    origin = os.path.abspath(agentmesh.__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"agentmesh imported from {origin}, not from {SRC}")
    import machine  # noqa: F401
    import spans  # noqa: F401
    import workloads  # noqa: F401


class Orders:
    """Per-order seeds, timings, machine-speed factors, check results and
    output digests of one loop, in order."""

    def __init__(self) -> None:
        self.seeds: list[int] = []
        self.seconds: list[float] = []  # wall time of the run_scenario call
        self.steps: list[float] = []  # wall time of the whole loop step
        self.problems: list[list[str]] = []
        self.digests: list[str] = []
        self.factors: list[float] = []  # machine speed, set once the loop ends

    def add(self, seed, seconds, step, problems, digest) -> None:
        self.seeds.append(seed)
        self.seconds.append(seconds)
        self.steps.append(step)
        self.problems.append(problems)
        self.digests.append(digest)

    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()

    def failed(self) -> int:
        return sum(bool(p) for p in self.problems)

    def adjusted_ms(self) -> list[float]:
        return [s * f * 1000 for s, f in zip(self.seconds, self.factors)]

    def adjusted_busy_s(self) -> float:
        return sum(s * f for s, f in zip(self.steps, self.factors))


def run_order(workload, config):
    """One order, timed from the run_scenario call to its return."""
    workload.prepare(config)
    t0 = time.perf_counter()
    report = workload.run(config)
    seconds = time.perf_counter() - t0
    workload.release()
    return report, seconds


def set_up(name: str, seed: int):
    """Workload generation, per-run preparation and one untimed warm-up order."""
    import workloads as W

    workload = W.WORKLOADS[name]()
    workload.setup(W.order_seed(seed, 0))
    report, _ = run_order(workload, workload.config(W.order_seed(seed, -1)))
    problems = workload.check(report)
    if problems:
        raise RuntimeError(f"warm-up order failed: {'; '.join(problems)}")
    return workload


def run_loop(workload, seeds, reference, recorder=None, totals=None) -> Orders:
    """Closed loop over `seeds`: order i+1 starts when order i has returned.
    The machine-speed reference is measured between orders, outside every
    timing. With a recorder, each order's spans are folded into `totals`."""
    import workloads as W

    orders = Orders()
    reference_ms = [reference.measure_ms()]
    for seed in seeds:
        t0 = time.perf_counter()
        config = workload.config(seed)
        workload.prepare(config)
        if recorder is not None:
            recorder.take()  # drop what starting a service pair recorded
        t1 = time.perf_counter()
        report = workload.run(config)
        seconds = time.perf_counter() - t1
        recorded = recorder.take() if recorder is not None else None
        workload.release()
        problems = workload.check(report)
        digest = W.order_digest(report)
        step = time.perf_counter() - t0
        reference_ms.append(reference.measure_ms())
        if recorded is not None:
            totals.add_order(*recorded, len(report.transcript))
        orders.add(seed, seconds, step, problems, digest)
    orders.factors = reference.speed_factors(reference_ms)
    return orders


def timed_seeds(workload_seed: int, seconds: float):
    """Order seeds for as long as the loop asks within `seconds`, and at
    least one."""
    import workloads as W

    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        yield W.order_seed(workload_seed, i)
        i += 1


def verify_after(workload, orders: Orders) -> bool:
    """Untimed checks after the loop: the workload's post checks on every
    order, and a byte-for-byte re-run of the first order."""
    import workloads as W

    workload.finish()
    for i, (seed, digest) in enumerate(zip(orders.seeds, orders.digests)):
        orders.problems[i] += workload.post_check(workload.config(seed), digest)
    rerun, _ = run_order(workload, workload.config(orders.seeds[0]))
    workload.finish()
    if W.order_digest(rerun) != orders.digests[0]:
        orders.problems[0].append("re-run of the first order differs")
    return orders.failed() == 0


def setup_sample(reference) -> float:
    """Seconds from benchmark start until now, at reference speed."""
    seconds = time.perf_counter() - START
    return seconds * reference.nominal_ms / reference.measure_ms()


def measure_setup_s(args, own_setup_s: float) -> float:
    """Median of this process's set-up time and SETUP_PROBES fresh ones."""
    samples = [own_setup_s]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def order_metrics(orders: Orders) -> dict[str, float]:
    """orders_per_s, order_ms_p50 and order_ms_p90 at reference speed."""
    ms = orders.adjusted_ms()
    return {
        "orders_per_s": len(ms) / orders.adjusted_busy_s(),
        "order_ms_p50": statistics.median(ms),
        "order_ms_p90": p90(ms),
    }


def end_to_end(args, reference):
    workload = set_up(args.workload, args.seed)
    own_setup_s = setup_sample(reference)
    orders = run_loop(workload, timed_seeds(args.seed, args.seconds), reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = verify_after(workload, orders)
    values = order_metrics(orders)
    values["setup_s"] = measure_setup_s(args, own_setup_s)
    values["peak_rss_mb"] = peak_rss_mb
    return values, END_TO_END, orders, [orders], correct


def per_layer(args, reference):
    import spans

    workload = set_up(args.workload, args.seed)
    plain = run_loop(workload, timed_seeds(args.seed, args.seconds / 2), reference)
    totals, recorder = spans.LayerTotals(), spans.Recorder()
    with spans.Tracer(recorder):
        traced = run_loop(workload, plain.seeds, reference, recorder, totals)
    correct = verify_after(workload, plain) and traced.failed() == 0
    if traced.sha256() != plain.sha256():
        print("traced output_sha256 differs from the untraced run", file=sys.stderr)
        correct = False
    overhead = sum(traced.adjusted_ms()) / sum(plain.adjusted_ms()) - 1
    values = totals.metrics(traced.factors, overhead)
    return values, spans.PER_LAYER, plain, [plain, traced], correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("forged_bids", "fleet", "services"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time in seconds and exit")
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    import machine
    import workloads as W

    reference = machine.Reference(W.WORKLOADS[args.workload].reference_round_trips)
    try:
        if args.setup_only:
            workload = set_up(args.workload, args.seed)
            print(f"{setup_sample(reference):.6f}")
            workload.finish()
            return 0
        measure = per_layer if args.trace else end_to_end
        values, table, orders, runs, correct = measure(args, reference)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        reference.close()
    attempted = sum(len(r.seconds) for r in runs)
    failed = sum(r.failed() for r in runs)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    wall = {
        "orders_per_s": len(orders.steps) / sum(orders.steps),
        "order_ms_p50": statistics.median(orders.seconds) * 1000,
        "order_ms_p90": p90(orders.seconds) * 1000,
        "speed_factor_p50": statistics.median(orders.factors),
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"orders {len(orders.seconds)}")
    for name, unit in table:
        print(f"  {name:34s} {values[name]:14.4f} {unit}")
    print(f"  {'order_fail_ratio':34s} {failed / attempted:14.4f} ratio")
    print("  unadjusted wall clock: " + "  ".join(f"{k} {v:.4f}" for k, v in wall.items()))
    print(f"  output_sha256 {orders.sha256()}")
    for i, problems in enumerate(p for r in runs for p in r.problems):
        for problem in problems:
            print(f"  order {i} failed: {problem}")

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "metrics": metrics,
            "unadjusted_wall_clock": wall,
            "order_fail_ratio": failed / attempted,
            "output_sha256": orders.sha256(),
            "order_sha256": orders.digests,
        }, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
