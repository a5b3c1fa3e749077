"""Benchmark of ``qergo run`` from outside the library.

Usage, from the root of a checkout:

    python3 bench/run.py --workload frac_rev --seed 1 --seconds 30 --trace 0

The workloads are in ``workloads.py``.  With ``--trace 0`` it prints the
end-to-end metrics, each a median over the samples taken in ``--seconds``:

- ``run_s``: one ``parse_config`` + ``run_experiment`` in a warm worker process,
  after one untimed pass of the small chain_mc config;
- ``cli_s``: ``python -m qergo.cli run <cfg>`` as a fresh process;
- ``peak_rss_mb``: ``ru_maxrss`` of that fresh process;
- ``setup_s``: import of ``qergo.cli``, config parsing and ``zoo_build`` in a
  fresh process, before any operator is formed;
- ``correct_share``: runs whose output matches ``reference.json`` over runs
  attempted, i.e. one minus the failure share ``fail_rate``.

These runs pin BLAS to one thread (``E2E_BLAS_THREADS``) and leave
``QERGO_THREADS`` unset.

With ``--trace 1`` it prints the per-layer metrics of ``tracing.PER_LAYER``
from traced passes in the same warm worker.  Every pass and every CLI run is
checked against the reference (``check.py``).  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TASK_TIMEOUT_S = 150.0
MAX_WALL_S = 160.0  # scheduling stops here even if a minimum is not met

# Share of --seconds given to each kind of sample, and the fewest taken.
SHARES = {"setup_s": 0.15, "cli_s": 0.35, "run_s": 0.5}
MIN_SAMPLES = {"setup_s": 3, "cli_s": 1, "run_s": 1}
TRACE_SHARES = {"untraced": 1 / 3, "traced": 1 / 3, "traced_1t": 1 / 3}
# End-to-end runs pin BLAS to one thread.  On a shared 2-core host, repeated
# cycle_nonrev passes in one process took 8.04-8.09 s on one thread and
# 6.7-7.6 s on two, and with another process busy on one core two-thread
# OpenBLAS made the 12x12 exponentials of chain_mc ~70x slower.  The traced
# run uses nproc threads and reports the one-thread span beside them.
E2E_BLAS_THREADS = 1
E2E_UNITS = {"run_s": "s", "cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(out_dir: Path, blas_threads: int) -> dict:
    env = dict(os.environ)
    env.pop("QERGO_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["QERGO_OUTPUT_DIR"] = str(out_dir)
    return env


def clear(out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)


class Worker:
    """A warm ``worker.py serve`` process, one JSON line each way per command."""

    def __init__(self, cfg: Path, out_dir: Path, blas_threads: int):
        self.out_dir = out_dir
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "serve", str(cfg)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(out_dir, blas_threads),
        )
        self.provenance = self._read()["provenance"]

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], TASK_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("benchmark worker exited or timed out")
        return json.loads(line)

    def call(self, cmd: str, **args) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.write('{"cmd": "quit"}\n')
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.seconds = seconds
        self.work = HERE / ".work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.cfg = workloads.write_config(ROOT, workload, seed, self.work / "config.ini")
        self.warmup_cfg = workloads.write_config(ROOT, "chain_mc", seed, self.work / "warmup.ini")
        ref = json.loads((HERE / "reference.json").read_text())["workloads"][workload]
        self.ref = check.expected(ref, workloads.mc_seed(workload, seed))
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.n = None

    def tally(self, what: str, out_dir: Path, code: int, error: str | None = None) -> None:
        found = [error] if error else check.problems(out_dir, code, self.ref)
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(found[:5]))

    def warm_up(self, worker: Worker) -> None:
        """One untimed, unchecked pass of the small chain_mc config, which runs
        every diagnostic and the package's lazy imports."""
        clear(worker.out_dir)
        worker.call("run", config=str(self.warmup_cfg))

    def pass_(self, worker: Worker) -> dict:
        clear(worker.out_dir)
        r = worker.call("run")
        self.tally("run", worker.out_dir, r["code"], r["error"])
        return r

    def cli_run(self) -> tuple[float, float]:
        out = self.work / "cli"
        clear(out)
        t = time.perf_counter()
        with open(self.work / "cli_stderr.txt", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "qergo.cli", "run", str(self.cfg)],
                stdout=subprocess.DEVNULL, stderr=err, env=child_env(out, E2E_BLAS_THREADS),
            )
        watchdog = threading.Timer(TASK_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - t
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.tally("cli", out, code)
        return elapsed, usage.ru_maxrss * 1024 / 1e6

    def setup_probe(self) -> float:
        r = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "setup", str(self.cfg)],
            capture_output=True, text=True, timeout=TASK_TIMEOUT_S,
            env=child_env(self.work / "setup", E2E_BLAS_THREADS),
        )
        if r.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {r.stderr.strip()[-500:]}")
        out = json.loads(r.stdout.splitlines()[-1])
        self.n = out["n"]
        return out["setup_s"]

    def schedule(self, shares: dict, minimum: dict, tasks: dict, t0: float) -> dict:
        """Run the tasks until --seconds is spent, each kind near its share of it."""
        samples = {k: [] for k in shares}
        spent = dict.fromkeys(shares, 0.0)
        cost = {}
        while True:
            elapsed = time.perf_counter() - t0
            pending = [k for k in shares if len(samples[k]) < minimum[k]]
            kind = min(pending or shares, key=lambda k: spent[k] / shares[k])
            if elapsed > MAX_WALL_S or (not pending and elapsed + cost[kind] > self.seconds):
                return samples
            t = time.perf_counter()
            samples[kind].append(tasks[kind]())
            cost[kind] = time.perf_counter() - t
            spent[kind] += cost[kind]

    def measure(self) -> tuple[dict, dict]:
        t0 = time.perf_counter()
        worker = Worker(self.cfg, self.work / "warm", E2E_BLAS_THREADS)
        try:
            self.warm_up(worker)
            samples = self.schedule(SHARES, MIN_SAMPLES, {
                "setup_s": self.setup_probe,
                "cli_s": self.cli_run,
                "run_s": lambda: self.pass_(worker)["s"],
            }, t0)
        finally:
            worker.close()
        cli = samples.pop("cli_s")
        samples["cli_s"] = [s for s, _ in cli]
        samples["peak_rss_mb"] = [m for _, m in cli]
        return samples, worker.provenance

    def measure_traced(self) -> tuple[dict, dict]:
        t0 = time.perf_counter()
        worker = Worker(self.cfg, self.work / "warm", nproc())

        def traced(threads: int) -> dict:
            worker.call("trace", on=True)
            worker.call("threads", n=threads)
            r = self.pass_(worker)
            worker.call("threads", n=nproc())
            worker.call("trace", on=False)
            r["layers"]["cli.output_bytes"] = sum(p.stat().st_size for p in worker.out_dir.iterdir())
            return r["layers"]

        try:
            self.warm_up(worker)
            samples = self.schedule(TRACE_SHARES, dict.fromkeys(TRACE_SHARES, 1), {
                "untraced": lambda: self.pass_(worker)["s"],
                "traced": lambda: traced(nproc()),
                "traced_1t": lambda: traced(1),
            }, t0)
            self.setup_probe()  # for n in the provenance
        finally:
            worker.close()
        return samples, worker.provenance


def end_to_end(samples: dict, bench: Bench) -> dict:
    metrics = {k: {"value": median(samples[k]), "unit": u, "samples": samples[k]}
               for k, u in E2E_UNITS.items()}
    metrics["correct_share"] = {
        "value": (bench.attempted - bench.failed) / bench.attempted, "unit": "ratio",
        "samples": None,
    }
    return metrics


def per_layer(samples: dict, table: dict) -> dict:
    """Medians over the traced passes of the metrics in ``table``."""
    traced, single = samples["traced"], samples["traced_1t"]
    metrics = {}
    for name, (unit, _, _) in table.items():
        if name.endswith("_1t_s"):
            values = [s.get(name.replace("_1t_s", "_s"), 0.0) for s in single]
        elif name == "bench.trace_overhead_s":
            values = [median([s["cli.run_experiment_s"] for s in traced]) - median(samples["untraced"])]
        else:
            values = [s.get(name, 0) for s in traced]
        metrics[name] = {"value": median(values), "unit": unit, "samples": values}
    return metrics


def describe(xs: list | None) -> str:
    """Sample count and spread; past 10 samples also the highest percentile
    that has 10 samples beyond it."""
    if xs is None:
        return "share of runs"
    text = f"median of {len(xs)}, range {min(xs):.5g}..{max(xs):.5g}"
    if len(xs) >= 20:
        text += f", p{100 * (len(xs) - 10) // len(xs)} {sorted(xs)[-11]:.5g}"
    return text


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def caches() -> dict:
    """Cache sizes of CPU 0 as the kernel reports them, e.g. {"L2": "2048K"}."""
    found = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                found[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return found


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qergo" / "cli.py").is_file():
        print(f"error: no qergo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    detail = {}
    if args.trace:
        samples, prov = bench.measure_traced()
        metrics = per_layer(samples, tracing.PER_LAYER)
        detail = per_layer(samples, tracing.DETAIL)
    else:
        samples, prov = bench.measure()
        metrics = end_to_end(samples, bench)

    prov.update({
        "nproc": nproc(), "caches": caches(), "git_commit": git_commit(),
        "src_sha256": src_digest(), "seed": args.seed,
        "mc_seed": workloads.mc_seed(args.workload, args.seed), "workload": args.workload,
        "n": bench.n, "matrix_mb": bench.n**2 * 8 / 1e6, "seconds": args.seconds,
    })
    print("provenance " + json.dumps(prov, sort_keys=True))
    for problem in bench.problems:
        print("FAILED " + problem)
    print(f"{args.workload}: attempted {bench.attempted} failed {bench.failed} "
          f"fail_rate {bench.failed / bench.attempted:.4g} ratio")
    moves = {**tracing.PER_LAYER, **tracing.DETAIL}
    for title, table in (("", metrics), ("detail, left out of the result line:", detail)):
        if title and table:
            print(f"  {title}")
        for name, m in table.items():
            note = f"  -> {moves[name][2]}" if name in moves else ""
            print(f"  {name:44s} {m['value']:>14.6g} {m['unit']:6s} ({describe(m['samples'])}){note}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
