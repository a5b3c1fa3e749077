"""Child process of the benchmark; ``run.py`` starts it, never a user.

``worker.py setup CONFIG`` times, in a fresh process, the import of
``qergo.cli``, parsing CONFIG and building its model, and prints
``{"setup_s": ..., "n": ...}``.

``worker.py serve CONFIG`` imports qergo once, prints a provenance line and
then answers one JSON command per stdin line with one JSON line:

- ``{"cmd": "run"}``: one ``parse_config`` + ``run_experiment`` pass of CONFIG
  (or of ``"config"`` when given), with outputs in ``$QERGO_OUTPUT_DIR``; replies
  ``{"s", "code", "error", "layers"}``, where ``layers`` is the pass's
  per-layer summary while tracing is on;
- ``{"cmd": "trace", "on": bool}``: install or remove the span wrappers;
- ``{"cmd": "threads", "n": int}``: set the thread count of every loaded OpenBLAS;
- ``{"cmd": "quit"}``: write the recorded spans to ``spans.jsonl`` next to
  CONFIG and exit.
"""

import time

T0 = time.perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(cfg_path: str) -> None:
    import qergo.cli  # noqa: F401  (the import is part of what is timed)
    from qergo import models
    from qergo.cli import parse_config

    cfg = parse_config(cfg_path)
    built = models.zoo_build(cfg.model_id, cfg.model_params)
    elapsed = time.perf_counter() - T0
    n = built[1].n if isinstance(built, tuple) else built.n
    print(json.dumps({"setup_s": elapsed, "n": n}))


def _openblas() -> list:
    """(name, get_threads, set_threads, config) of each OpenBLAS in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for api in ("scipy_openblas{}64_", "scipy_openblas{}", "openblas{}64_", "openblas{}"):
            get = getattr(lib, api.format("_get_num_threads"), None)
            if get is not None:
                break
        else:
            continue
        get.restype = ctypes.c_int
        conf = getattr(lib, api.format("_get_config"))
        conf.restype = ctypes.c_char_p
        found.append((Path(path).name, get, getattr(lib, api.format("_set_num_threads")),
                      conf().decode().strip()))
    return found


def provenance(blas) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {name: {"config": conf, "threads": get()} for name, get, _, conf in blas},
    }


def serve(cfg_path: str) -> None:
    import qergo.cli as cli
    import scipy.linalg  # noqa: F401  (so both OpenBLAS builds are loaded before probing)

    from tracing import Tracer

    reply_to = sys.stdout
    sys.stdout = sys.stderr  # anything the library prints must not corrupt the replies

    def reply(obj) -> None:
        reply_to.write(json.dumps(obj) + "\n")
        reply_to.flush()

    blas = _openblas()
    tracer = Tracer()
    reply({"provenance": provenance(blas)})
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "run":
            tracer.begin_run()
            error = None
            t = time.perf_counter()
            try:
                _, _, code = cli.run_experiment(cli.parse_config(cmd.get("config", cfg_path)))
            except Exception as exc:  # a failed run is counted, not fatal
                code, error = 1, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t
            layers = tracer.summary(tracer.run) if tracer.installed else None
            reply({"s": elapsed, "code": code, "error": error, "layers": layers})
        elif cmd["cmd"] == "trace":
            if cmd["on"]:
                tracer.install()
            else:
                tracer.uninstall()
            reply({"ok": True})
        elif cmd["cmd"] == "threads":
            for _, _, set_threads, _ in blas:
                set_threads(int(cmd["n"]))
            reply({"threads": [get() for _, get, _, _ in blas]})
        elif cmd["cmd"] == "quit":
            break
    if tracer.spans:
        tracer.dump(Path(cfg_path).parent / "spans.jsonl")


if __name__ == "__main__":
    mode, cfg_arg = sys.argv[1], sys.argv[2]
    if mode == "setup":
        setup(cfg_arg)
    elif mode == "serve":
        serve(cfg_arg)
    else:
        sys.exit(f"unknown mode {mode!r}")
