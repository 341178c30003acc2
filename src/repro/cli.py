"""Command-line interface: ``repro list`` / ``repro run <id> [k=v ...]``.

Examples::

    repro list
    repro run e03
    repro run e05 sizes=256,512,1024 queries=500
    repro run all quick=1
    repro run e18 obs=runs/e18        # instrumented: telemetry into runs/e18
    repro run e22 engine=fast obs=runs/e22 live=:9099
                                      # + live /metrics + /health endpoint
    repro obs summarize runs/e18      # inspect the artifacts afterwards
    repro obs phases runs/e22         # round-phase wall-clock attribution
    repro serve n=4096 api=:8080      # serve greedy-routing lookups live

Parameter values are parsed as Python literals where possible (ints,
floats, tuples via comma lists), so every driver keyword can be set from
the shell.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from collections.abc import Mapping, Sequence

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.sim.host import ENGINES

__all__ = ["main"]

#: Reduced parameter sets for ``run all quick=1`` (CI-sized smoke pass).
_QUICK_OVERRIDES: dict[str, dict[str, object]] = {
    "e01": {"sizes": (16, 32), "trials": 2},
    "e02": {"n": 24, "trials": 1, "extra_rounds": 50},
    "e03": {"n": 2**11, "trials": 2},
    "e04": {"n": 512, "horizons": (1_000, 5_000), "samples": 50},
    "e05": {"sizes": (256, 512, 1024), "queries": 400, "process_horizon": 4_000},
    "e06": {"sizes": (64, 128, 256), "trials": 2},
    "e07": {"sizes": (64, 128, 256), "trials": 2},
    "e08": {"sizes": (128, 256, 512), "measure_rounds": 5},
    "e09": {"n": 96, "fractions": (0.05, 0.2), "trials": 2},
    "e10": {"sizes": (24, 48), "trials": 2},
    "e11": {"n": 256, "horizon": 5_000, "samples": 20, "lifetime_draws": 50_000},
    "e12": {"n": 200, "k": 6, "p_points": 6, "trials": 2},
    "e13": {"sizes": (512, 2048), "queries": 500},
    "e14": {"sides": (8, 16), "queries": 400, "horizon_factor": 10},
    "e15": {"n": 32, "trials": 1},
    "e16": {"n": 512, "queries": 300, "fractions": (0.0, 0.1)},
    "e17": {"n": 48, "rates": (0.05, 0.5), "rounds": 120, "trials": 1},
    "e18": {"sizes": (16, 32, 64), "trials": 2},
    "e19": {"n": 256, "horizon": 3_000, "queries": 300},
    "e20": {"n": 24, "trials": 1, "topologies": ("random_tree",)},
    "e21": {
        "n": 48,
        # Small networks survive loss 0.2; 0.35 still demonstrably splits
        # the baseline at this scale (campaign seed 6).
        "loss_rate": 0.35,
        "burst_stop": 40,
        "rounds": 80,
        "campaign_seeds": (0, 6),
    },
    # Tiny sizes exercise the full batched-engine path; the speedup claim
    # itself only holds at real sizes (the bench runs those).
    "e22": {"sizes": (96, 192), "queries": 100, "reference_max_n": 192},
}


def _parse_value(text: str) -> object:
    """Parse a CLI parameter value: int, float, comma tuple, or string."""
    if "," in text:
        return tuple(_parse_value(part) for part in text.split(",") if part)
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(pairs: Sequence[str]) -> dict[str, object]:
    params: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"parameters must be key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        params[key] = _parse_value(value)
    return params


def _door_error(
    what: str, params: Mapping[str, object], engines: Sequence[str]
) -> str | None:
    """The one-line refusal of a bad ``engine=``, else None.

    It is answered at the door, before any state is built (``repro run``
    and ``repro serve`` print the line and exit 2).
    """
    if params.get("engine", engines[0]) not in engines:
        return (
            f"unknown {what} engine {params['engine']!r}; accepted: "
            f"{', '.join(engines)}"
        )
    return None


def _number_error(
    what: str,
    signature: Mapping[str, inspect.Parameter],
    params: Mapping[str, object],
) -> str | None:
    """The one-line refusal of a non-numeric value for a numeric parameter.

    A parameter is numeric when its driver default is a number or a
    tuple of numbers; ``sizes=abc`` used to reach the topology generator
    as a string and ``seed=x`` to seed a run with one.
    """

    def numeric(value: object) -> bool:
        return isinstance(value, (int, float))

    for key, value in params.items():
        default = signature[key].default
        if isinstance(default, tuple) and default and all(map(numeric, default)):
            parts = value if isinstance(value, tuple) else (value,)
            if value == "" or all(map(numeric, parts)):
                continue
            accepted = "numbers separated by commas"
        elif numeric(default) and not numeric(value):
            accepted = "a number"
        else:
            continue
        shown = ",".join(map(str, value)) if isinstance(value, tuple) else value
        return f"bad {what} {key}={shown}; accepted: {accepted}"
    return None


def _wrap_scalars(
    signature: Mapping[str, inspect.Parameter], params: dict[str, object]
) -> None:
    """Make ``sizes=4096`` mean ``sizes=(4096,)``, in place.

    The shell has no way to write a one-element tuple short of a trailing
    comma, so a bare scalar given for a parameter whose driver default is
    a tuple is wrapped into a 1-tuple; an empty value (``rates=``) is the
    empty tuple.
    """
    for key, value in params.items():
        if isinstance(signature[key].default, tuple) and not isinstance(
            value, tuple
        ):
            params[key] = () if value == "" else (value,)


def _run_one(experiment_id: str, params: dict[str, object]) -> None:
    params = dict(params)  # never mutate the caller's dict (run-all shares it)
    out = params.pop("out", None)
    obs_dir = params.pop("obs", None)
    live = params.pop("live", None)
    if live is not None and obs_dir is None:
        raise SystemExit("live= requires obs=DIR (the endpoint serves the run's observer)")
    spec = get_experiment(experiment_id)
    signature = inspect.signature(spec.run).parameters
    unknown = sorted(set(params) - set(signature))
    if unknown:
        print(
            f"unknown {spec.id} parameter(s): {', '.join(unknown)}; accepted: "
            f"{', '.join(signature)} (and out, obs, live)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    refusal = _door_error(spec.id, params, ENGINES) or _number_error(
        spec.id, signature, params
    )
    if refusal is not None:
        print(refusal, file=sys.stderr)
        raise SystemExit(2)
    _wrap_scalars(signature, params)
    start = time.perf_counter()
    if obs_dir is not None:
        from repro.obs.harness import instrumented_run

        result = instrumented_run(
            spec.run, params, str(obs_dir), experiment=spec.id, live=live
        )
    else:
        result = spec.run(**params)
    elapsed = time.perf_counter() - start
    print(result.table())
    print(f"(elapsed: {elapsed:.1f}s)")
    if obs_dir is not None:
        print(f"(telemetry: {obs_dir} — inspect with 'repro obs summarize')")
    if out is not None:
        from repro.analysis.export import write_result

        write_result(result, str(out))
        print(f"(written: {out})")
    print()


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'A Self-Stabilization Process "
        "for Small-World Networks' (IPDPS Workshops 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment id (e01..e21) or 'all'")
    run_p.add_argument(
        "params",
        nargs="*",
        help="driver keyword overrides as key=value (tuples via commas)",
    )
    report_p = sub.add_parser(
        "report", help="run every experiment and write a Markdown report"
    )
    report_p.add_argument(
        "params",
        nargs="*",
        help="options: out=REPORT.md quick=1 only=e03,e05",
    )
    sub.add_parser(
        "obs",
        help="inspect run telemetry (summarize / tail / validate)",
        add_help=False,
    )
    sub.add_parser(
        "serve",
        help="serve greedy-routing lookups off a converging overlay",
        add_help=False,
    )
    # ``repro obs`` / ``repro serve`` own their own argv tails so their
    # flags and key=value parameters never collide with this parser.
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "obs":
        from repro.obs.cli import main as obs_main

        return obs_main(list(argv[1:]))
    if argv and argv[0] == "serve":
        from repro.serve.cli import main as serve_main

        return serve_main(list(argv[1:]))
    args = parser.parse_args(argv)

    if args.command == "list":
        for spec in EXPERIMENTS.values():
            print(f"{spec.id}  {spec.title}")
        return 0

    if args.command == "report":
        from repro.report import write_report

        options = _parse_params(args.params)
        out = str(options.pop("out", "REPORT.md"))
        quick = bool(options.pop("quick", True))
        only = options.pop("only", None)
        if isinstance(only, str):
            only = (only,)
        write_report(out, quick=quick, only=only)
        print(f"report written: {out}")
        return 0

    params = _parse_params(args.params)
    if args.experiment == "all":
        quick = bool(params.pop("quick", False))
        for spec in EXPERIMENTS.values():
            overrides = dict(_QUICK_OVERRIDES.get(spec.id, {})) if quick else {}
            overrides.update(params)
            _run_one(spec.id, overrides)
        return 0
    try:
        _run_one(args.experiment, params)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream closed early (e.g. `repro list | head`); exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
