"""Command-line front end: config-driven estimation runs, diagnostics and
the built-in validation suites.

Exit codes: 0 success, 2 config error, 3 zero-hit/rare-event failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import engine, laws, problems
from .constraints import constraint_from_dict
from .divergence import (
    AnchoredKL,
    BlendedWeightChiSq,
    GenAsymLaplace,
    Generator,
    GeneralizedKL,
    PowerGamma,
    TwoPoint,
    check_nonneg_vector,
)
from .engine import EstimatorConfig, ProxySpec
from .entropy import (
    EntropySpec,
    arimoto,
    havrda_charvat,
    hill_number,
    gamma_norm,
    patil_taillie,
    renyi_entropy,
    shannon,
    sharma_mittal1,
    sharma_mittal2,
)
from .jsonread import (
    ConfigError,
    as_integer,
    as_list,
    as_number,
    as_numbers,
    as_object,
    as_string,
    field,
    whole,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ZERO_HITS = 3
EXIT_VALIDATION = 4


def _load_config(path: str) -> dict:
    """The parsed config; each command's builders read and check its sections."""
    return as_object(json.loads(Path(path).read_text()), "config")


# generator families; a family's dataclass fields are its section's keys
_GENERATORS = {
    "power": PowerGamma,
    "generalized_kl": GeneralizedKL,
    "anchored_kl": AnchoredKL,
    "blended_chisq": BlendedWeightChiSq,
    "two_point": TwoPoint,
    "asym_laplace": GenAsymLaplace,
}


def _construct(cls, where: str, *args, **kwargs):
    """``cls(*args, **kwargs)``; a key that is not a field of ``cls``, a
    missing one, or a value the constructor refuses is an error at ``where``."""
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where.split('/')[0]} settings: {where}: {exc}") from exc


def _generator(spec, where: str) -> Generator:
    spec = as_object(spec, where)
    family = field(spec, "family", as_string, path=where)
    if family not in _GENERATORS:
        raise ConfigError(f"{where}/family: unknown generator family {family!r}")
    params = {key: as_number(v, f"{where}/{key}") for key, v in spec.items() if key != "family"}
    return _construct(_GENERATORS[family], where, **params)


# entropy presets: the preset and the config keys of its arguments
_ENTROPY_PRESETS = {
    "shannon": (shannon, ()),
    "sm2": (sharma_mittal2, ("s",)),
    "renyi": (renyi_entropy, ("gamma",)),
    "havrda_charvat": (havrda_charvat, ("gamma",)),
    "hill": (hill_number, ("gamma",)),
    "gamma_norm": (gamma_norm, ("gamma",)),
    "arimoto": (arimoto, ("order",)),
    "sharma_mittal": (sharma_mittal1, ("gamma", "s")),
    "patil_taillie": (patil_taillie, ("s",)),
}


def _entropy(spec, where: str) -> EntropySpec:
    """A preset with its arguments, or an ``EntropySpec`` whose fields are
    the section's keys."""
    spec = as_object(spec, where)
    if "preset" not in spec:
        params = {key: as_number(v, f"{where}/{key}") for key, v in spec.items() if key != "kind"}
        return _construct(EntropySpec, where, field(spec, "kind", as_string, path=where), **params)
    preset = field(spec, "preset", as_string, path=where)
    if preset not in _ENTROPY_PRESETS:
        raise ConfigError(f"{where}/preset: unknown entropy preset {preset!r}")
    build, keys = _ENTROPY_PRESETS[preset]
    unknown = sorted(set(spec) - {"preset", *keys})
    if unknown:
        raise ConfigError(f"{where}: preset {preset!r} takes no key {unknown[0]!r}")
    return _construct(build, where, *(field(spec, key, as_number, path=where) for key in keys))


def _whole(spec: dict) -> dict:
    """The settings with every integral float made an int."""
    return {key: whole(v) for key, v in spec.items()}


def _config_from_dict(spec: dict, overrides) -> EstimatorConfig:
    """The estimator settings.  Every key the config sets goes through:
    the defaults and the rules live only in EstimatorConfig and ProxySpec,
    and an unknown key is an error."""
    est = dict(field(spec, "estimator", as_object, {}))
    for key in ("n", "L", "seed", "threads"):
        val = getattr(overrides, key, None)
        if val is not None:
            est[key] = val
    proxy = dict(field(est, "proxy", as_object, {}, path="estimator"))
    est.pop("proxy", None)
    if "q_star" in proxy:
        proxy["q_star"] = field(proxy, "q_star", as_numbers, path="estimator/proxy")
    proxy = _construct(ProxySpec, "estimator/proxy", **_whole(proxy))
    return _construct(EstimatorConfig, "estimator", **_whole(est), proxy=proxy)


def _load_reference(spec: dict):
    ref = field(spec, "reference_vector", as_numbers, None)
    data_file = field(spec, "data_file", as_string, None)
    if ref is not None and data_file is not None:
        raise ConfigError("data_file: a config takes reference_vector or data_file, not both")
    if ref is not None:
        return _construct(check_nonneg_vector, "reference_vector", ref), None
    if data_file is not None:
        lines = Path(data_file).read_text().split()
        if not lines:
            raise ConfigError("data file is empty")
        return None, engine.ingest_sample(lines)
    raise ConfigError("config needs reference_vector or data_file")


def _estimate_payload(est: engine.Estimate, extra: dict | None = None) -> dict:
    payload = {
        "value": est.value if math.isfinite(est.value) else None,
        "log_pi_hat": est.log_pi_hat if math.isfinite(est.log_pi_hat) else None,
        "hits": est.hits,
        "hit_rate": est.hit_rate,
        "stderr": est.stderr if math.isfinite(est.stderr) else None,
        "stderr_log_pi": est.stderr_log_pi if math.isfinite(est.stderr_log_pi) else None,
        "n": est.n,
        "L": est.L,
        "seed": est.seed,
        "warnings": list(est.warnings),
        "bias_correction": est.bias_correction,
    }
    if extra:
        payload.update(extra)
    return payload


def _emit(payload: dict, out: str | None, trace: np.ndarray | None = None,
          trace_path: str | None = None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)
    if trace is not None and trace_path:
        lines = ["batch,log_mean"]
        lines += [f"{i},{v}" for i, v in enumerate(trace)]
        Path(trace_path).write_text("\n".join(lines) + "\n")


def _run(args, solve) -> int:
    """Shared body of the estimation commands: load and read the config,
    solve, and write the result and the per-batch trace where ``--out`` or
    the config's ``output`` section asks.  ``solve(spec, config)`` returns
    the estimate and the extra payload fields.  A top-level key the command
    does not read is an error."""
    spec = _load_config(args.config)
    unknown = sorted(set(spec) - {"estimator", "output", *_KEYS[args.command]})
    if unknown:
        raise ConfigError(f"{unknown[0]}: the {args.command} command reads no key "
                          f"{unknown[0]!r}")
    config = _config_from_dict(spec, args)
    output = field(spec, "output", as_object, {})
    result = field(output, "result", as_string, None, path="output")
    trace = field(output, "trace", as_string, None, path="output")
    est, extra = solve(spec, config)
    _emit(_estimate_payload(est, extra), args.out or result,
          trace=est.batch_log_means, trace_path=trace)
    return EXIT_ZERO_HITS if est.hits == 0 else EXIT_OK


def _divergence_inputs(spec: dict):
    """Generator, constraint set, reference (vector or observed-sample
    partition) and mode of an ``estimate`` or ``bounds`` config."""
    gen = field(spec, "generator", _generator)
    omega = field(spec, "constraint", constraint_from_dict)
    ref, part = _load_reference(spec)
    mode = field(spec, "mode", as_string, "simplex" if part is None else "empirical")
    return gen, omega, part if part is not None else ref, mode


def _solve_estimate(spec: dict, config: EstimatorConfig):
    gen, omega, P, mode = _divergence_inputs(spec)
    target = field(spec, "target", as_string, None)
    est = engine.estimate_min_divergence(gen, P, omega, config, mode=mode, target=target)
    return est, {"mode": mode, "target": target or "default"}


def _solve_entropy_max(spec: dict, config: EstimatorConfig):
    est = engine.estimate_entropy_extremum(
        field(spec, "entropy", _entropy), field(spec, "K", as_integer),
        field(spec, "constraint", constraint_from_dict), config,
    )
    return est, {"kind": "entropy"}


def _solve_bounds(spec: dict, config: EstimatorConfig):
    gen, omega, P, mode = _divergence_inputs(spec)
    # the bounds are on the divergence, the target an estimate config may name
    if field(spec, "target", as_string, "divergence") != "divergence":
        raise ConfigError("target: the only target of bounds is 'divergence'")
    lower, upper, q_hat, est = engine.bounds_general(gen, P, omega, config, mode=mode)
    return est, {
        "lower": lower if math.isfinite(lower) else None,
        "upper": upper if math.isfinite(upper) else None,
        "q_hat": None if q_hat is None else list(map(float, q_hat)),
    }


def _floats(spec: dict, *keys) -> dict:
    """The optional number fields the config sets; the rest keep their defaults."""
    return {key: field(spec, key, as_number) for key in keys if key in spec}


def _matrix(value, where: str) -> np.ndarray:
    return np.array([as_numbers(row, f"{where}/{i}")
                     for i, row in enumerate(as_list(value, where))])


# problem instance builders, one per problem command
_PROBLEMS = {
    "quadratic": lambda spec: problems.SeparableQuadratic(
        c1=field(spec, "c1", as_numbers), c2=field(spec, "c2", as_numbers),
        c3=field(spec, "c3", as_numbers), omega=field(spec, "constraint", constraint_from_dict),
    ),
    "transport": lambda spec: problems.Transport(
        mu=field(spec, "mu", as_numbers), nu=field(spec, "nu", as_numbers),
        side=field(spec, "side", constraint_from_dict, None), **_floats(spec, "band"),
    ),
    "assignment": lambda spec: problems.Assignment(
        costs=field(spec, "costs", _matrix), side=field(spec, "side", constraint_from_dict, None),
        **_floats(spec, "eps1", "eps2"),
    ),
}


def _solve_problem(build):
    def solve(spec: dict, config: EstimatorConfig):
        report = problems.solve(build(spec), config)
        return report.estimate, {"value": report.value, **report.details}

    return solve


# the top-level keys each estimation command reads besides estimator and output
_DIVERGENCE_KEYS = ("generator", "constraint", "reference_vector", "data_file", "mode",
                    "target")
_KEYS = {
    "estimate": _DIVERGENCE_KEYS, "bounds": _DIVERGENCE_KEYS,
    "entropy-max": ("entropy", "K", "constraint"), "quadratic": ("c1", "c2", "c3", "constraint"),
    "transport": ("mu", "nu", "side", "band"), "assignment": ("costs", "side", "eps1", "eps2"),
}

_COMMANDS = {
    "estimate": _solve_estimate,
    "entropy-max": _solve_entropy_max,
    "bounds": _solve_bounds,
    **{name: _solve_problem(build) for name, build in _PROBLEMS.items()},
}


def _cmd_sample_law(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1 (got {args.count})")
    spec = _load_config(args.config) if args.config else {}
    gen = field(spec, "generator", _generator, None)
    if gen is None:
        gen = PowerGamma(float(args.gamma), 1.0)
    law = laws.law_for_generator(gen)
    draws = law.sample_tilted_block(0.0, 1, engine._rng(args.seed), args.count)
    payload = {
        "law": type(law).__name__,
        "mean": float(draws.mean()),
        "var": float(draws.var(ddof=1)) if args.count > 1 else None,
        "draws": [float(x) for x in draws[: min(args.count, 20)]],
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    import subprocess

    # the suite ships with a source checkout: <root>/src/baresim/cli.py
    suite = Path(__file__).resolve().parents[2] / "tests" / "test_acceptance.py"
    if not suite.is_file():
        print(f"validation error: acceptance suite not found at {suite}; "
              "run validate from a source checkout", file=sys.stderr)
        return EXIT_VALIDATION
    cmd = [sys.executable, "-m", "pytest", str(suite), "-v"]
    if args.quick:
        cmd += ["-k", "not slow"]
    proc = subprocess.run(cmd)
    return EXIT_OK if proc.returncode == 0 else EXIT_VALIDATION


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call: building it
    costs some twenty times what parsing does, and parsing leaves it as it
    was, so every call of ``main`` shares it."""
    parser = argparse.ArgumentParser(
        prog="baresim",
        description="Constrained divergence minimization by rare-event simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="result JSON path (default: stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--L", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)

    for name, solve in _COMMANDS.items():
        p = sub.add_parser(name)
        add_common(p)
        p.set_defaults(fn=lambda args, solve=solve: _run(args, solve))

    p = sub.add_parser("sample-law", help="diagnostic draws from a weight law")
    p.add_argument("--config", help="JSON config with a generator section")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sample_law)

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, KeyError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ZERO_HITS


if __name__ == "__main__":
    sys.exit(main())
