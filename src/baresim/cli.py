"""Command-line front end: config-driven estimation runs, diagnostics and
the built-in validation suites.

Exit codes: 0 success, 2 config error, 3 zero-hit/rare-event failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import engine, laws, problems
from .divergence import (
    AnchoredKL,
    BlendedWeightChiSq,
    GenAsymLaplace,
    Generator,
    GeneralizedKL,
    PowerGamma,
    TwoPoint,
)
from .constraints import constraint_from_dict
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ZERO_HITS = 3
EXIT_VALIDATION = 4


class ConfigError(Exception):
    pass


def _load_and_validate(path: str) -> dict:
    spec = json.loads(Path(path).read_text())
    try:
        import jsonschema
    except ImportError as exc:
        raise ConfigError(
            f"cannot validate the config: jsonschema is not installed ({exc})") from exc
    schema_file = Path(__file__).with_name("config.schema.json")
    if not schema_file.is_file():
        raise ConfigError(
            f"cannot validate the config: schema file {schema_file} is missing")
    schema = json.loads(schema_file.read_text())
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(spec), key=lambda e: list(e.path))
    if errors:
        locs = "; ".join(
            f"{'/'.join(str(p) for p in e.path) or '<root>'}: {e.message}"
            for e in errors[:5]
        )
        raise ConfigError(f"schema violations: {locs}")
    return spec


def _generator_from_dict(spec: dict) -> Generator:
    try:
        family = spec["family"]
        if family == "power":
            return PowerGamma(float(spec["gamma"]), float(spec.get("scale", 1.0)))
        if family == "generalized_kl":
            return GeneralizedKL(float(spec["alpha"]), float(spec.get("scale", 1.0)))
        if family == "anchored_kl":
            return AnchoredKL(float(spec["anchor"]), float(spec.get("scale", 1.0)))
        if family == "blended_chisq":
            return BlendedWeightChiSq(float(spec["beta"]), float(spec.get("scale", 1.0)))
        if family == "two_point":
            return TwoPoint(float(spec["z1"]), float(spec["z2"]))
        if family == "asym_laplace":
            return GenAsymLaplace(
                float(spec["alpha"]), float(spec["beta1"]), float(spec["beta2"]),
                float(spec.get("scale", 1.0)),
            )
    except KeyError as exc:
        raise ConfigError(f"generator spec missing field {exc}") from exc
    raise ConfigError(f"unknown generator family {spec.get('family')!r}")


_ENTROPY_PRESETS = {
    "shannon": lambda spec: shannon(),
    "sm2": lambda spec: sharma_mittal2(float(spec["s"])),
    "renyi": lambda spec: renyi_entropy(float(spec["gamma"])),
    "havrda_charvat": lambda spec: havrda_charvat(float(spec["gamma"])),
    "hill": lambda spec: hill_number(float(spec["gamma"])),
    "gamma_norm": lambda spec: gamma_norm(float(spec["gamma"])),
    "arimoto": lambda spec: arimoto(float(spec["order"])),
    "sharma_mittal": lambda spec: sharma_mittal1(float(spec["gamma"]), float(spec["s"])),
    "patil_taillie": lambda spec: patil_taillie(float(spec["s"])),
}


def _entropy_from_dict(spec: dict) -> EntropySpec:
    preset = spec.get("preset")
    if preset:
        if preset not in _ENTROPY_PRESETS:
            raise ConfigError(f"unknown entropy preset {preset!r}")
        return _ENTROPY_PRESETS[preset](spec)
    return EntropySpec(
        kind=spec["kind"],
        gamma=float(spec.get("gamma", 0.0)),
        c1=float(spec.get("c1", 1.0)),
        c2=float(spec.get("c2", 1.0)),
        c3=float(spec.get("c3", 0.0)),
        c4=float(spec.get("c4", 1.0)),
        fprime0=float(spec.get("fprime0", 1.0)),
        s=float(spec.get("s", 0.0)),
    )


def _whole(spec: dict) -> dict:
    """The settings with every integral float (a JSON ``1e5``, which the
    schema accepts as an integer) made an int."""
    return {key: int(v) if isinstance(v, float) and v.is_integer() else v
            for key, v in spec.items()}


def _config_from_dict(spec: dict, overrides) -> EstimatorConfig:
    est = dict(spec.get("estimator", {}))
    for key in ("n", "L", "seed", "threads"):
        val = getattr(overrides, key, None)
        if val is not None:
            est[key] = val
    if "n" not in est:
        raise ConfigError("estimator.n is required")
    proxy = dict(est.pop("proxy", {}))
    if proxy.get("q_star") is not None:
        proxy["q_star"] = np.asarray(proxy["q_star"], dtype=float)
    try:
        # every key the config sets goes through: the defaults live only in
        # EstimatorConfig and ProxySpec, and an unknown key is a TypeError
        return EstimatorConfig(**_whole(est), proxy=ProxySpec(**_whole(proxy)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad estimator settings: {exc}") from exc


def _load_reference(spec: dict):
    if "reference_vector" in spec:
        return np.asarray(spec["reference_vector"], dtype=float), None
    if "data_file" in spec:
        lines = Path(spec["data_file"]).read_text().split()
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
    """Shared body of the estimation commands: load and validate the config,
    solve, and write the result and the per-batch trace where ``--out`` or
    the config's ``output`` section asks.  ``solve(spec, config)`` returns
    the estimate and the extra payload fields."""
    spec = _load_and_validate(args.config)
    config = _config_from_dict(spec, args)
    est, extra = solve(spec, config)
    out_spec = spec.get("output", {})
    _emit(_estimate_payload(est, extra), args.out or out_spec.get("result"),
          trace=est.batch_log_means, trace_path=out_spec.get("trace"))
    return EXIT_ZERO_HITS if est.hits == 0 else EXIT_OK


def _divergence_inputs(spec: dict):
    """Generator, constraint set, reference (vector or observed-sample
    partition) and mode of an ``estimate`` or ``bounds`` config."""
    gen = _generator_from_dict(spec["generator"])
    omega = constraint_from_dict(spec["constraint"])
    ref, part = _load_reference(spec)
    mode = spec.get("mode", "simplex" if part is None else "empirical")
    return gen, omega, part if part is not None else ref, mode


def _solve_estimate(spec: dict, config: EstimatorConfig):
    gen, omega, P, mode = _divergence_inputs(spec)
    target = spec.get("target")
    est = engine.estimate_min_divergence(gen, P, omega, config, mode=mode, target=target)
    return est, {"mode": mode, "target": target or "default"}


def _solve_entropy_max(spec: dict, config: EstimatorConfig):
    est = engine.estimate_entropy_extremum(
        _entropy_from_dict(spec["entropy"]), int(spec["K"]),
        constraint_from_dict(spec["constraint"]), config,
    )
    return est, {"kind": "entropy"}


def _solve_bounds(spec: dict, config: EstimatorConfig):
    gen, omega, P, mode = _divergence_inputs(spec)
    lower, upper, q_hat, est = engine.bounds_general(gen, P, omega, config, mode=mode)
    return est, {
        "lower": lower if math.isfinite(lower) else None,
        "upper": upper if math.isfinite(upper) else None,
        "q_hat": None if q_hat is None else list(map(float, q_hat)),
    }


def _side(spec: dict):
    return constraint_from_dict(spec["side"]) if "side" in spec else None


def _floats(spec: dict, *keys) -> dict:
    """The given optional number fields that the config sets; the rest keep
    the problem's own defaults."""
    return {key: float(spec[key]) for key in keys if key in spec}


# problem instance builders, one per problem command
_PROBLEMS = {
    "quadratic": lambda spec: problems.SeparableQuadratic(
        c1=spec["c1"], c2=spec["c2"], c3=spec["c3"],
        omega=constraint_from_dict(spec["constraint"]),
    ),
    "transport": lambda spec: problems.Transport(
        mu=np.asarray(spec["mu"], dtype=float), nu=np.asarray(spec["nu"], dtype=float),
        side=_side(spec), **_floats(spec, "band"),
    ),
    "assignment": lambda spec: problems.Assignment(
        costs=np.asarray(spec["costs"], dtype=float), side=_side(spec),
        **_floats(spec, "eps1", "eps2"),
    ),
}


def _solve_problem(build):
    def solve(spec: dict, config: EstimatorConfig):
        report = problems.solve(build(spec), config)
        return report.estimate, {"value": report.value, **report.details}

    return solve


_COMMANDS = {
    "estimate": _solve_estimate,
    "entropy-max": _solve_entropy_max,
    "bounds": _solve_bounds,
    **{name: _solve_problem(build) for name, build in _PROBLEMS.items()},
}


def _cmd_sample_law(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1 (got {args.count})")
    spec = _load_and_validate(args.config) if args.config else {}
    gen = _generator_from_dict(spec["generator"]) if "generator" in spec else PowerGamma(
        float(args.gamma), 1.0
    )
    law = laws.law_for_generator(gen)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    draws = law.sample(rng, args.count)
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


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
