import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from baresim import cli, engine, jsonread
from baresim.engine import EstimatorConfig

from conftest import NoDrawLaw


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE_CONFIG = {
    "generator": {"family": "power", "gamma": 1.0, "scale": 1.0},
    "reference_vector": [0.2, 0.3, 0.5],
    "mode": "simplex",
    "target": "divergence",
    "constraint": {"type": "coordinate", "index": 0, "bound": 0.5, "op": ">="},
    "estimator": {"n": 400, "L": 4000, "seed": 7},
}

# one small config per estimation command other than estimate
COMMAND_CONFIGS = {
    "entropy-max": {
        "entropy": {"preset": "shannon"},
        "K": 3,
        "constraint": {"type": "coordinate", "index": 0, "bound": 0.5, "op": ">="},
        "estimator": {"n": 600, "L": 8000, "seed": 2},
    },
    "bounds": {
        "generator": {"family": "generalized_kl", "alpha": 1.0},
        "reference_vector": [0.2, 0.3, 0.5],
        "mode": "simplex",
        "constraint": {"type": "coordinate", "index": 0, "bound": 0.6, "op": ">="},
        "estimator": {"n": 800, "L": 5000, "seed": 3},
    },
    "quadratic": {
        "c1": [0.64, 1.96], "c2": [-1.6, -2.8], "c3": [1.0, 1.0],
        "constraint": {"type": "box", "lower": [0.0, 0.0], "upper": [2.0, 2.0]},
        "estimator": {"n": 400, "L": 4000, "seed": 4},
    },
    "transport": {
        "mu": [0.5, 0.5], "nu": [0.5, 0.5],
        "estimator": {"n": 400, "L": 4000, "seed": 5},
    },
}


ASSIGNMENT_CONFIG = {
    "costs": [[1.0, 10.0], [10.0, 1.0]],
    "eps1": 0.15, "eps2": 0.15,
    "estimator": {"n": 200, "L": 2000, "seed": 6,
                  "proxy": {"method": "given", "q_star": [0.99, 0.01, 0.01, 0.99]}},
}

# the valid config each rule row breaks, per command
RULE_BASES = {"assignment": ASSIGNMENT_CONFIG, "estimate": BASE_CONFIG, **COMMAND_CONFIGS}

DELETE = object()

# (rule, command, path, value, named key): the config of ``command`` with the
# value at ``path`` replaced (DELETE removes it) breaks one keyword of one
# property of the JSON schema the config format was once checked against
# (type, enum, minimum, exclusiveMinimum, minItems, required and
# additionalProperties), rows written out from that schema; the last rows
# break a rule with another value.
RULE_ROWS = [
    ('generator: type', 'estimate', 'generator', [1], 'generator'),
    ('generator/family: enum', 'estimate', 'generator/family', 'bogus', 'family'),
    ('generator: required family', 'estimate', 'generator', {'gamma': 1.0}, 'family'),
    ('generator/gamma: type', 'estimate', 'generator', {'family': 'power', 'gamma': 'x'}, 'gamma'),
    ('generator/alpha: type', 'estimate', 'generator',
     {'family': 'generalized_kl', 'alpha': 'x'}, 'alpha'),
    ('generator/anchor: type', 'estimate', 'generator',
     {'family': 'anchored_kl', 'anchor': 'x'}, 'anchor'),
    ('generator/beta: type', 'estimate', 'generator',
     {'family': 'blended_chisq', 'beta': 'x'}, 'beta'),
    ('generator/beta1: type', 'estimate', 'generator',
     {'family': 'asym_laplace', 'alpha': 1.0, 'beta1': 'x', 'beta2': 1.0}, 'beta1'),
    ('generator/beta2: type', 'estimate', 'generator',
     {'family': 'asym_laplace', 'alpha': 1.0, 'beta1': 1.0, 'beta2': 'x'}, 'beta2'),
    ('generator/z1: type', 'estimate', 'generator',
     {'family': 'two_point', 'z1': 'x', 'z2': 2.0}, 'z1'),
    ('generator/z2: type', 'estimate', 'generator',
     {'family': 'two_point', 'z1': 0.0, 'z2': 'x'}, 'z2'),
    ('generator/scale: type', 'estimate', 'generator',
     {'family': 'power', 'gamma': 1.0, 'scale': 'x'}, 'scale'),
    ('generator/scale: exclusiveMinimum', 'estimate', 'generator',
     {'family': 'power', 'gamma': 1.0, 'scale': 0}, 'scale'),
    ('entropy: type', 'entropy-max', 'entropy', [1], 'entropy'),
    ('entropy/preset: enum', 'entropy-max', 'entropy', {'preset': 'bogus'}, 'preset'),
    ('entropy/kind: enum', 'entropy-max', 'entropy', {'kind': 'bogus'}, 'kind'),
    ('entropy/gamma: type', 'entropy-max', 'entropy', {'kind': 'power', 'gamma': 'x'}, 'gamma'),
    ('entropy/s: type', 'entropy-max', 'entropy', {'kind': 'power', 'gamma': 2.0, 's': 'x'}, 's'),
    ('entropy/order: type', 'entropy-max', 'entropy',
     {'preset': 'arimoto', 'order': 'x'}, 'order'),
    ('entropy/c1: type', 'entropy-max', 'entropy',
     {'kind': 'power', 'gamma': 2.0, 'c1': 'x'}, 'c1'),
    ('entropy/c2: type', 'entropy-max', 'entropy',
     {'kind': 'power', 'gamma': 2.0, 'c2': 'x'}, 'c2'),
    ('entropy/c3: type', 'entropy-max', 'entropy',
     {'kind': 'power', 'gamma': 2.0, 'c3': 'x'}, 'c3'),
    ('entropy/c4: type', 'entropy-max', 'entropy',
     {'kind': 'power', 'gamma': 2.0, 'c4': 'x'}, 'c4'),
    ('entropy/fprime0: type', 'entropy-max', 'entropy',
     {'kind': 'power', 'gamma': 2.0, 'fprime0': 'x'}, 'fprime0'),
    # the former f'(0) divisor of the log kind is no setting: refused by name
    ('entropy: additionalProperties fprime0', 'entropy-max', 'entropy',
     {'kind': 'log', 'gamma': 2.0, 'c4': -1.0, 'fprime0': 1.0}, 'fprime0'),
    ('K: type', 'entropy-max', 'K', 1.5, 'K'),
    ('K: minimum', 'entropy-max', 'K', 0, 'K'),
    ('reference_vector: type', 'estimate', 'reference_vector', 5, 'reference_vector'),
    ('reference_vector/items: type', 'estimate', 'reference_vector',
     ['x', 0.3, 0.5], 'reference_vector'),
    ('reference_vector/items: minimum', 'estimate', 'reference_vector',
     [-0.2, 0.7, 0.5], 'reference_vector'),
    ('reference_vector: minItems', 'estimate', 'reference_vector', [], 'reference_vector'),
    ('data_file: type', 'estimate', 'data_file', 123, 'data_file'),
    ('mode: enum', 'estimate', 'mode', 'bogus', 'mode'),
    ('target: enum', 'estimate', 'target', 'bogus', 'target'),
    ('constraint: type', 'estimate', 'constraint', [1], 'constraint'),
    ('constraint/type: enum', 'estimate', 'constraint', {'type': 'bogus'}, 'type'),
    ('constraint: required type', 'estimate', 'constraint', {'index': 0, 'bound': 0.5}, 'type'),
    ('constraint/coeffs: type', 'estimate', 'constraint',
     {'type': 'halfspace', 'coeffs': 5, 'rhs': 0.5, 'op': '>='}, 'coeffs'),
    ('constraint/coeffs/items: type', 'estimate', 'constraint',
     {'type': 'halfspace', 'coeffs': ['x', 0.0, 0.0], 'rhs': 0.5, 'op': '>='}, 'coeffs'),
    ('constraint/rhs: type', 'estimate', 'constraint',
     {'type': 'halfspace', 'coeffs': [1.0, 0.0, 0.0], 'rhs': 'x', 'op': '>='}, 'rhs'),
    ('constraint/op: enum', 'estimate', 'constraint',
     {'type': 'halfspace', 'coeffs': [1.0, 0.0, 0.0], 'rhs': 0.5, 'op': '!='}, 'op'),
    ('constraint/lower: type', 'estimate', 'constraint',
     {'type': 'box', 'lower': 5, 'upper': [1.0, 1.0, 1.0]}, 'lower'),
    ('constraint/lower/items: type', 'estimate', 'constraint',
     {'type': 'box', 'lower': ['x', 0.0, 0.0], 'upper': [1.0, 1.0, 1.0]}, 'lower'),
    ('constraint/upper: type', 'estimate', 'constraint',
     {'type': 'box', 'lower': [0.5, 0.0, 0.0], 'upper': 5}, 'upper'),
    ('constraint/upper/items: type', 'estimate', 'constraint',
     {'type': 'box', 'lower': [0.5, 0.0, 0.0], 'upper': ['x', 1.0, 1.0]}, 'upper'),
    ('constraint/tol: type', 'estimate', 'constraint',
     {'type': 'affine_eq', 'coeffs': [1.0, 0.0, 0.0], 'rhs': 0.5, 'tol': 'x'}, 'tol'),
    ('constraint/tol: exclusiveMinimum', 'estimate', 'constraint',
     {'type': 'affine_eq', 'coeffs': [1.0, 0.0, 0.0], 'rhs': 0.5, 'tol': 0}, 'tol'),
    ('constraint/index: type', 'estimate', 'constraint',
     {'type': 'coordinate', 'index': 1.5, 'bound': 0.5}, 'index'),
    ('constraint/index: minimum', 'estimate', 'constraint',
     {'type': 'coordinate', 'index': -1, 'bound': 0.5}, 'index'),
    ('constraint/bound: type', 'estimate', 'constraint',
     {'type': 'coordinate', 'index': 0, 'bound': 'x'}, 'bound'),
    ('constraint/parts: type', 'estimate', 'constraint', {'type': 'all', 'parts': 5}, 'parts'),
    ('constraint/scale: type', 'estimate', 'constraint',
     {'type': 'coordinate', 'index': 0, 'bound': 0.5, 'scale': 'x'}, 'scale'),
    # the former regularity assertion is no setting: refused by name, whatever the value
    ('constraint/regularity_asserted: type', 'estimate', 'constraint',
     {'type': 'coordinate', 'index': 0, 'bound': 0.5, 'regularity_asserted': False},
     'regularity_asserted'),
    ('constraint/description: type', 'estimate', 'constraint',
     {'type': 'coordinate', 'index': 0, 'bound': 0.5, 'description': 5}, 'description'),
    ('constraint/parts/0: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [[1]]}, 'parts'),
    ('constraint/parts/0/type: enum', 'estimate', 'constraint',
     {'type': 'all', 'parts': [{'type': 'bogus'}]}, 'type'),
    ('constraint/parts/0: required type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [{'index': 0, 'bound': 0.5}]}, 'type'),
    ('constraint/parts/0/coeffs: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [{'type': 'halfspace', 'coeffs': 5, 'rhs': 0.5, 'op': '>='}]},
     'coeffs'),
    ('constraint/parts/0/coeffs/items: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [
         {'type': 'halfspace', 'coeffs': ['x', 0.0, 0.0], 'rhs': 0.5, 'op': '>='}]},
     'coeffs'),
    ('constraint/parts/0/rhs: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [
         {'type': 'halfspace', 'coeffs': [1.0, 0.0, 0.0], 'rhs': 'x', 'op': '>='}]},
     'rhs'),
    ('constraint/parts/0/op: enum', 'estimate', 'constraint',
     {'type': 'all', 'parts': [
         {'type': 'halfspace', 'coeffs': [1.0, 0.0, 0.0], 'rhs': 0.5, 'op': '!='}]},
     'op'),
    ('constraint/parts/0/lower: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [{'type': 'box', 'lower': 5, 'upper': [1.0, 1.0, 1.0]}]}, 'lower'),
    ('constraint/parts/0/lower/items: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [
         {'type': 'box', 'lower': ['x', 0.0, 0.0], 'upper': [1.0, 1.0, 1.0]}]},
     'lower'),
    ('constraint/parts/0/upper: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [{'type': 'box', 'lower': [0.5, 0.0, 0.0], 'upper': 5}]}, 'upper'),
    ('constraint/parts/0/upper/items: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [
         {'type': 'box', 'lower': [0.5, 0.0, 0.0], 'upper': ['x', 1.0, 1.0]}]},
     'upper'),
    ('constraint/parts/0/tol: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [
         {'type': 'affine_eq', 'coeffs': [1.0, 0.0, 0.0], 'rhs': 0.5, 'tol': 'x'}]},
     'tol'),
    ('constraint/parts/0/tol: exclusiveMinimum', 'estimate', 'constraint',
     {'type': 'all', 'parts': [
         {'type': 'affine_eq', 'coeffs': [1.0, 0.0, 0.0], 'rhs': 0.5, 'tol': 0}]},
     'tol'),
    ('constraint/parts/0/index: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [{'type': 'coordinate', 'index': 1.5, 'bound': 0.5}]}, 'index'),
    ('constraint/parts/0/index: minimum', 'estimate', 'constraint',
     {'type': 'all', 'parts': [{'type': 'coordinate', 'index': -1, 'bound': 0.5}]}, 'index'),
    ('constraint/parts/0/bound: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [{'type': 'coordinate', 'index': 0, 'bound': 'x'}]}, 'bound'),
    ('constraint/parts/0/parts: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [{'type': 'all', 'parts': 5}]}, 'parts'),
    ('constraint/parts/0/scale: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [{'type': 'coordinate', 'index': 0, 'bound': 0.5, 'scale': 'x'}]},
     'scale'),
    ('constraint/parts/0/regularity_asserted: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [
         {'type': 'coordinate', 'index': 0, 'bound': 0.5, 'regularity_asserted': True}]},
     'regularity_asserted'),
    ('constraint/parts/0/description: type', 'estimate', 'constraint',
     {'type': 'all', 'parts': [
         {'type': 'coordinate', 'index': 0, 'bound': 0.5, 'description': 5}]},
     'description'),
    ('side: type', 'transport', 'side', [1], 'side'),
    ('side/type: enum', 'transport', 'side', {'type': 'bogus'}, 'type'),
    ('side: required type', 'transport', 'side', {'index': 0, 'bound': 0.5}, 'type'),
    ('side/coeffs: type', 'transport', 'side',
     {'type': 'halfspace', 'coeffs': 5, 'rhs': 0.5, 'op': '>='}, 'coeffs'),
    ('side/coeffs/items: type', 'transport', 'side',
     {'type': 'halfspace', 'coeffs': ['x', 0.0, 0.0, 0.0], 'rhs': 0.5, 'op': '>='}, 'coeffs'),
    ('side/rhs: type', 'transport', 'side',
     {'type': 'halfspace', 'coeffs': [1.0, 0.0, 0.0, 0.0], 'rhs': 'x', 'op': '>='}, 'rhs'),
    ('side/op: enum', 'transport', 'side',
     {'type': 'halfspace', 'coeffs': [1.0, 0.0, 0.0, 0.0], 'rhs': 0.5, 'op': '!='}, 'op'),
    ('side/lower: type', 'transport', 'side',
     {'type': 'box', 'lower': 5, 'upper': [1.0, 1.0, 1.0, 1.0]}, 'lower'),
    ('side/lower/items: type', 'transport', 'side',
     {'type': 'box', 'lower': ['x', 0.0, 0.0, 0.0], 'upper': [1.0, 1.0, 1.0, 1.0]}, 'lower'),
    ('side/upper: type', 'transport', 'side',
     {'type': 'box', 'lower': [0.5, 0.0, 0.0, 0.0], 'upper': 5}, 'upper'),
    ('side/upper/items: type', 'transport', 'side',
     {'type': 'box', 'lower': [0.5, 0.0, 0.0, 0.0], 'upper': ['x', 1.0, 1.0, 1.0]}, 'upper'),
    ('side/tol: type', 'transport', 'side',
     {'type': 'affine_eq', 'coeffs': [1.0, 0.0, 0.0, 0.0], 'rhs': 0.5, 'tol': 'x'}, 'tol'),
    ('side/tol: exclusiveMinimum', 'transport', 'side',
     {'type': 'affine_eq', 'coeffs': [1.0, 0.0, 0.0, 0.0], 'rhs': 0.5, 'tol': 0}, 'tol'),
    ('side/index: type', 'transport', 'side',
     {'type': 'coordinate', 'index': 1.5, 'bound': 0.5}, 'index'),
    ('side/index: minimum', 'transport', 'side',
     {'type': 'coordinate', 'index': -1, 'bound': 0.5}, 'index'),
    ('side/bound: type', 'transport', 'side',
     {'type': 'coordinate', 'index': 0, 'bound': 'x'}, 'bound'),
    ('side/parts: type', 'transport', 'side', {'type': 'all', 'parts': 5}, 'parts'),
    ('side/scale: type', 'transport', 'side',
     {'type': 'coordinate', 'index': 0, 'bound': 0.5, 'scale': 'x'}, 'scale'),
    ('side/regularity_asserted: type', 'transport', 'side',
     {'type': 'coordinate', 'index': 0, 'bound': 0.5, 'regularity_asserted': False},
     'regularity_asserted'),
    ('side/description: type', 'transport', 'side',
     {'type': 'coordinate', 'index': 0, 'bound': 0.5, 'description': 5}, 'description'),
    ('estimator: type', 'estimate', 'estimator', [1], 'estimator'),
    ('estimator/n: type', 'estimate', 'estimator/n', 1.5, 'n'),
    ('estimator/n: minimum', 'estimate', 'estimator/n', 0, 'n'),
    ('estimator/L: type', 'estimate', 'estimator/L', 1.5, 'L'),
    ('estimator/L: minimum', 'estimate', 'estimator/L', 0, 'L'),
    ('estimator/seed: type', 'estimate', 'estimator/seed', 1.5, 'seed'),
    ('estimator/threads: type', 'estimate', 'estimator/threads', 1.5, 'threads'),
    ('estimator/threads: minimum', 'estimate', 'estimator/threads', 0, 'threads'),
    ('estimator/proxy: type', 'estimate', 'estimator/proxy', [1], 'proxy'),
    ('estimator/proxy/method: enum', 'estimate', 'estimator/proxy/method', 'bogus', 'method'),
    ('estimator/proxy/q_star: type', 'estimate', 'estimator/proxy/q_star', 5, 'q_star'),
    ('estimator/proxy/q_star/items: type', 'estimate', 'estimator/proxy/q_star',
     ['x', 0.3, 0.5], 'q_star'),
    ('estimator/proxy/q_star: search takes none', 'estimate', 'estimator/proxy/q_star',
     [0.5, 0.25, 0.25], 'q_star'),
    ('estimator/proxy/q_star: given needs one', 'estimate', 'estimator/proxy/method',
     'given', 'q_star'),
    # the search's former counts are no settings: refused by name, whatever the value
    ('estimator/proxy/budget: type', 'estimate', 'estimator/proxy/budget', 1.5, 'budget'),
    ('estimator/proxy/budget: minimum', 'estimate', 'estimator/proxy/budget', 0, 'budget'),
    ('estimator/proxy/m_run: type', 'estimate', 'estimator/proxy/m_run', 1.5, 'm_run'),
    ('estimator/proxy/m_run: minimum', 'estimate', 'estimator/proxy/m_run', 0, 'm_run'),
    # nor is the former batch count, now a constant of the engine
    ('estimator/batches: type', 'estimate', 'estimator/batches', 1.5, 'batches'),
    ('estimator/batches: minimum', 'estimate', 'estimator/batches', 9, 'batches'),
    ('estimator/proxy: additionalProperties', 'estimate', 'estimator/proxy/bogus_key',
     1, 'bogus_key'),
    ('estimator: required n', 'estimate', 'estimator/n', DELETE, 'n'),
    ('estimator: additionalProperties', 'estimate', 'estimator/bogus_key', 1, 'bogus_key'),
    ('output: type', 'estimate', 'output', [1], 'output'),
    ('output/result: type', 'estimate', 'output/result', 5, 'result'),
    ('output/trace: type', 'estimate', 'output/trace', 5, 'trace'),
    ('c1: type', 'quadratic', 'c1', 5, 'c1'),
    ('c1/items: type', 'quadratic', 'c1', ['x', 1.0], 'c1'),
    ('c2: type', 'quadratic', 'c2', 5, 'c2'),
    ('c2/items: type', 'quadratic', 'c2', ['x', 1.0], 'c2'),
    ('c3: type', 'quadratic', 'c3', 5, 'c3'),
    ('c3/items: type', 'quadratic', 'c3', ['x', 1.0], 'c3'),
    ('mu: type', 'transport', 'mu', 5, 'mu'),
    ('mu/items: type', 'transport', 'mu', ['x', 0.5], 'mu'),
    ('mu/items: minimum', 'transport', 'mu', [-0.5, 1.5], 'mu'),
    ('nu: type', 'transport', 'nu', 5, 'nu'),
    ('nu/items: type', 'transport', 'nu', ['x', 0.5], 'nu'),
    ('nu/items: minimum', 'transport', 'nu', [-0.5, 1.5], 'nu'),
    ('costs: type', 'assignment', 'costs', 5, 'costs'),
    ('costs/items: type', 'assignment', 'costs', [[1.0, 10.0], 5], 'costs'),
    ('costs/items/items: type', 'assignment', 'costs', [[1.0, 'x'], [10.0, 1.0]], 'costs'),
    ('costs/items/items: exclusiveMinimum', 'assignment', 'costs',
     [[1.0, 0.0], [10.0, 1.0]], 'costs'),
    ('eps1: type', 'assignment', 'eps1', 'x', 'eps1'),
    ('eps1: exclusiveMinimum', 'assignment', 'eps1', 0, 'eps1'),
    ('eps2: type', 'assignment', 'eps2', 'x', 'eps2'),
    ('eps2: exclusiveMinimum', 'assignment', 'eps2', 0, 'eps2'),
    ('band: type', 'transport', 'band', 'x', 'band'),
    ('band: exclusiveMinimum', 'transport', 'band', 0, 'band'),
    # values named where the schema alone refused them
    ('generator/gamma: value True', 'estimate', 'generator/gamma', True, 'gamma'),
    ("generator/gamma: value '1.0'", 'estimate', 'generator/gamma', '1.0', 'gamma'),
    ('generator/gamma: value [1.0]', 'estimate', 'generator/gamma', [1.0], 'gamma'),
    ('estimator/n: value 400.5', 'estimate', 'estimator/n', 400.5, 'n'),
    ("estimator/seed: value '7'", 'estimate', 'estimator/seed', '7', 'seed'),
    ('estimator/threads: value -2', 'estimate', 'estimator/threads', -2, 'threads'),
    ('constraint/index: value -3', 'estimate', 'constraint/index', -3, 'index'),
    ('constraint/index: value 0.5', 'estimate', 'constraint/index', 0.5, 'index'),
    ("constraint/scale: value '2'", 'estimate', 'constraint/scale', '2', 'scale'),
    ('constraint/tol: value -1', 'estimate', 'constraint',
     {'type': 'affine_eq', 'coeffs': [1.0, 0.0, 0.0], 'rhs': 0.5, 'tol': -1}, 'tol'),
    ("entropy/gamma: value '2'", 'entropy-max', 'entropy',
     {'preset': 'renyi', 'gamma': '2'}, 'gamma'),
    ('K: value 2.5', 'entropy-max', 'K', 2.5, 'K'),
    ('band: value -0.1', 'transport', 'band', -0.1, 'band'),
]


def with_value(config: dict, path: str, value) -> dict:
    config = copy.deepcopy(config)
    *parents, last = path.split("/")
    node = config
    for key in parents:
        node = node.setdefault(key, {})
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return config


class TestEstimateCommand:
    def test_result_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "result.json"
        code = cli.main(["estimate", "--config", cfg, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("value", "log_pi_hat", "hits", "stderr", "seed", "n", "L"):
            assert key in payload
        assert payload["seed"] == 7
        assert payload["hits"] >= 1
        assert payload["value"] == pytest.approx(0.223, abs=0.05)

    def test_bias_correction_is_reported(self, tmp_path):
        # null where no term applies (Poisson weights: a lattice law); the
        # Neyman halfspace in deterministic mode reports its shift of the value
        out = tmp_path / "result.json"
        assert cli.main(["estimate", "--config", write_config(tmp_path, BASE_CONFIG),
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["bias_correction"] is None
        config = dict(BASE_CONFIG, mode="deterministic", target="deterministic",
                      generator={"family": "power", "gamma": -1.0},
                      constraint={"type": "halfspace", "coeffs": [1.0, 1.0, 1.0], "rhs": 1.3},
                      estimator={"n": 200, "L": 2000, "seed": 1})
        assert cli.main(["estimate", "--config", write_config(tmp_path, config),
                         "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["bias_correction"] == pytest.approx(-0.012107, abs=1e-6)
        assert payload["value"] == pytest.approx(0.034965, abs=0.002)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["estimate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["estimate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_setting_leaks_between_calls(self, tmp_path):
        # the one parser of the process serves every call
        cfg = write_config(tmp_path, BASE_CONFIG)
        outs = [tmp_path / f"{i}.json" for i in range(3)]
        for out, flags in zip(outs, (["--seed", "1"], ["--seed", "2", "--threads", "2"],
                                     ["--seed", "1"])):
            assert cli.main(["estimate", "--config", cfg, "--out", str(out), *flags]) == 0
        assert outs[0].read_bytes() == outs[2].read_bytes()
        assert outs[0].read_bytes() != outs[1].read_bytes()
        assert cli._parser() is cli._parser()

    def test_flag_overrides_seed(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["estimate", "--config", cfg, "--out", str(out1), "--seed", "1"])
        cli.main(["estimate", "--config", cfg, "--out", str(out2), "--seed", "2"])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["seed"] == 1 and b["seed"] == 2
        assert a["log_pi_hat"] != b["log_pi_hat"]

    def test_trace_csv(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["output"] = {"trace": str(tmp_path / "trace.csv")}
        cfg = write_config(tmp_path, config)
        cli.main(["estimate", "--config", cfg, "--out", str(tmp_path / "r.json")])
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "batch,log_mean"
        assert len(lines) == 33  # header + 32 batches

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"generator": {"family": "power", "gamma": 1.0}})
        assert cli.main(["estimate", "--config", cfg]) == cli.EXIT_CONFIG

    def test_estimator_defaults_come_from_the_dataclasses(self):
        assert cli._config_from_dict({"estimator": {"n": 50}}, None) == EstimatorConfig(n=50)

    def test_estimator_settings_are_converted(self):
        est = {"n": 50, "L": 300, "seed": 4, "threads": 2,
               "proxy": {"method": "given", "q_star": [1, 2]}}
        config = cli._config_from_dict({"estimator": est}, None)
        assert (config.n, config.L, config.seed, config.threads) == (50, 300, 4, 2)
        assert config.proxy.method == "given"
        assert config.proxy.q_star.dtype == float and list(config.proxy.q_star) == [1.0, 2.0]

    def test_integral_floats_become_ints(self):
        config = cli._config_from_dict({"estimator": {"n": 50.0, "L": 1e5}}, None)
        assert (config.n, config.L) == (50, 100_000)
        assert type(config.n) is int and type(config.L) is int

    @pytest.mark.parametrize("estimator", [
        {"n": 50, "bisection_tol": 1e-10},
        {"n": 50, "proxy": {"budjet": 10}},
    ])
    def test_unknown_setting_is_never_dropped(self, estimator):
        # past the schema, an unknown key still fails rather than vanishing
        with pytest.raises(cli.ConfigError, match="bad estimator settings"):
            cli._config_from_dict({"estimator": estimator}, None)

    @pytest.mark.parametrize("estimator, path, key", [
        ({"n": 400, "bisection_tol": 1e-10}, "estimator", "bisection_tol"),
        ({"n": 400, "thread": 2}, "estimator", "thread"),
        ({"n": 400, "proxy": {"budjet": 10}}, "estimator/proxy", "budjet"),
        ({"n": 400, "proxy": {"budget": 200_000}}, "estimator/proxy", "budget"),
        ({"n": 400, "proxy": {"m_run": 5}}, "estimator/proxy", "m_run"),
    ])
    def test_unknown_estimator_key_is_a_config_error(self, tmp_path, capsys, estimator,
                                                     path, key):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "estimator": estimator})
        assert cli.main(["estimate", "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{path}: " in err and repr(key) in err

    @pytest.mark.parametrize("constraint, path", [
        ({"type": "coordinate", "index": 0, "bound": 0.5, "opp": "<="}, "constraint/opp"),
        ({"type": "any", "parts": [{"type": "coordinate", "index": 0, "bound": 0.5,
                                    "coeffs": [1, 0, 0]}]}, "constraint/parts/0/coeffs"),
    ])
    def test_unknown_constraint_key_is_a_config_error(self, tmp_path, capsys, constraint,
                                                      path):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "constraint": constraint})
        assert cli.main(["estimate", "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{path}: " in err and "Traceback" not in err

    def test_readme_configs_validate(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [b.split("```")[0] for b in readme.split("```json\n")[1:]]
        assert blocks
        for block in blocks:
            spec = cli._load_config(write_config(tmp_path, json.loads(block)))
            cli._config_from_dict(spec, None)
            cli._divergence_inputs(spec)

    def test_bad_generator_family(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["generator"] = {"family": "nope"}
        cfg = write_config(tmp_path, config)
        assert cli.main(["estimate", "--config", cfg]) == cli.EXIT_CONFIG

    def test_anchor_whose_exponential_overflows(self, tmp_path, capsys):
        # e^800 is no double: refused with the generator section, not drawn from
        config = dict(BASE_CONFIG, target="deterministic",
                      generator={"family": "anchored_kl", "anchor": 800.0})
        code = cli.main(["estimate", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG, err
        assert "Traceback" not in err
        assert re.search(r"\bgenerator\b.*\banchor\b", err), err

    def test_anchor_whose_exponential_is_lost_against_one(self, tmp_path, capsys):
        config = dict(BASE_CONFIG, target="deterministic",
                      generator={"family": "anchored_kl", "anchor": -40.0})
        code = cli.main(["estimate", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG, err
        assert "Traceback" not in err
        assert re.search(r"\bgenerator\b.*\banchor -40\.0\b", err), err

    def test_zero_hit_exit_code(self, tmp_path):
        config = dict(BASE_CONFIG)
        # empty set via contradictory box
        config["constraint"] = {
            "type": "box", "lower": [2.0, 2.0, 2.0], "upper": [3.0, 3.0, 3.0],
        }
        cfg = write_config(tmp_path, config)
        assert cli.main(["estimate", "--config", cfg]) == cli.EXIT_ZERO_HITS

    def test_data_file_mode(self, tmp_path):
        data = tmp_path / "obs.txt"
        rng = np.random.default_rng(3)
        labels = rng.choice(["a", "b", "c"], p=[0.2, 0.3, 0.5], size=600)
        data.write_text("\n".join(labels))
        config = {
            "generator": {"family": "power", "gamma": 1.0},
            "data_file": str(data),
            "target": "divergence",
            "constraint": {"type": "coordinate", "index": 0, "bound": 0.5, "op": ">="},
            "estimator": {"n": 600, "L": 3000, "seed": 1},
        }
        cfg = write_config(tmp_path, config)
        out = tmp_path / "res.json"
        assert cli.main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] > 0


class TestModeMismatch:
    """A reference that does not fit the mode, or an empirical n other than
    the sample size, is a config error (exit 2) raised before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        monkeypatch.setattr(engine, "law_for_generator", lambda *args, **kw: NoDrawLaw())

    def data_config(self, tmp_path, **changes):
        data = tmp_path / "obs.txt"
        data.write_text("\n".join(["a"] * 211 + ["b"] * 310 + ["c"] * 479))
        config = {
            "generator": {"family": "power", "gamma": 1.0},
            "data_file": str(data),
            "target": "divergence",
            "constraint": {"type": "coordinate", "index": 0, "bound": 0.5, "op": ">="},
            "estimator": {"n": 1000, "L": 3000, "seed": 1},
        }
        config.update(changes)
        return write_config(tmp_path, config)

    def run(self, cfg, capsys, command="estimate"):
        code = cli.main([command, "--config", cfg])
        return code, capsys.readouterr().err

    def test_empirical_mode_with_reference_vector(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE_CONFIG, mode="empirical"))
        code, err = self.run(cfg, capsys)
        assert code == cli.EXIT_CONFIG
        assert "empirical mode needs an ingest_sample partition" in err

    @pytest.mark.parametrize("command", ["estimate", "bounds"])
    def test_reference_vector_and_data_file(self, tmp_path, capsys, command):
        # two references are refused, not one of them dropped
        cfg = self.data_config(tmp_path, reference_vector=[0.2, 0.3, 0.5])
        code, err = self.run(cfg, capsys, command)
        assert code == cli.EXIT_CONFIG
        assert "takes reference_vector or data_file, not both" in err

    def test_deterministic_mode_with_data_file(self, tmp_path, capsys):
        cfg = self.data_config(tmp_path, mode="deterministic", target="deterministic")
        code, err = self.run(cfg, capsys)
        assert code == cli.EXIT_CONFIG
        assert "deterministic mode needs a reference vector" in err

    @pytest.mark.parametrize("command", ["estimate", "bounds"])
    @pytest.mark.parametrize("n", [200, 5000])
    def test_empirical_n_other_than_the_sample_size(self, tmp_path, capsys, command, n):
        cfg = self.data_config(tmp_path)
        code = cli.main([command, "--config", cfg, "--n", str(n)])
        assert code == cli.EXIT_CONFIG
        assert f"n={n} differs from the sample size 1000" in capsys.readouterr().err

    def test_bounds_in_deterministic_mode(self, tmp_path, capsys):
        config = dict(COMMAND_CONFIGS["bounds"], mode="deterministic",
                      reference_vector=[0.3, 0.5, 0.4])
        code, err = self.run(write_config(tmp_path, config), capsys, "bounds")
        assert code == cli.EXIT_CONFIG
        assert "use mode 'simplex' or 'empirical'" in err


class TestTargetCheck:
    """A target the generator cannot invert is a config error raised
    before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        monkeypatch.setattr(engine, "law_for_generator", lambda *args, **kw: NoDrawLaw())

    @pytest.mark.parametrize("changes, message", [
        ({"generator": {"family": "generalized_kl", "alpha": 1.0}, "target": DELETE},
         "target 'divergence' needs a power generator"),
        ({"target": "divergenz"}, "unknown inversion target 'divergenz'"),
        ({"generator": {"family": "power", "gamma": 0.5}, "target": "modified_kl"},
         "modified KL inversion needs gamma = 1"),
        ({"mode": "deterministic", "target": "divergence"},
         "target 'divergence' needs mode 'simplex' or 'empirical'"),
        ({"mode": "deterministic", "target": "hellinger"},
         "target 'hellinger' needs mode 'simplex' or 'empirical'"),
        # the entropies are the entropy-max command's: as a target of its own,
        # "shannon" read 0.866 here, from P = (.2, .3, .5) rather than the
        # uniform reference, against the face's maximum entropy 1.0397
        ({"target": "shannon"}, "unknown inversion target 'shannon'"),
    ])
    def test_refused_before_any_draw(self, tmp_path, capsys, changes, message):
        config = BASE_CONFIG
        for key, value in changes.items():
            config = with_value(config, key, value)
        assert cli.main(["estimate", "--config", write_config(tmp_path, config)]) == 2
        assert message in capsys.readouterr().err


class TestConfigRules:
    """Every rule row is a config error (exit 2) raised before any draw,
    and its message names the key."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        monkeypatch.setattr(engine, "law_for_generator", lambda *args, **kw: NoDrawLaw())

    @pytest.mark.parametrize("command, path, value, key",
                             [row[1:] for row in RULE_ROWS], ids=[row[0] for row in RULE_ROWS])
    def test_rule_is_a_config_error(self, tmp_path, capsys, command, path, value, key):
        config = with_value(RULE_BASES[command], path, value)
        code = cli.main([command, "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG, err
        assert "Traceback" not in err
        assert re.search(rf"\b{key}\b", err), err


class TestNaNInput:
    """NaN is not a JSON number, though Python's json reads it: a config
    error (exit 2) that names its path, before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        monkeypatch.setattr(engine, "law_for_generator", lambda *args, **kw: NoDrawLaw())

    @pytest.mark.parametrize("constraint, path", [
        ({"type": "box", "lower": [float("nan"), 0.0, 0.0], "upper": [1.0, 1.0, 1.0]},
         "constraint/lower/0"),
        ({"type": "halfspace", "coeffs": [1.0, 1.0, 1.0], "rhs": float("nan")},
         "constraint/rhs"),
    ], ids=["box-bound", "halfspace-rhs"])
    def test_nan_is_a_config_error(self, tmp_path, capsys, constraint, path):
        config = {**BASE_CONFIG, "constraint": constraint}
        code = cli.main(["estimate", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG, err
        assert f"{path}: must be a number (got nan)" in err

    def test_as_number_refuses_nan(self):
        with pytest.raises(jsonread.ConfigError, match="estimator/L: must be a number"):
            jsonread.as_number(float("nan"), "estimator/L")


class TestTopLevelKeys:
    """Each estimation command refuses, before any draw, a top-level key it
    does not read."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        monkeypatch.setattr(engine, "law_for_generator", lambda *args, **kw: NoDrawLaw())

    @pytest.mark.parametrize("command, key", [
        ("estimate", "estimatr"), ("estimate", "targt"), ("bounds", "estimatr"),
        ("entropy-max", "mode"), ("quadratic", "reference_vector"),
        ("transport", "constraint"), ("assignment", "band"),
    ])
    def test_unread_key_is_a_config_error(self, tmp_path, capsys, command, key):
        config = {**RULE_BASES[command], key: {"n": 5}}
        code = cli.main([command, "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG, err
        assert f"the {command} command reads no key {key!r}" in err

    def test_bounds_take_no_target_but_the_divergence(self, tmp_path, capsys):
        config = {**COMMAND_CONFIGS["bounds"], "target": "hellinger"}
        code = cli.main(["bounds", "--config", write_config(tmp_path, config)])
        assert code == cli.EXIT_CONFIG
        assert "the only target of bounds is 'divergence'" in capsys.readouterr().err

    def test_sample_law_reads_the_generator_of_any_config(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "estimatr": {"n": 5}})
        out = tmp_path / "draws.json"
        assert cli.main(["sample-law", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["law"] == "ScaledPoisson"


class TestConstraintMisfit:
    """A constraint built for another width K is a clear error at the
    first membership test, not a traceback or numpy's raw text."""

    @pytest.mark.parametrize("constraint, description", [
        ({"type": "coordinate", "index": 5, "bound": 0.3}, "x[5] >= 0.3"),
        ({"type": "halfspace", "coeffs": [1.0, 1.0], "rhs": 0.3}, "halfspace <c,x> >= 0.3"),
        ({"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}, "box"),
    ])
    def test_misfit_is_a_config_error(self, tmp_path, capsys, constraint, description):
        config = {**BASE_CONFIG, "constraint": constraint}
        code = cli.main(["estimate", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG, err
        assert "Traceback" not in err
        assert f"constraint set {description!r} cannot test points of width K=3" in err


class TestOtherCommands:
    def test_entropy_max(self, tmp_path):
        cfg = write_config(tmp_path, COMMAND_CONFIGS["entropy-max"])
        out = tmp_path / "res.json"
        assert cli.main(["entropy-max", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(1.0397, abs=0.05)

    def test_bounds(self, tmp_path):
        cfg = write_config(tmp_path, COMMAND_CONFIGS["bounds"])
        out = tmp_path / "res.json"
        assert cli.main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["lower"] <= payload["upper"]
        assert payload["q_hat"] is not None

    def test_quadratic(self, tmp_path):
        cfg = write_config(tmp_path, COMMAND_CONFIGS["quadratic"])
        out = tmp_path / "res.json"
        assert cli.main(["quadratic", "--config", cfg, "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["value"]) < 0.05

    def test_transport(self, tmp_path):
        cfg = write_config(tmp_path, COMMAND_CONFIGS["transport"])
        out = tmp_path / "res.json"
        assert cli.main(["transport", "--config", cfg, "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["value"]) < 0.05

    def test_transport_passes_band(self, tmp_path, monkeypatch):
        seen = []
        solve = cli.problems.solve

        def spy(problem, config):
            seen.append(problem)
            return solve(problem, config)

        monkeypatch.setattr(cli.problems, "solve", spy)
        config = dict(COMMAND_CONFIGS["transport"], band=0.05)
        cfg = write_config(tmp_path, config)
        assert cli.main(["transport", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
        (problem,) = seen
        assert problem.band == 0.05

    @pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
    def test_output_section_is_honoured(self, tmp_path, command):
        result, trace = tmp_path / "result.json", tmp_path / "trace.csv"
        config = dict(COMMAND_CONFIGS[command],
                      output={"result": str(result), "trace": str(trace)})
        cfg = write_config(tmp_path, config)
        assert cli.main([command, "--config", cfg]) == 0
        assert json.loads(result.read_text())["hits"] > 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "batch,log_mean"
        assert len(lines) == 33  # header + 32 batches

    def test_output_section_refuses_unknown_keys(self, tmp_path, capsys, monkeypatch):
        # a misspelt output key is an error before any draw, not a result on stdout
        monkeypatch.setattr(engine, "law_for_generator", lambda *args, **kw: NoDrawLaw())
        result = tmp_path / "out.json"
        config = dict(BASE_CONFIG, output={"reslt": str(result)})
        assert cli.main(["estimate", "--config", write_config(tmp_path, config)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert "output/reslt" in err and out == ""
        assert not result.exists()

    def test_assignment_constructs(self, tmp_path):
        config = {
            "costs": [[1.0, 10.0], [10.0, 1.0]],
            "eps1": 0.15, "eps2": 0.15,
            "estimator": {"n": 200, "L": 2000, "seed": 6,
                          "proxy": {"method": "given",
                                    "q_star": [0.99, 0.01, 0.01, 0.99]}},
        }
        cfg = write_config(tmp_path, config)
        out = tmp_path / "res.json"
        code = cli.main(["assignment", "--config", cfg, "--out", str(out)])
        assert code in (0, cli.EXIT_ZERO_HITS)

    def test_sample_law(self, tmp_path):
        out = tmp_path / "draws.json"
        code = cli.main(["sample-law", "--gamma", "1.0", "--count", "50",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["law"] == "ScaledPoisson"
        assert len(payload["draws"]) == 20

    def test_sample_law_draws_keep_their_bits(self, tmp_path):
        # seed 0's first five untilted DistortedStable(3) weights, pinned
        # bit for bit
        out = tmp_path / "draws.json"
        code = cli.main(["sample-law", "--gamma", "3", "--count", "5", "--seed", "0",
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["law"] == "DistortedStable"
        assert [float(x).hex() for x in payload["draws"]] == [
            "0x1.438ae332209f5p+0", "0x1.9c334a04586e8p-2", "0x1.bc501e71f93bbp-1",
            "-0x1.f259a5ba3fdb6p-3", "0x1.bd7f166b78701p-1"]

    def test_sample_law_rejects_zero_count(self, tmp_path, capsys):
        out = tmp_path / "draws.json"
        code = cli.main(["sample-law", "--count", "0", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()
        assert "--count" in capsys.readouterr().err


class TestValidateCommand:
    def test_suite_path_is_absolute_outside_repo_root(self, tmp_path, monkeypatch):
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append(cmd)
            return subprocess.CompletedProcess(cmd, 0)

        monkeypatch.setattr(subprocess, "run", fake_run)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["validate", "--quick"]) == cli.EXIT_OK
        (cmd,) = calls
        (suite,) = [Path(a) for a in cmd if a.endswith("test_acceptance.py")]
        assert suite.is_absolute()
        assert suite.is_file()

    def test_quick_selects_by_marker(self, monkeypatch):
        # -m, not -k: a keyword match would keep a test whose slow marker
        # is misspelt, and --strict-markers fails such a marker at collection
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append(cmd)
            return subprocess.CompletedProcess(cmd, 0)

        monkeypatch.setattr(subprocess, "run", fake_run)
        assert cli.main(["validate", "--quick"]) == cli.EXIT_OK
        (cmd,) = calls
        assert cmd[-2:] == ["-m", "not slow"]
        assert "-k" not in cmd

    def test_missing_suite_is_a_validation_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "__file__", str(tmp_path / "site" / "baresim" / "cli.py"))
        monkeypatch.setattr(subprocess, "run", pytest.fail)
        assert cli.main(["validate"]) == cli.EXIT_VALIDATION
        assert "acceptance suite not found" in capsys.readouterr().err


# the configs of the CI workflow's same_on_two_threads step, run there at L =
# 2,000 unless given: the README run (dual tilts of a lattice law; at 20,000,
# six 625-row batches share each pass and their Poisson log weights tie at
# each batch's maximum), empirical mode over 3 and 12 categories (the face's
# pooled columns of unequal size), the quadratic command (its reduction keeps
# the halfspace's row), bounds with a two-point generator, a gamma = 2 face
# (a continuous law: the Bahadur-Rao term) at n = 200 and 2001 (the rounded
# blocks add the block-rounding term), the README face as an "all" of one
# part (a searched proxy) and the Neyman halfspace (inverse-Gaussian draws)
_TRACE = {"output": {"trace": "trace.csv"}}
_README = {"generator": {"family": "power", "gamma": 1.0},
           "reference_vector": [0.2, 0.3, 0.5], "mode": "simplex", "target": "divergence",
           "constraint": {"type": "coordinate", "index": 0, "bound": 0.5, "op": ">="},
           "estimator": {"n": 2000, "L": 100000, "seed": 1}, **_TRACE}
_EMPIRICAL = {"generator": {"family": "power", "gamma": 1.0}, "data_file": "labels.txt",
              "mode": "empirical", "target": "divergence",
              "constraint": {"type": "coordinate", "index": 0, "bound": 0.5, "op": ">="},
              "estimator": {"n": 200, "seed": 1}, **_TRACE}
_GAUSSIAN_FACE = {**_README, "generator": {"family": "power", "gamma": 2.0},
                  "estimator": {"n": 200, "seed": 1}}
THREAD_CONFIGS = {
    "run": _README,
    "empirical": _EMPIRICAL,
    "empirical12": {**_EMPIRICAL, "data_file": "labels12.txt",
                    "constraint": {**_EMPIRICAL["constraint"], "bound": 0.05},
                    "estimator": {"n": 780, "seed": 1}},
    "quadratic": {"c1": [0.25, 1.0, 2.25], "c2": [-1.0, -2.0, -3.0], "c3": [1.0, 1.0, 1.0],
                  "constraint": {"type": "halfspace", "coeffs": [1.0, 1.0, 1.0], "rhs": 3.15},
                  "estimator": {"n": 4000, "seed": 1}, **_TRACE},
    "two_point": {"generator": {"family": "two_point", "z1": 0.0, "z2": 2.0},
                  "reference_vector": [0.2, 0.3, 0.5], "mode": "simplex",
                  "constraint": {"type": "coordinate", "index": 0, "bound": 0.35, "op": ">="},
                  "estimator": {"n": 100, "seed": 1}, **_TRACE},
    "gaussian_face": _GAUSSIAN_FACE,
    "gaussian_face_2001": {**_GAUSSIAN_FACE, "estimator": {"n": 2001, "seed": 1}},
    "searched": {**_README, "constraint": {"type": "all", "parts": [_README["constraint"]]},
                 "estimator": {"n": 2000, "seed": 1}},
    "neyman": {"generator": {"family": "power", "gamma": -1.0},
               "reference_vector": [0.2, 0.3, 0.5], "mode": "deterministic",
               "target": "deterministic",
               "constraint": {"type": "halfspace", "coeffs": [1.0, 1.0, 1.0], "rhs": 1.3},
               "estimator": {"n": 200, "seed": 1}, **_TRACE},
}


@pytest.mark.parametrize("command, name, L", [
    ("estimate", "run", 2_000), ("estimate", "run", 20_000), ("estimate", "empirical", 2_000),
    ("quadratic", "quadratic", 2_000), ("bounds", "two_point", 2_000),
    ("estimate", "gaussian_face", 2_000), ("estimate", "gaussian_face_2001", 2_000),
    ("estimate", "searched", 2_000), ("estimate", "neyman", 2_000),
    ("estimate", "neyman", 20_000), ("estimate", "empirical12", 20_000),
])
def test_same_bytes_on_one_and_two_threads(tmp_path, monkeypatch, command, name, L):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "labels.txt").write_text("\n".join(["a"] * 40 + ["b"] * 60 + ["c"] * 100) + "\n")
    (tmp_path / "labels12.txt").write_text(
        "\n".join(f"c{k:02d}" for k in range(12) for _ in range(10 * (k + 1))) + "\n")
    config = write_config(tmp_path, THREAD_CONFIGS[name])
    runs, trace = [], tmp_path / "trace.csv"
    for threads in (1, 2):
        out = tmp_path / f"result{threads}.json"
        assert cli.main([command, "--config", config, "--L", str(L),
                         "--threads", str(threads), "--out", str(out)]) == cli.EXIT_OK
        runs.append((out.read_bytes(), trace.read_bytes()))
        trace.unlink()
    assert runs[0] == runs[1]
    result = json.loads(runs[0][0])
    assert result["hits"] > 0
    if name == "gaussian_face_2001":
        assert result["bias_correction"] is not None
