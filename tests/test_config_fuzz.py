"""A fuzzer over run configurations: every RunConfig, stepper and initial key
drawn from valid values and hostile ones (the wrong type, +-0, NaN, +-inf,
1e+-300, booleans, malformed modes).  Each input is a valid config or a
ConfigError with a one-line message that, when one key is hostile, names
that key; a valid one survives a JSON round trip and builds its initial
data or raises what the CLI reports on one line.  No flow is run.  Examples
are derandomized, so that the suite reads the same on every run.
"""

import json
import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from entroflow import cli
from entroflow.cli import RunConfig, build_initial_support, main
from entroflow.errors import ConfigError, CurveIngestionError, NotLocallyConvexError
from entroflow.flow import STEPPER_ROWS

HOSTILE = [None, "x", "", [], {}, True, False, 0, 0.0, -0.0, math.nan, math.inf,
           -math.inf, 1e300, -1e300, 1e-300, -1e-300]

MODES = [
    [[2, 0.1, 0.0]], [[2, 0.1, 0.0], [3, 0.0, 0.02]], [], [[]], [[2]], [[2, 0.1]],
    [[2, 0.1, 0.0, 1.0]], [[True, 0.1, 0.0]], [["2", 0.1, 0.0]], [[None, 0.1, 0.0]],
    [[2, math.nan, 0.0]], [[2, 0.1, math.inf]], [[2, 0.1, False]], [[2.5, 0.1, 0.0]],
    [[1e300, 0.1, 0.0]], [[math.nan, 0.1, 0.0]], [[-3, 0.1, 0.0]], [[0, 0.5, 0.0]],
    [[100, 0.1, 0.0]], [[2, 0.8, 0.0]], [[2, 1e300, 0.0]], [[2, 1e-300, -0.0]],
    "modes", {"m": 2}, [2, 0.1, 0.0],
]

VALID = {
    "omega": [1, 2], "n": [16, 32],
    "variant": ["unscaled", "rescaled_chainrule", "rescaled_paper"],
    "t_end": [0.05, 1.0], "monitor_every": [0.01, 0.5], "output_dir": ["out"],
    "seed": [0, 3],
}
STEPPER_VALID = {
    "dt_init": [1e-3], "safety": [0.9, 1.0], "max_dt": [1e-3, 1e308],
    "guard_ratio": [0.2], "scheme": ["explicit_rk4", "semi_implicit"],
    "stabilization_coeff": [0.0, 1.0],
}
INITIAL_KEYS = {
    "circle": ["r"], "ellipse": ["a", "b"], "fourier": ["constant", "modes"],
    "curve_file": ["path"], "support_file": ["path"],
}
INITIAL_VALID = {
    "r": [1.0, 0.5], "a": [1.3, 1.0], "b": [1.0], "constant": [1.0],
    "modes": MODES[:2], "path": ["", "no-such-file.txt"],
}
# every key of the config schema is fuzzed
assert (set(VALID), set(STEPPER_VALID)) == (set(cli._ROWS), set(STEPPER_ROWS))
assert ({kind: set(keys) for kind, keys in INITIAL_KEYS.items()}
        == {kind: set(rows) for kind, rows in cli._INITIAL_KINDS.items()})

# refusals of a rule that spans keys, by message prefix: the record cap
# (n, t_end, monitor_every) and the ellipse's omega = 1
CROSS_KEY = ("a run from t=", "ellipse initial data requires omega = 1")

# what main reports as a validation failure from the initial-data build,
# and OSError, which main reports as an i/o error
BUILD_ERRORS = (NotLocallyConvexError, CurveIngestionError, ValueError,
                OverflowError, OSError)


ABSENT = object()


@st.composite
def configs(draw):
    """A valid config with up to three of its keys, or keys of its stepper
    or initial object, set hostile or left out, and sometimes an unknown
    key; and the set of the dotted keys so changed."""
    def pick(options):
        return draw(st.sampled_from(options))

    data = {key: pick(v) for key, v in VALID.items()}
    stepper = data["stepper"] = {key: pick(v) for key, v in STEPPER_VALID.items()}
    kind = pick(sorted(INITIAL_KEYS))
    initial = data["initial"] = {"kind": kind, **{
        key: pick(INITIAL_VALID[key]) for key in INITIAL_KEYS[kind]}}
    slots = ([(data, key, "") for key in data]
             + [(stepper, key, "stepper.") for key in stepper]
             + [(initial, key, "initial.") for key in ["kind", *INITIAL_VALID]])
    changed = set()
    for _ in range(pick([0, 0, 0, 1, 1, 2, 3])):
        where, key, prefix = pick(slots)
        hostile = pick([ABSENT] + (MODES if key == "modes" else []) + HOSTILE)
        if hostile is ABSENT:
            if where.pop(key, ABSENT) is not ABSENT:
                changed.add(prefix + key)
        else:
            where[key] = hostile
            changed.add(prefix + key)
    if pick([False] * 9 + [True]):
        data["typo"] = 1
        changed.add("typo")
    return data, changed


def one_line(exc):
    return "\n" not in str(exc)


def names_key(message, key):
    """Whether message starts with the dotted key, initial.modes[i] counting
    as initial.modes."""
    return message.startswith(key) and message[len(key):len(key) + 1] in " .["


@settings(max_examples=300, deadline=None, derandomize=True)
@given(configs())
def test_valid_or_one_line_config_error(drawn):
    data, changed = drawn
    try:
        cfg = RunConfig.from_dict(data)
    except ConfigError as exc:
        assert one_line(exc), data
        message = str(exc)
        if len(changed) == 1 and not message.startswith(CROSS_KEY):
            assert names_key(message, *changed), (data, message)
        return
    # the effective config reads back to itself, ints as ints, NaN as NaN
    # and an infinite max_dt as 1e308
    text = json.dumps(cfg.to_dict(), sort_keys=True)
    back = RunConfig.from_dict(json.loads(text)).to_dict()
    assert json.dumps(back, sort_keys=True) == text, data
    try:
        build_initial_support(cfg)
    except BUILD_ERRORS as exc:
        assert one_line(exc), data


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=configs())
def test_refused_config_exits_1_with_one_line(tmp_path, capsys, drawn):
    # only configs that RunConfig refuses: a valid one would run a flow
    data = drawn[0]
    try:
        RunConfig.from_dict(data)
    except ConfigError:
        pass
    else:
        assume(False)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), (data, err)
