"""A scenario that validates, runs; one that does not validate, does not.

``Scenario.validate()`` is what the service checks before it queues a
scenario (202) instead of answering 400.  It must raise exactly when
``run_scenario`` would: a scenario it passes that fails at run time is
queued only to fail later, and one it rejects that would have run is a
spurious 400.  The scenarios are drawn from the registries (scenarios,
topologies, workloads, policies, controllers) with mutated fields: config
overrides at and beyond their limits, unknown names, kernel sizes, bad
slowdowns, phases and controller arguments, and scalar fields of the wrong
type (which the scenario must refuse to construct).
"""

from dataclasses import fields, replace

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core.config import DEFAULT_CONFIG
from repro.core.controllers import available_controllers
from repro.core.domains import available_topologies
from repro.core.dvfs import available_policies
from repro.core.scenario import (NESTED_CONFIG_FIELDS, Scenario,
                                 available_scenarios, get_scenario,
                                 run_scenario)
from repro.workloads.registry import available_workloads

INSTRUCTIONS = 200
BOGUS = "bogus"

#: Domain names of every topology, plus one that none has.
DOMAINS = ("fetch", "decode", "integer", "fp", "memory", "core", "int0",
           "fp1", BOGUS)


def _config_keys():
    """Every overridable config key with its default value."""
    keys = []
    for field in fields(DEFAULT_CONFIG):
        default = getattr(DEFAULT_CONFIG, field.name)
        if field.name in NESTED_CONFIG_FIELDS:
            keys.extend((f"{field.name}.{inner.name}",
                         getattr(default, inner.name))
                        for inner in fields(default))
        else:
            keys.append((field.name, default))
    return keys


def _mutations(default):
    """Values at, inside and beyond a field's limits."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.sampled_from((-1, 0, 1, 2, 3, 5, default + 1, default * 2))
    if isinstance(default, float):
        return st.sampled_from((-1.0, 0.0, 0.3, 0.5, 1.0, 2.6,
                                default * 2))
    return st.sampled_from((default, default.upper(), BOGUS, ""))


CONFIG_KEYS = _config_keys()
config_overrides = st.one_of(
    st.sampled_from(CONFIG_KEYS).flatmap(
        lambda item: st.tuples(st.just(item[0]), _mutations(item[1]))),
    st.tuples(st.sampled_from((BOGUS, "memory", "memory.bogus",
                               "fetch_width.x")),
              st.integers(min_value=-1, max_value=4)),
)
slowdown_values = st.sampled_from((-1.0, 0.0, 0.5, 1.0, 1.5, 3.0, BOGUS,
                                   float("nan"), float("inf")))
#: phases in and beyond a period, and values that are not finite reals
phase_values = st.sampled_from((0.0, 0.4, 3, -2.5, 1e9, float("nan"),
                                float("inf"), "abc", None))
controller_values = st.sampled_from((-1.0, 0.0, 0.25, 0.5, 2.0, 4.0))
controller_args = st.dictionaries(
    st.sampled_from(("low", "high", "step", "max_slowdown", "fetch_low",
                     "fetch_high", "max_fetch_slowdown", "setpoint", "kp",
                     "ki", "kd", BOGUS)),
    controller_values, max_size=2)
pid_blocks = st.sampled_from((("fp",), ("memory", "fp"), (BOGUS,), ()))
#: scalar fields with values of the right type, of the wrong type, of a
#: type that only looks right (1.0 for the integer 1, 1 for the bool True),
#: and non-finite numbers
scalar_fields = st.sampled_from((
    ("seed", (2, 1.0, "abc", True)),
    ("phase_seed", (3, 0.0, "0", False)),
    ("num_instructions", (INSTRUCTIONS + 0.5, "200", True)),
    ("kernel_size", (64.0, "64", None)),
    ("scale_voltages", (False, "no", 1, None)),
    ("base_period", (1, 0.8, "1.0", True, None, float("nan"),
                     float("inf"))),
    ("controller_epoch", (25, "50", False, None, float("nan"))),
)).flatmap(lambda item: st.tuples(st.just(item[0]),
                                  st.sampled_from(item[1])))
interval_schedules = st.lists(
    st.tuples(st.sampled_from((0.0, 20.0, -5.0)), st.sampled_from(DOMAINS),
              slowdown_values).map(list),
    max_size=2)


@st.composite
def scenarios(draw):
    """A registered scenario with some of its fields mutated."""
    scenario = get_scenario(draw(st.sampled_from(available_scenarios())))
    changes = {"num_instructions": INSTRUCTIONS}
    if draw(st.booleans()):
        changes["topology"] = draw(st.sampled_from(
            available_topologies() + (BOGUS,)))
    if draw(st.booleans()):
        changes["workload"] = draw(st.sampled_from(
            available_workloads() + (BOGUS, "kernel:bogus", "phased:bogus")))
    if draw(st.booleans()):
        changes["kernel_size"] = draw(st.sampled_from(
            (-1, 0, 1, 2, 3, 64, 96)))
    if draw(st.booleans()):
        changes["policy"] = draw(st.sampled_from(
            (None,) + available_policies() + (BOGUS,)))
    if draw(st.booleans()):
        changes["slowdowns"] = draw(st.dictionaries(
            st.sampled_from(DOMAINS), slowdown_values, max_size=2))
    if draw(st.booleans()):
        changes["phases"] = draw(st.dictionaries(
            st.sampled_from(DOMAINS), phase_values, max_size=2))
    if draw(st.booleans()):
        changes["config"] = dict(draw(st.lists(config_overrides, min_size=1,
                                               max_size=3)))
    if draw(st.booleans()):
        controller = draw(st.sampled_from(
            (None,) + available_controllers() + (BOGUS,)))
        changes["controller"] = controller
        args = {}
        if controller is not None:
            args = draw(controller_args)
            if controller == "pid" and draw(st.booleans()):
                args["blocks"] = list(draw(pid_blocks))
            if controller == "interval":
                args = {"schedule": draw(interval_schedules)}
        changes["controller_args"] = args
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        field_name, value = draw(scalar_fields)
        changes[field_name] = value
    try:
        return replace(scenario, **changes)
    except (TypeError, ValueError):
        return None              # rejected at construction: nothing to run


def _error(call):
    """The exception ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - any failure counts
        return exc
    return None


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
# phases that once validated and then failed the run
@example(replace(get_scenario("gals5"), num_instructions=INSTRUCTIONS,
                 phases={"integer": float("nan")}))
@example(replace(get_scenario("gals5"), num_instructions=INSTRUCTIONS,
                 phases={"integer": "abc"}))
def test_validate_raises_exactly_when_run_raises(scenario: Scenario):
    assume(scenario is not None)
    rejected = _error(scenario.validate)
    failed = _error(lambda: run_scenario(scenario))
    assert (rejected is None) == (failed is None), (scenario, rejected,
                                                    failed)


def test_controller_on_a_faster_than_nominal_domain_is_refused_up_front():
    # the pid controller echoes the 0.5 slowdown in its first vector, which
    # the controller runtime refuses mid-run; validate() must refuse it too
    scenario = replace(get_scenario("gals5"), num_instructions=INSTRUCTIONS,
                       slowdowns={"fetch": 0.5}, controller="pid")
    assert isinstance(_error(scenario.validate), ValueError)
    assert isinstance(_error(lambda: run_scenario(scenario)), ValueError)
    # without a controller the same speed-up stays legal
    plain = replace(scenario, controller=None)
    assert _error(plain.validate) is None
