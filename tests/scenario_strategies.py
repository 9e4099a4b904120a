"""Hypothesis strategies for scenarios, shared by the CLI, engine and fuzz tests."""

import math
import sys

from hypothesis import strategies as st

from vortex_ca.scenarios import scenario_from_dict

BEHAVIORS = ("cooperative", "noncooperative", "stationary", "attacking")


@st.composite
def fold_scenarios(draw):
    """2 to 14 robots of every behaviour at distinct points of a 3 m square
    (12 and more run the array pair stage), some with a goal inside the stop
    radius, some bodies overlapping from the start, for 1 to 20 steps of
    0.05 s, recorded every 1 to 5 steps."""
    n = draw(st.integers(2, 14))
    grid = st.tuples(st.integers(-15, 15), st.integers(-15, 15))
    points = draw(st.lists(grid, min_size=n, max_size=n, unique=True))
    robots = []
    for k, (i, j) in enumerate(points):
        x, y = 0.1 * i, 0.1 * j
        behavior = draw(st.sampled_from(BEHAVIORS))
        robot = {"id": k + 1, "x": x, "y": y, "behavior": behavior,
                 "heading": draw(st.floats(-math.pi, math.pi)),
                 "speed": 0.0 if behavior == "stationary" else draw(st.floats(0.05, 0.4)),
                 "radius": draw(st.floats(0.05, 0.2))}
        if behavior == "attacking":
            robot["target"] = (k + 1) % n + 1
        elif behavior != "stationary":
            near = draw(st.booleans())
            robot["goal"] = [x + 0.1, y] if near else [-x, -y]
        robots.append(robot)
    params = {"lambda": draw(st.floats(0.0, 50.0)), "vortex": draw(st.booleans()),
              "kp": draw(st.floats(0.5, 10.0))}
    if draw(st.booleans()):
        params["f_lim"] = draw(st.floats(0.05, 2.0))
    if draw(st.booleans()):
        params["omega_max"] = draw(st.floats(0.05, 2.0))
    return scenario_from_dict({
        "name": "fold", "dt": 0.05, "t_max": 0.05 * draw(st.integers(1, 20)),
        "record_stride": draw(st.integers(1, 5)), "params": params, "robots": robots,
    })


# Magnitudes from the smallest subnormal to the largest finite float (1.8e308).
EXTREME = st.floats(min_value=5e-324, max_value=sys.float_info.max)
SIGNED = st.just(0.0) | EXTREME | EXTREME.map(lambda value: -value)


@st.composite
def extreme_scenarios(draw):
    """A valid scenario document of 1 to 4 robots of every behaviour, whose
    coordinates, speeds, radii, gains and dt reach from 5e-324 to 1.8e308,
    run for 1 to 30 steps."""
    n = draw(st.integers(1, 4))
    robots = []
    for k in range(1, n + 1):
        behavior = draw(st.sampled_from(BEHAVIORS if n > 1 else BEHAVIORS[:3]))
        robot = {"id": k, "x": draw(SIGNED), "y": draw(SIGNED), "heading": draw(SIGNED),
                 "behavior": behavior, "radius": draw(st.just(0.0) | EXTREME)}
        if behavior != "stationary":
            robot["speed"] = draw(st.just(0.0) | EXTREME)
        if behavior == "attacking":
            robot["target"] = draw(st.sampled_from([i for i in range(1, n + 1) if i != k]))
        elif behavior != "stationary":
            robot["goal"] = [draw(SIGNED), draw(SIGNED)]
        robots.append(robot)
    params = {"kappa": draw(SIGNED.map(abs)), "lambda": draw(SIGNED.map(abs)),
              "kp": draw(EXTREME), "goal_tol": draw(EXTREME), "eps_v": draw(EXTREME),
              "f_lim": draw(st.none() | EXTREME), "omega_max": draw(st.none() | EXTREME),
              "vortex": draw(st.booleans())}
    if draw(st.booleans()):
        params["r_star"] = draw(SIGNED.map(abs))
    dt = draw(EXTREME)
    return {"name": "extreme", "dt": dt,
            "t_max": min(dt * draw(st.integers(1, 30)), sys.float_info.max),
            "record_stride": draw(st.integers(1, 5)), "params": params, "robots": robots}
