"""What several test modules share: the presets' analysis regimes and
``run`` exit codes, and a bit-level form of a trajectory log."""

import struct

# Preset -> (the regime it is analyzed under, its `run` exit code), as in the
# benchmark's PRESETS map (benchmarks/bench.py), which keeps its own copy.
PRESET_RUNS = {
    "coop_headon": ("coop_pair", 2),
    "coop_triangle": ("multi_robot", 0),
    "noncoop_headon": ("coop_vs_noncoop", 2),
    "attacker": ("coop_vs_attacker", 2),
    "nonvortex_headon": ("nonvortex_pair", 2),
    "attractive_only": ("attractive_only", 0),
    "saturated_headon": ("coop_pair", 0),
}


def log_bits(log):
    """Every recorded value of ``log``, each float as its bits: two logs hold
    the same bits exactly when their ``log_bits`` are equal.  A float is its
    ``float.hex``, which tells +0.0 from -0.0; a NaN, which ``float.hex``
    writes as ``'nan'`` whatever its sign and payload, is its IEEE 754 bits."""
    def cell(value):
        if not isinstance(value, float):
            return value
        return value.hex() if value == value else struct.pack(">d", value).hex()

    def traces(mapping):
        return {key: {attr: list(map(cell, values)) for attr, values in vars(trace).items()}
                for key, trace in mapping.items()}

    events = [(cell(event.t), event.kind, event.ids) for event in log.events]
    return list(map(cell, log.t)), traces(log.robots), traces(log.pairs), events
