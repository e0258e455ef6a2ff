"""Campaign specs the benchmark submits, generated from a seed.

``paper_sweep`` mirrors ``examples/campaigns/paper_sweep.toml`` (48
scenarios over the seven design families); ``scaled_sweep`` keeps the
same seven families and adds design points until it expands to 144
scenarios.  Both are plain mappings, the structure an HTTP client posts.
"""

from __future__ import annotations

_WINDOW = {"warmup": 8, "drain": 4}


def _block(family, params, grid, stimulus, metrics=None) -> dict:
    block = {"family": family, "params": params, "grid": grid,
             "stimulus": stimulus}
    if metrics:
        block["metrics"] = metrics
    return block


def paper_sweep(seed: int) -> dict:
    """The paper-evaluation campaign (48 scenarios) under *seed*."""
    return {
        "campaign": {"name": "paper-sweep", "seed": seed,
                     "engine": "compiled", "workers": 2},
        "scenarios": [
            _block("mt_pipeline", {"n_stages": 3, "threads": 4},
                   {"meb": ["full", "reduced"],
                    "stimulus.active": [1, 2, 3, 4]},
                   {"kind": "active", "items_per_thread": 40}, _WINDOW),
            _block("mt_chain", {"n_funcs": 6}, {"threads": [2, 4, 8, 16]},
                   {"kind": "uniform", "items_per_thread": 16}, _WINDOW),
            _block("mt_pipeline", {"n_stages": 3, "threads": 4},
                   {"stimulus.payload_salt": list(range(8))},
                   {"kind": "uniform", "payload": "seeded",
                    "items_per_thread": 24}, _WINDOW),
            _block("mt_chain", {"threads": 4, "n_funcs": 3},
                   {"stimulus.payload_salt": list(range(8))},
                   {"kind": "uniform", "payload": "seeded",
                    "items_per_thread": 12}, _WINDOW),
            _block("mt_ring", {"threads": 4, "n_funcs": 2},
                   {"trips": [2, 4, 6, 8]},
                   {"kind": "uniform", "items_per_thread": 2}),
            _block("md5", {"threads": 4},
                   {"meb": ["full", "reduced"], "round_stages": [1, 4]},
                   {"messages": 4, "size": 24}),
            _block("processor", {"threads": 4},
                   {"meb": ["full", "reduced"],
                    "stimulus.kind": ["bursty", "random"]},
                   {"programs": ["sum", "fib", "gcd", "spin"], "bursts": 2,
                    "gap": 120}),
            _block("fuzz", {"base": "mt_pipeline", "threads": 4,
                            "n_stages": 2},
                   {"meb": ["full", "reduced"], "stimulus.rounds": [16, 24]},
                   {"kind": "fuzz", "burst": 3, "gap": 4}),
            _block("fault", {"threads": 2},
                   {"fault": ["drop", "duplicate", "stuck_ready",
                              "latency_spike"]},
                   {"kind": "inject", "items_per_thread": 6}),
        ],
    }


def scaled_sweep(seed: int) -> dict:
    """The paper sweep's seven families with more design points (144)."""
    spec = {
        "campaign": {"name": "paper-sweep-x3", "seed": seed,
                     "engine": "compiled", "workers": 2},
        "scenarios": [
            _block("mt_pipeline", {"threads": 4},
                   {"n_stages": [2, 3, 4], "meb": ["full", "reduced"],
                    "stimulus.active": [1, 2, 3, 4]},
                   {"kind": "active", "items_per_thread": 40}, _WINDOW),
            _block("mt_chain", {},
                   {"n_funcs": [3, 6], "threads": [2, 4, 8, 16]},
                   {"kind": "uniform", "items_per_thread": 16}, _WINDOW),
            _block("mt_pipeline", {"threads": 4},
                   {"n_stages": [3, 4],
                    "stimulus.payload_salt": list(range(16))},
                   {"kind": "uniform", "payload": "seeded",
                    "items_per_thread": 24}, _WINDOW),
            _block("mt_chain", {"threads": 4},
                   {"n_funcs": [3, 6],
                    "stimulus.payload_salt": list(range(16))},
                   {"kind": "uniform", "payload": "seeded",
                    "items_per_thread": 12}, _WINDOW),
            _block("mt_ring", {"threads": 4},
                   {"n_funcs": [2, 3, 4], "trips": [2, 4, 6, 8]},
                   {"kind": "uniform", "items_per_thread": 2}),
            _block("md5", {},
                   {"threads": [4, 8], "meb": ["full", "reduced"],
                    "round_stages": [1, 2, 4]},
                   {"messages": 4, "size": 24}),
            _block("processor", {},
                   {"threads": [4, 8], "meb": ["full", "reduced"],
                    "stimulus.kind": ["bursty", "random"]},
                   {"programs": ["sum", "fib", "gcd", "spin"], "bursts": 2,
                    "gap": 120}),
            _block("fuzz", {"base": "mt_pipeline", "threads": 4},
                   {"n_stages": [2, 3], "meb": ["full", "reduced"],
                    "stimulus.rounds": [16, 24]},
                   {"kind": "fuzz", "burst": 3, "gap": 4}),
            _block("fault", {},
                   {"threads": [2, 4],
                    "fault": ["drop", "duplicate", "stuck_ready",
                              "latency_spike"]},
                   {"kind": "inject", "items_per_thread": 6}),
        ],
    }
    return spec
