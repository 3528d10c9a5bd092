"""Terminal mobility and traffic processes (paper Section 2.1).

Random-walk movement, Bernoulli (and bursty) call arrivals, trace
recording/replay, the fluid-flow crossing-rate baseline of reference
[8], and the general-residence-time CTRW models (geometric,
hyperexponential, truncated-Pareto, deterministic residence; optional
directional drift) that the simulation-as-oracle conformance tier is
built on.

The re-exports load their submodule on first access, so importing one
submodule -- the CLI parser reads ``ctrw.MOBILITY_PRESETS`` -- loads
no other.
"""

from .. import _lazy

_lazy.lazy_exports(globals(), {
    "arrivals": ("BatchedArrivals", "BernoulliArrivals"),
    "ctrw": ("CTRWSpec", "CTRWWalk", "MOBILITY_PRESETS", "mobility_preset"),
    "fluid": ("FluidFlowModel",),
    "persistent": ("PersistentWalk",),
    "residence": (
        "DeterministicResidence", "GeometricResidence",
        "HyperexponentialResidence", "ResidenceDistribution",
        "TruncatedParetoResidence", "residence_from_spec",
    ),
    "traces": ("Trace", "TraceStep", "generate_trace", "replay_trace"),
    "walk": ("RandomWalk",),
})

__all__ = [
    "BatchedArrivals",
    "BernoulliArrivals",
    "CTRWSpec",
    "CTRWWalk",
    "DeterministicResidence",
    "FluidFlowModel",
    "GeometricResidence",
    "HyperexponentialResidence",
    "MOBILITY_PRESETS",
    "PersistentWalk",
    "RandomWalk",
    "ResidenceDistribution",
    "Trace",
    "TraceStep",
    "TruncatedParetoResidence",
    "generate_trace",
    "mobility_preset",
    "replay_trace",
    "residence_from_spec",
]
