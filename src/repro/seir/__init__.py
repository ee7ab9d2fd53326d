"""Stochastic SEIR disease simulator substrate (paper sections III, V-A)."""

from .batch_engine import (BatchedBinomialLeapEngine, BatchTrajectory,
                           stack_channel_tensor)
from .checkpoint import (Checkpoint, CheckpointError, StackedLeapState,
                         stack_leap_snapshots)
from .compartments import (Compartment, N_COMPARTMENTS, TransitionSpec,
                           build_transitions, infectiousness_weights)
from .events import EventDrivenEngine, ScheduledEvent
from .gillespie import GillespieEngine
from .model import ENGINE_NAMES, StochasticSEIRModel, engine_class
from .outputs import Trajectory, TrajectoryBuilder
from .parameters import DiseaseParameters, ParameterOverride, chicago_defaults
from .seeding import (SeedSequenceBank, batch_generator_for, generator_for,
                      mix_seed, mix_seeds)
from .tauleap import (BinomialLeapEngine, CompiledTransitions,
                      compiled_transitions_for, transition_table_key)

__all__ = [
    "Compartment", "N_COMPARTMENTS", "TransitionSpec",
    "build_transitions", "infectiousness_weights",
    "DiseaseParameters", "ParameterOverride", "chicago_defaults",
    "SeedSequenceBank", "generator_for", "batch_generator_for", "mix_seed",
    "mix_seeds",
    "Trajectory", "TrajectoryBuilder",
    "BinomialLeapEngine", "GillespieEngine", "EventDrivenEngine",
    "BatchedBinomialLeapEngine", "BatchTrajectory", "stack_channel_tensor",
    "ScheduledEvent", "CompiledTransitions", "compiled_transitions_for",
    "transition_table_key",
    "Checkpoint", "CheckpointError", "StackedLeapState",
    "stack_leap_snapshots",
    "StochasticSEIRModel", "engine_class", "ENGINE_NAMES",
]
