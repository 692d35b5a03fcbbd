"""Simulation, training, and evaluation toolkit for a memristive RNN decoder
of the distance-3 rotated surface code.

Its modules cover the full pipeline: syndrome sampling under circuit-level
noise (`surface_code_sim`), digital RNN training (`rnn_decoder`), the analog
crossbar inference channel (`analog_model`), hardware-aware retraining
(`hwa_training`), the statistics harness (`evaluation`), run configuration
(`config`) with the rule of each config field (`rules`), and persistence
(`io_formats`).
"""

__version__ = "0.1.0"
