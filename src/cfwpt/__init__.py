"""Wireless-powered cell-free massive MIMO uplink: simulation and
max-min fair power control with large-scale fading decoding."""

__version__ = "0.1.0"
