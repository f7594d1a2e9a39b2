"""Traceroute geolocation anomaly detection and repair."""

__version__ = "0.1.0"
