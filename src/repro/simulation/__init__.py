"""Edge-computing testbed simulator.

Replaces the paper's physical platform (80 NVIDIA Jetson workers behind WiFi
routers plus a GPU parameter server) with a timing model: device profiles
taken from Table II, per-round performance modes, a WiFi bandwidth model
with distance groups and stochastic fluctuation, worker state estimation
(Eq. 5-6), and traffic accounting.  Training happens for real (on the NumPy
models); only wall-clock time and network bytes are simulated.
"""

from repro.simulation.device import (
    DeviceProfile,
    JETSON_TX2,
    JETSON_NX,
    JETSON_AGX,
    DEVICE_PROFILES,
    DEVICE_MIX,
)
from repro.simulation.network import WifiNetworkModel, DISTANCE_GROUPS
from repro.simulation.worker_device import WorkerDevice
from repro.simulation.cluster import Cluster, build_cluster
from repro.simulation.estimator import WorkerStateEstimator, BandwidthEstimator
from repro.simulation.traffic import TrafficMeter, feature_bytes
from repro.simulation.timing import (
    round_times,
    round_duration,
    average_waiting_time,
)

__all__ = [
    "DeviceProfile",
    "JETSON_TX2",
    "JETSON_NX",
    "JETSON_AGX",
    "DEVICE_PROFILES",
    "DEVICE_MIX",
    "WifiNetworkModel",
    "DISTANCE_GROUPS",
    "WorkerDevice",
    "Cluster",
    "build_cluster",
    "WorkerStateEstimator",
    "BandwidthEstimator",
    "TrafficMeter",
    "feature_bytes",
    "round_times",
    "round_duration",
    "average_waiting_time",
]
