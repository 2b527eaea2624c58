"""Quaternion constants and e^{angle k}, which only the tests use."""

import numpy as np

from earring import quaternion as qt

J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])
ONE = np.array([1.0, 0.0, 0.0, 0.0])


def exp_k(angle):
    """e^{angle * k}, broadcasting over the input shape."""
    angle = np.asarray(angle, dtype=np.result_type(angle, 1.0))
    zero = np.zeros_like(angle)
    return qt.quat(np.cos(angle), zero, zero, np.sin(angle))
