"""Value Prediction Systems (VPS).

Implements the predictors the paper discusses: the baseline
(non-secure) LVP [Lipasti et al. 1996], VTAGE [Perais & Seznec 2014],
an oracle wrapper matching the paper's experimental setup, plus the
stride and BeBoP extensions and the "no VP" control.
"""

from repro.vp.base import AccessKey, Prediction, PredictorStats, ValuePredictor
from repro.vp.bebop import BebopPredictor
from repro.vp.indexing import (
    DATA_ADDRESS_INDEX,
    PC_INDEX,
    PC_PID_INDEX,
    IndexFunction,
    IndexSource,
)
from repro.vp.lvp import LastValuePredictor
from repro.vp.nopred import NoPredictor
from repro.vp.oracle import OracleTargetPredictor
from repro.vp.stride import StridePredictor
from repro.vp.table import VpTable, VptEntry
from repro.vp.vtage import VtagePredictor

__all__ = [
    "AccessKey",
    "BebopPredictor",
    "DATA_ADDRESS_INDEX",
    "IndexFunction",
    "IndexSource",
    "LastValuePredictor",
    "NoPredictor",
    "OracleTargetPredictor",
    "PC_INDEX",
    "PC_PID_INDEX",
    "Prediction",
    "PredictorStats",
    "StridePredictor",
    "ValuePredictor",
    "VpTable",
    "VptEntry",
    "VtagePredictor",
]
