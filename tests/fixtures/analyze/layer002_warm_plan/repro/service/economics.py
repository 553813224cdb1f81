"""Seeded LAYER002: the warm-plan file and its forecaster grow back
beside the pre-warmer that reads a trace directly."""

from dataclasses import dataclass, field
from typing import List


@dataclass
class WarmPlan:
    entries: List[object] = field(default_factory=list)


def forecast_trace(trace):
    return WarmPlan()


def load_plan(path):
    return WarmPlan()


def add_flags(parser):
    parser.add_argument("--prewarm-top", type=int, default=0)
