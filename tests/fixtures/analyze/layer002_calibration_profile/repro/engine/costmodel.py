"""Seeded LAYER002: a per-machine profile cached on disk, which every
strategy decision read before the reference rates became constants."""

import json
import os

PROFILE_FILENAME = "calibration.json"


class CalibrationProfile:
    run_overhead_s = 3e-4

    def to_dict(self):
        return {"run_overhead_s": self.run_overhead_s}


def get_profile():
    path = os.path.join(os.path.expanduser("~"), PROFILE_FILENAME)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
