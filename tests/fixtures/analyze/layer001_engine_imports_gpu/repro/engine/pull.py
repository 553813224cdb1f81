"""Seeded LAYER001: a paper-layer engine module is still an engine
module, and the engine never imports the warp model."""

import repro.gpu.warp
