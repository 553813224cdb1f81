"""Seeded KERN001: a kernel backend registered under a name with no
KernelBackendExpectation — no parity fixture certifies it bitwise-equal
to the numpy baseline, so the analyzer must refuse it."""


class KernelBackend:
    name = "numpy"
    jit = False


class RogueSimdBackend(KernelBackend):
    name = "simd-unproven"
    jit = True

    def try_pull(self, spec, values, read_values, batch, in_sources, weights):
        return True
