import importlib.util
import pathlib

import numpy as np
import pytest

from lorsolve import (
    Domain,
    ProblemInstance,
    SampledFn,
    affine_map,
    derive_tau,
    doubling_map,
    power_young,
)


@pytest.fixture(scope="session")
def unit():
    return Domain.unit_interval()


@pytest.fixture(scope="session")
def psi2():
    return power_young(2.0)


@pytest.fixture(scope="session")
def tau2(psi2):
    return derive_tau(psi2)


def make_doubling_instance(m=256, alpha=0.25, g=0.25, h0=None, label="dbl"):
    """The workhorse test instance: phi = g * phi(2x mod 1) + h0 on (0,1)."""
    domain = Domain.unit_interval()
    if h0 is None:
        h0 = SampledFn.constant(domain, m, 1.0)
    return ProblemInstance(
        domain=domain,
        maps=(doubling_map(),),
        coeffs=(SampledFn.constant(domain, m, g),),
        h0=h0,
        K_decl=2,
        L_decl=1,
        alpha=alpha,
        psi=power_young(2.0),
        label=label,
    )


def make_twobranch_instance(m=256, alpha=0.25, g=0.125):
    """phi = g*phi(x/2) + g*phi((x+1)/2) + 1 on (0,1)."""
    domain = Domain.unit_interval()
    lower = affine_map([(0.0, 1.0, 0.5, 0.0)], label="lower_half")
    upper = affine_map([(0.0, 1.0, 0.5, 0.5)], label="upper_half")
    gfn = SampledFn.constant(domain, m, g)
    return ProblemInstance(
        domain=domain,
        maps=(lower, upper),
        coeffs=(gfn, gfn),
        h0=SampledFn.constant(domain, m, 1.0),
        K_decl=1,
        L_decl=1,
        alpha=alpha,
        psi=power_young(2.0),
        label="twobranch_test",
    )


def random_step(domain, m, rng, signed=True, scale=2.0):
    vals = rng.uniform(-scale if signed else 0.0, scale,
                       SampledFn.zeros(domain, m).ncells)
    return SampledFn(domain, m, vals)


def bench_workloads():
    """The seeded workload generator of the benchmark, read-only."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / \
        "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
