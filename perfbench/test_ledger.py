"""Ledger rows: keyed by layer index, with explicit units.

Run:  PYTHONPATH=src python -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import ledger
import workloads
from repro.henn.backend import MockBackend
from repro.henn.layers import HeConv2d, HeFlatten, HeLinear, HePoly
from repro.henn.protocol import Client, CloudService
from repro.nt.ntt import BatchedNttPlan
from repro.nt.primes import gen_ntt_primes

SHAPE = (1, 6, 6)


@pytest.fixture
def installed():
    led = ledger.Ledger().install()
    try:
        yield led
    finally:
        led.uninstall()


def _two_poly_layers():
    rng = np.random.default_rng(0)
    return [
        HeConv2d(rng.uniform(-0.5, 0.5, (2, 1, 3, 3)), rng.uniform(-0.1, 0.1, 2)),
        HePoly(np.array([0.1, 0.5, 0.25])),
        HeFlatten(),
        HeLinear(rng.uniform(-0.3, 0.3, (10, 32)), rng.uniform(-0.1, 0.1, 10)),
        HePoly(np.array([0.0, 1.0, 0.1])),
    ]


def test_repeated_layer_labels_stay_separate_rows(installed):
    backend = MockBackend(batch=4, levels=8)
    service = CloudService(backend, _two_poly_layers(), SHAPE)
    client = Client(backend, SHAPE)
    before = ledger.snapshot()
    images = np.random.default_rng(1).uniform(0, 1, (2, 1) + SHAPE[1:])
    for image in images:
        response = service.try_classify(client.encrypt_request(image[None]))
        assert response.ok
    window = ledger.diff(ledger.snapshot(), before)
    rows = ledger.derive_rows(window, window, images=2, requests=2)

    assert rows["henn.L1.HePoly_s"] > 0
    assert rows["henn.L4.HePoly_s"] > 0
    assert rows["henn.L1.HePoly_s"] != rows["henn.L4.HePoly_s"]
    assert rows["henn.evaluate_s"] > 0
    for name in rows:
        assert ledger.unit(name).startswith("s") == name.endswith("_s"), name
    assert ledger.unit("ckksrns.keyswitch_sweeps") == "count/image"
    assert ledger.unit("serving.batches") == "count"


def test_ntt_rows_count_outermost_transforms_only(installed):
    n = 16
    moduli = tuple(gen_ntt_primes([20, 20, 50], n))
    stack = np.random.default_rng(2).integers(0, 1000, (len(moduli), 3, n))
    before = ledger.snapshot()
    BatchedNttPlan.get(n, moduli).forward(stack)
    window = ledger.diff(ledger.snapshot(), before)
    # The lone wide channel runs through NttPlan.forward inside the
    # batched call; it must not be counted a second time.
    assert window[ledger.PREFIX + "nt.ntt_rows"][1] == len(moduli) * 3
    assert window[ledger.PREFIX + "nt.ntt"][0] == 1


def test_uninstall_restores_the_public_functions():
    original = Client.encrypt_request
    led = ledger.Ledger().install()
    assert Client.encrypt_request is not original
    led.uninstall()
    assert Client.encrypt_request is original


def test_benchmark_json_declares_what_the_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == ledger.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
