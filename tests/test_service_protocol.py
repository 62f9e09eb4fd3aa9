"""Tests for the service request schema (``repro.service.protocol``).

Canonicalisation is the soundness argument for dedup and the shared
store: textually different spellings of the same work must produce the
same request key, result-irrelevant differences must be impossible to
express (unknown fields are rejected, execution hints have no schema),
and every default must be filled so the canonical form is total.
"""

import pytest

from repro.errors import ServiceError
from repro.service import normalize_request, request_key
from repro.service.protocol import describe_request

DAXPY = """\
loop daxpy
  t0 = load a[i]
  t1 = fma t0, x, c
  store b[i], t1
end
"""


def key_of(kind, payload):
    return request_key(kind, normalize_request(kind, payload))


# --- canonicalisation ---------------------------------------------------------

def test_defaults_are_filled_and_stable():
    canonical = normalize_request("bench", {"suite": "micro"})
    assert canonical == {
        "suite": "micro",
        "benchmarks": None,
        "configs": ["hlo"],
        "threshold": 32,
        "pgo": True,
        "prefetch": True,
        "seed": 2008,
        "machine": "itanium2",
        "verify": False,
        "trace": False,
    }


def test_spelled_out_defaults_hit_the_same_key():
    implicit = key_of("bench", {"suite": "micro"})
    explicit = key_of("bench", {
        "suite": "micro", "configs": ["hlo"], "seed": 2008,
        "threshold": 32, "pgo": True, "prefetch": True,
        "verify": False, "trace": False, "benchmarks": None,
    })
    assert implicit == explicit


def test_list_order_and_duplicates_normalise_away():
    a = key_of("bench", {"suite": "micro",
                         "configs": ["all-fp-l2", "hlo", "hlo"],
                         "benchmarks": ["mcf", "art"]})
    b = key_of("bench", {"suite": "micro",
                         "configs": ["hlo", "all-fp-l2"],
                         "benchmarks": ["art", "mcf", "art"]})
    assert a == b


def test_size_shorthand_normalises_to_bytes():
    shorthand = normalize_request("simulate", {
        "loop": DAXPY, "spaces": {"a": "64M"},
    })
    explicit = normalize_request("simulate", {
        "loop": DAXPY, "spaces": {"a": {"size": 64 << 20, "reuse": True}},
    })
    assert shorthand == explicit
    assert shorthand["spaces"]["a"]["size"] == 64 << 20


def test_different_work_gets_different_keys():
    base = key_of("bench", {"suite": "micro"})
    assert key_of("bench", {"suite": "micro", "seed": 7}) != base
    assert key_of("bench", {"suite": "cpu2000"}) != base
    # the kind participates in the key even for equal payload dicts
    sim = normalize_request("simulate", {"loop": DAXPY})
    assert request_key("simulate", sim) != request_key("trace", sim)


# --- rejection ----------------------------------------------------------------

def test_unknown_kind_is_rejected():
    with pytest.raises(ServiceError) as exc:
        normalize_request("transmogrify", {})
    assert exc.value.status == 400


def test_unknown_field_is_rejected_with_the_accepted_list():
    with pytest.raises(ServiceError) as exc:
        normalize_request("bench", {"suite": "micro", "workers": 8})
    assert exc.value.status == 400
    assert "workers" in str(exc.value)
    assert "accepted" in str(exc.value)


@pytest.mark.parametrize("payload", [
    {},                                      # suite is required
    {"suite": "spec95"},                     # unknown suite
    {"suite": "micro", "configs": []},       # empty config list
    {"suite": "micro", "configs": ["jit"]},  # unknown policy
    {"suite": "micro", "seed": -1},          # out of range
    {"suite": "micro", "seed": True},        # bool is not an int
    {"suite": "micro", "scheduler": "smt"},  # retired field
])
def test_bad_bench_payloads_are_rejected(payload):
    with pytest.raises(ServiceError):
        normalize_request("bench", payload)


@pytest.mark.parametrize("payload", [
    {},                                      # loop is required
    {"loop": DAXPY, "policy": "o3"},         # unknown policy
    {"loop": DAXPY, "spaces": {"a": "-4"}},  # non-positive size
    {"loop": DAXPY, "spaces": {"a": {"size": "64M", "zone": 1}}},
    {"loop": DAXPY, "trips": 0},             # out of range
])
def test_bad_simulate_payloads_are_rejected(payload):
    with pytest.raises(ServiceError):
        normalize_request("simulate", payload)


def test_oversized_loop_text_is_rejected():
    with pytest.raises(ServiceError) as exc:
        normalize_request("compile", {"loop": "x" * (2 << 20)})
    assert "exceeds" in str(exc.value)


# --- labels -------------------------------------------------------------------

def test_describe_request_labels_are_compact():
    bench = normalize_request(
        "bench", {"suite": "micro", "configs": ["hlo", "all-fp-l2"]}
    )
    assert describe_request("bench", bench) == "bench:micro:all-fp-l2+hlo"
    fuzz = normalize_request("fuzz", {"cases": 50, "seed": 3})
    assert describe_request("fuzz", fuzz) == "fuzz:50@3"
    compile_req = normalize_request("compile", {"loop": DAXPY})
    assert describe_request("compile", compile_req).startswith(
        "compile:hlo:loop daxpy"
    )
