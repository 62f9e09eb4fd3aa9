"""Machine-model plumbing through the service layer.

The ``machine`` field is result-determining: it must be validated (an
unknown name is a structured 400, never a queued job), canonicalised
into the request key (per-machine artifacts never collide), and an
HTTP-submitted per-machine suite must fingerprint-identically match a
local ``run_suite`` on the same machine.
"""

import pytest

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.errors import ServiceError
from repro.harness import run_suite
from repro.machine import build_machine
from repro.service import ServerConfig, ServiceClient, serve_in_thread
from repro.service.protocol import normalize_request, request_key
from repro.workloads import micro_suite

BENCH = "micro.stream"  # one-benchmark slice keeps the HTTP run quick


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("svc-machines")
    handle = serve_in_thread(ServerConfig(
        port=0,
        workers=2,
        cache_dir=str(tmp_path / "store"),
        runs_dir=str(tmp_path / "runs"),
        log_path=str(tmp_path / "log.jsonl"),
    ))
    client = ServiceClient(handle.url)
    client.wait_until_ready()
    yield client
    handle.stop()


# --- protocol -----------------------------------------------------------------

def test_machine_defaults_to_itanium2_in_every_kind():
    assert normalize_request("bench", {"suite": "micro"})["machine"] == \
        "itanium2"
    assert normalize_request("fuzz", {})["machine"] == "itanium2"
    loop_req = {"loop": "loop l\n  ld4 r4 = [r5], 4 !A\nend"}
    for kind in ("compile", "simulate", "trace"):
        payload = dict(loop_req)
        assert normalize_request(kind, payload)["machine"] == "itanium2"


def test_machine_is_part_of_the_request_key():
    base = normalize_request("bench", {"suite": "micro"})
    ldt = normalize_request("bench", {"suite": "micro",
                                      "machine": "ldt-core"})
    assert request_key("bench", base) != request_key("bench", ldt)


#: request keys minted when simulate/bench requests still carried a
#: stripped ``backend`` field and every loop and bench request a
#: ``scheduler`` field; stored results stay addressable
PINNED_KEYS = {
    "simulate": "9c0e0626aab4a6c7e50d667098be25316dbc0455c07541afe8132d2b48fbefd2",
    "bench": "cba24c46921041e9903ab48551a953e49b16511e0b27dd7f32656532f8ae9900",
    "compile": "91bf7dc220e58ee3e2498aad186aa91d149d0cb6bdb6b03829d45be286aae574",
    "trace": "681dfd1e87bd4812f535170d59226f112c773e7ead6918ee845cf0726069e6d3",
}


def test_request_keys_match_pinned_digests():
    loop = ("memref A affine stride=4 space=a\nloop l trips=8\n"
            "  ld4 r1 = [r2], 4 !A\n")
    payloads = {
        "simulate": {"loop": loop},
        "bench": {"suite": "micro"},
        "compile": {"loop": loop},
        "trace": {"loop": loop},
    }
    for kind, payload in payloads.items():
        key = request_key(kind, normalize_request(kind, payload))
        assert key == PINNED_KEYS[kind], kind


#: fields requests no longer accept, with the values they once took
RETIRED_FIELDS = {
    "backend": ("", "interp", "fast"),
    "scheduler": ("", "heuristic", "optimal"),
}


def test_retired_backend_field_is_an_unknown_field_400():
    loop_request = {"loop": "loop l\n  ld4 r4 = [r5], 4 !A\nend"}
    payloads = {
        "compile": loop_request,
        "simulate": loop_request,
        "trace": loop_request,
        "bench": {"suite": "micro"},
    }
    for kind, payload in payloads.items():
        for field, values in RETIRED_FIELDS.items():
            for value in values:
                with pytest.raises(ServiceError) as exc:
                    normalize_request(kind, {**payload, field: value})
                assert exc.value.status == 400
                assert "unknown field" in str(exc.value)
                assert field in str(exc.value)


def test_unknown_machine_is_a_structured_400():
    with pytest.raises(ServiceError) as exc:
        normalize_request("bench", {"suite": "micro",
                                    "machine": "pentium4"})
    assert exc.value.status == 400
    assert "machine" in str(exc.value)
    assert "itanium2" in str(exc.value)  # the valid choices are listed


# --- HTTP ---------------------------------------------------------------------

def test_unknown_machine_over_http_is_rejected_not_queued(service):
    with pytest.raises(ServiceError) as exc:
        service.submit("bench", suite="micro", machine="pentium4")
    assert exc.value.status == 400
    assert service.stats()["jobs"]["executed"] == 0


@pytest.mark.parametrize("machine_name", ["ldt-core", "slsq-core"])
def test_http_machine_suite_matches_local_fingerprint(service, machine_name):
    job = service.submit("bench", suite="micro",
                         benchmarks=[BENCH],
                         machine=machine_name)["job"]
    record = service.wait(job["id"], timeout=300)
    assert record["status"] == "done"
    result = record["result"]

    suite = [b for b in micro_suite() if b.name == BENCH]
    local = run_suite(
        suite,
        [baseline_config(pgo=True, prefetch=True),
         CompilerConfig(hint_policy=HintPolicy.HLO, trip_count_threshold=32,
                        pgo=True, prefetch=True)],
        machine=build_machine(machine_name),
        seed=2008,
        suite_name="micro",
    )
    assert result["fingerprint"] == local.manifest.fingerprint()
    assert result["manifest"]["machine"] == machine_name
    for cell in result["manifest"]["cells"]:
        assert cell["machine"] == machine_name
        assert cell["machine_digest"] == \
            build_machine(machine_name).digest()


def test_per_machine_results_do_not_collide_in_the_store(service):
    jobs = {}
    for machine_name in ("itanium2", "ldt-core"):
        job = service.submit("bench", suite="micro",
                             benchmarks=[BENCH],
                             machine=machine_name)["job"]
        jobs[machine_name] = service.wait(job["id"], timeout=300)
    assert jobs["itanium2"]["result"]["fingerprint"] != \
        jobs["ldt-core"]["result"]["fingerprint"]
