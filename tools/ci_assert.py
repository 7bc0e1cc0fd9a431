#!/usr/bin/env python3
"""CI gates over the benches' JSON reports.

Each CI step runs its benches with --json and then one check here:

  ci_assert.py kernel-determinism AUTO PORTABLE
      backend_comparison under the dispatched kernel tier and under
      --kernel portable: every modeled head-to-head figure agrees.
  ci_assert.py pinned REPORT...
      the determinism contract's exact modeled figures: backend_comparison
      at 200 packets, mixed_radio inproc on fast and on sim at --scale 0.05.
  ci_assert.py backend-floors REPORT
      backend_comparison wall clock: fast over sim >= 4x, sim <= 590 ms,
      fast <= 100 ms.
  ci_assert.py resolved REPORT...
      a closed-loop scenario resolved every packet it offered.
  ci_assert.py swarm-counts INPROC SWARM [INPROC SWARM ...]
      a TCP swarm replay computed the in-process run's per-class counts.
  ci_assert.py net-fast-bound SWARM
      mixed_radio over TCP on the fast backend keeps its modeled figures
      (cycle stamps are timing over the network, so a bound, not a pin).
  ci_assert.py churn SERIAL THREADED SIM
  ci_assert.py faults FAST THREADED SIM
  ci_assert.py tenant-storm FAST THREADED SIM
      the reconfig_churn, device_failure and tenant_storm invariants.
  ci_assert.py threaded-speedup SERIAL THREADED
      4 worker threads reproduce the serial run at >= 1.5x its speed.
  ci_assert.py threaded-overhead SERIAL THREADED SERIAL THREADED SERIAL THREADED
      three interleaved pairs: 4 worker threads reproduce the serial run in
      every pair, and the median threaded/serial wall-clock ratio is <= 1.5x:
      a pool that cannot speed a run up must not collapse it either.
  ci_assert.py multibuffer CRYPTO
      crypto_primitives: on every hardware kernel tier, four CCM seals per
      ccm_batch call run >= 1.3x the one-at-a-time CCM seal rate (the
      portable tier, the per-lane oracle, is exempt).
  ci_assert.py gcm-overhead CRYPTO
      crypto_primitives: on every hardware kernel tier, a 2 KB GCM seal
      runs at >= a floor share of the CTR keystream's rate (the median of
      back-to-back window ratios, gcm_seal_over_ctr; floors in
      GCM_OVERHEAD_FLOORS): GHASH's aggregated reductions keep up with the
      keystream (the portable tier's Shoup-table GHASH is exempt).
  ci_assert.py --self-test
      every check passes one synthetic report set and fails another.

Exit status: 0 when the gate holds, 1 when it fails, 2 on bad usage.
"""

import inspect
import json
import sys


class GateFailed(Exception):
    pass


def require(cond, *what):
    # Not `assert`: python -O would strip the gate.
    if not cond:
        raise GateFailed(" ".join(str(w) for w in what))


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---- shared report helpers ----------------------------------------------------

def class_key(c):
    return (c["name"], c["offered"], c["completed"], c["auth_failures"],
            c["decrypt_submitted"], c["decrypt_completed"])


def tenant_key(t):
    return (t["name"], t["accepted"], t["completed"], t["throttled"], t["shed"])


def resolved(report):
    """Every offered packet completed, authenticated and round-tripped."""
    for c in report["classes"]:
        where = (report["scenario"], report["backend"], c["name"])
        require(c["completed"] == c["offered"], where, "left packets unresolved")
        require(c["auth_failures"] == 0, where, "had auth failures")
        require(c["decrypt_completed"] == c["decrypt_submitted"], where,
                "left decrypt round-trips unresolved")


def same_counts(a, b, key, what):
    """Two lists of class or tenant records hold identical counts."""
    ka, kb = [key(x) for x in a], [key(x) for x in b]
    require(ka == kb, what, "diverged:", ka, "vs", kb)


def serial_equals_threaded(serial, threaded, *fields):
    """A threaded run is the serial run's bit-identical twin: makespan,
    the named top-level fields and every per-class count."""
    for f in ("makespan_cycles",) + fields:
        require(serial[f] == threaded[f], f"threaded {serial['scenario']} run diverged from "
                f"serial on {f}:", serial[f], "vs", threaded[f])
    same_counts(serial["classes"], threaded["classes"], class_key,
                f"{serial['scenario']} per-class counts, serial vs threaded,")


# ---- checks -------------------------------------------------------------------

HEAD_TO_HEAD_FIELDS = ("device_cycles", "modeled_mbps", "mean_latency_cycles")


def kernel_determinism(auto, portable):
    require(portable["kernel"] == "portable", "second report ran kernel", portable["kernel"])
    for backend in ("sim", "fast"):
        a, p = auto["head_to_head"][backend], portable["head_to_head"][backend]
        for f in HEAD_TO_HEAD_FIELDS:
            require(a[f] == p[f], backend, f, a[f], "vs", p[f],
                    "(kernel tier changed a modeled figure)")
    fast = auto["head_to_head"]["fast"]
    return (f"kernel determinism: auto ({auto['kernel']}) and portable agree on "
            f"device_cycles={fast['device_cycles']}, modeled_mbps={fast['modeled_mbps']}")


# Modeled figures the determinism contract fixes: identical on every
# kernel tier and thread count, so any change is a model change.
PINS = {
    ("backend_comparison", "sim", 200): {"device_cycles": 335440, "modeled_mbps": 1856.05,
                                         "mean_latency_cycles": 6677.84},
    ("backend_comparison", "fast", 200): {"device_cycles": 334694, "modeled_mbps": 1860.18,
                                          "mean_latency_cycles": 6668.88},
    ("mixed_radio", "fast", 1100): {"makespan_cycles": 1084404, "p99_latency_cycles": 215039},
    ("mixed_radio", "sim", 55): {"makespan_cycles": 89619, "p99_latency_cycles": 34278},
}


def pinned_figures(report):
    """(pin key, {field: value}) for each pinnable run in the report."""
    if report.get("bench") == "backend_comparison":
        for backend in ("sim", "fast"):
            h = report["head_to_head"][backend]
            yield (("backend_comparison", backend, report["packets"]),
                   {f: h[f] for f in HEAD_TO_HEAD_FIELDS})
    else:
        yield ((report["scenario"], report["backend"], report["total_offered"]),
               {"makespan_cycles": report["makespan_cycles"],
                "p99_latency_cycles": report["latency_cycles"]["p99"]})


def pinned(*reports):
    n = 0
    for report in reports:
        for key, got in pinned_figures(report):
            require(key in PINS, "no pinned figures for", key)
            require(got == PINS[key], key, "modeled figures moved:", got, "vs pinned", PINS[key])
            n += 1
    return f"pinned: {n} run(s) match their modeled figures exactly"


def backend_floors(report):
    h = report["head_to_head"]
    speedup, sim_ms, fast_ms = h["wall_clock_speedup"], h["sim"]["wall_ms"], h["fast"]["wall_ms"]
    require(speedup >= 4, f"fast-over-sim speedup below floor: {speedup:.1f}x < 4x")
    require(sim_ms <= 590, f"sim wall {sim_ms:.1f} ms > 590 ms "
            "(4x under the seed's 11.7 s / 1000 packets)")
    require(fast_ms <= 100, f"fast wall {fast_ms:.1f} ms > 100 ms (lost kernel dispatch?)")
    return (f"backend floors: fast over sim {speedup:.1f}x, sim {sim_ms:.1f} ms, "
            f"fast {fast_ms:.1f} ms / {report['packets']} packets")


def all_resolved(*reports):
    for r in reports:
        resolved(r)
    return "; ".join(f"{r['scenario']}/{r['backend']}: {r['total_completed']} packets resolved"
                     for r in reports)


def swarm_counts(*paired):
    require(paired and len(paired) % 2 == 0, "expected INPROC SWARM pairs")
    for inproc, swarm in zip(paired[::2], paired[1::2]):
        same_counts(inproc["classes"], swarm["classes"], class_key,
                    f"{inproc['scenario']}/{inproc['backend']} counts, inproc vs TCP swarm,")
    return f"swarm counts: {len(paired) // 2} TCP replay(s) identical to in-process"


# Best recorded mixed_radio net/fast modeled figures; a run may fall up to
# 15% short of them.
NET_FAST_BEST_MBPS, NET_FAST_BEST_P99 = 2034.51, 127999


def net_fast_bound(swarm):
    require((swarm["scenario"], swarm["backend"]) == ("mixed_radio", "fast"),
            "expected a mixed_radio fast swarm report, got", swarm["scenario"], swarm["backend"])
    mbps, p99 = swarm["modeled_mbps"], swarm["latency_cycles"]["p99"]
    require(mbps >= 0.85 * NET_FAST_BEST_MBPS,
            f"net modeled {mbps} Mbps < 0.85 x {NET_FAST_BEST_MBPS}")
    require(p99 <= 1.15 * NET_FAST_BEST_P99, f"net p99 {p99} cycles > 1.15 x {NET_FAST_BEST_P99}")
    return f"net/fast: {mbps} modeled Mbps, p99 {p99} cycles within bounds"


def churn(serial, threaded, sim):
    for r in (serial, sim):
        require(r["reconfigurations"] > 0, r["backend"], "churn made no reconfigurations")
        require(r["reconfig_stall_cycles"] > 0, r["backend"], "churn stalled no slot-cycles")
        resolved(r)
    serial_equals_threaded(serial, threaded, "reconfigurations", "reconfig_stall_cycles")
    return (f"churn: {serial['reconfigurations']} swaps / {serial['reconfig_stall_cycles']} "
            f"stall cycles (fast), {sim['reconfigurations']} swaps (sim)")


def faults(fast, threaded, sim):
    for r in (fast, threaded, sim):
        require(r["devices_failed"] == 2, r["backend"], "devices_failed", r["devices_failed"])
        require(r["devices_added"] == 2, r["backend"], "devices_added", r["devices_added"])
        require(r["lost_jobs"] == 0, r["backend"], "lost jobs to a fault")
        require(r["recovery"], r["backend"], "recorded no recovery events")
        for ev in r["recovery"]:
            require(ev["lost_jobs"] == 0, r["backend"], ev)
        resolved(r)
    # Recovery timing (resubmitted/migrated) depends on when each backend's
    # loop detects a kill, so only per-class totals pin across backends.
    same_counts(fast["classes"], sim["classes"], class_key,
                "device_failure per-class counts, fast vs sim,")
    serial_equals_threaded(fast, threaded, "resubmitted_jobs", "migrated_channels")
    return (f"device_failure: {fast['total_completed']} packets, {fast['devices_failed']} "
            f"kills survived, {fast['resubmitted_jobs']} resubmissions, 0 lost")


def tenant_storm(fast, threaded, sim):
    for r in (fast, threaded, sim):
        tenants = {t["name"]: t for t in r["tenants"]}
        require(len(tenants) == 3, r["backend"], "expected 3 tenants, got", len(tenants))
        voip, video, bulk = tenants["acme_voice"], tenants["acme_video"], tenants["bulkco"]
        require(voip["slo_ok"], r["backend"], "voip p99 SLO violated",
                voip["latency_cycles"]["p99"])
        require(voip["shed"] == 0 and voip["throttled"] == 0, r["backend"], "voip was refused")
        require(bulk["shed"] > 0, r["backend"], "storm did not shed bulk")
        require(bulk["shed"] > video["shed"] >= voip["shed"], r["backend"],
                "degradation order broken")
        for t in r["tenants"]:
            require(t["completed"] == t["accepted"], r["backend"], t["name"],
                    "left accepted packets unresolved")
    same_counts(fast["tenants"], threaded["tenants"], tenant_key,
                "per-tenant counts, serial vs threaded,")
    same_counts(fast["tenants"], sim["tenants"], tenant_key, "per-tenant counts, fast vs sim,")
    shed = {t["name"]: t["shed"] for t in fast["tenants"]}["bulkco"]
    return f"tenant_storm: voip p99 SLO held on both backends while bulkco shed {shed} arrivals"


def threaded_speedup(serial, threaded):
    serial_equals_threaded(serial, threaded)
    speedup = serial["wall_ms"] / threaded["wall_ms"]
    require(speedup >= 1.5, f"threaded stepping speedup below floor: {speedup:.2f}x < 1.5x")
    return (f"threaded (4 workers) vs serial wall-clock: {serial['wall_ms']:.1f} ms -> "
            f"{threaded['wall_ms']:.1f} ms = {speedup:.2f}x")


# A threaded run may take at most this multiple of the serial wall clock.
THREADED_OVERHEAD = 1.5


def threaded_overhead(*paired):
    # One pair is too noisy on a shared runner (single pairs have read 1.85x
    # where the median of ten sat near 1.1x), so the limit is on the median
    # ratio of three interleaved pairs.
    require(len(paired) == 6, "expected three SERIAL THREADED pairs, got", len(paired), "reports")
    pairs = list(zip(paired[::2], paired[1::2]))
    for serial, threaded in pairs:
        serial_equals_threaded(serial, threaded)
    ratios = sorted(t["wall_ms"] / s["wall_ms"] for s, t in pairs)
    median = ratios[1]
    shown = ", ".join(f"{r:.2f}x" for r in ratios)
    require(median <= THREADED_OVERHEAD, f"threaded run collapsed: median threaded/serial wall "
            f"ratio {median:.2f}x > {THREADED_OVERHEAD}x (pairs {shown})")
    return (f"threaded overhead ({pairs[0][0]['backend']}): median {median:.2f}x serial wall "
            f"over 3 pairs ({shown})")


# Four CCM seals side by side over one at a time, on a hardware tier.
MULTIBUFFER_GAIN = 1.3


def multibuffer(report):
    require(report.get("bench") == "crypto_primitives", "expected a crypto_primitives report")
    gains = []
    for t in report["by_kernel_tier"]:
        if t["tier"] == "portable":
            continue  # the oracle runs its lanes one after another
        gain = t["ccm_seal_x4_mb_s"] / t["ccm_seal_mb_s"]
        require(gain >= MULTIBUFFER_GAIN, f"{t['tier']}: CCM seal x4 {t['ccm_seal_x4_mb_s']:.0f} "
                f"MB/s is {gain:.2f}x the single seal's {t['ccm_seal_mb_s']:.0f} MB/s "
                f"< {MULTIBUFFER_GAIN}x")
        gains.append(f"{t['tier']} {gain:.2f}x")
    return "multibuffer: CCM seal x4 over single: " + (", ".join(gains) or
                                                       "no hardware tier (portable exempt)")


# GCM seal over the CTR keystream alone, 2 KB payloads, per hardware tier:
# crypto_primitives' gcm_seal_over_ctr, the median of 15 ratios of
# back-to-back GCM and CTR windows. Eleven runs on a shared 4-vCPU x86-64
# VM read 0.44-0.46 on vaes and 0.44-0.50 on aesni; the 4-block GHASH
# that came before read 0.23-0.25 and 0.35-0.37.
GCM_OVERHEAD_FLOORS = {"vaes": 0.40, "aesni": 0.40}


def gcm_overhead(report):
    require(report.get("bench") == "crypto_primitives", "expected a crypto_primitives report")
    shares = []
    for t in report["by_kernel_tier"]:
        if t["tier"] == "portable":
            continue  # the Shoup-table GHASH is far slower than any CTR
        require("gcm_seal_over_ctr" in t, f"{t['tier']}: no gcm_seal_over_ctr in the report")
        floor = GCM_OVERHEAD_FLOORS[t["tier"]]
        share = t["gcm_seal_over_ctr"]
        require(share >= floor, f"{t['tier']}: GCM seal runs at {share:.2f} of CTR's rate "
                f"< {floor}")
        shares.append(f"{t['tier']} {share:.2f}")
    return "gcm-overhead: GCM seal over CTR: " + (", ".join(shares) or
                                                   "no hardware tier (portable exempt)")


CHECKS = {
    "kernel-determinism": kernel_determinism,
    "pinned": pinned,
    "backend-floors": backend_floors,
    "resolved": all_resolved,
    "swarm-counts": swarm_counts,
    "net-fast-bound": net_fast_bound,
    "churn": churn,
    "faults": faults,
    "tenant-storm": tenant_storm,
    "threaded-speedup": threaded_speedup,
    "threaded-overhead": threaded_overhead,
    "multibuffer": multibuffer,
    "gcm-overhead": gcm_overhead,
}


# ---- self-test ----------------------------------------------------------------

def _cls(name, n=10, **over):
    c = {"name": name, "offered": n, "completed": n, "auth_failures": 0,
         "decrypt_submitted": 2, "decrypt_completed": 2}
    c.update(over)
    return c


def _scenario(scenario="s", backend="fast", classes=None, **over):
    classes = classes if classes is not None else [_cls("a"), _cls("b")]
    r = {"bench": "scenario_runner", "scenario": scenario, "backend": backend,
         "makespan_cycles": 1000, "wall_ms": 10.0, "modeled_mbps": 2000.0,
         "latency_cycles": {"p99": 100000}, "classes": classes,
         "total_offered": sum(c["offered"] for c in classes),
         "total_completed": sum(c["completed"] for c in classes),
         "reconfigurations": 5, "reconfig_stall_cycles": 500, "devices_failed": 2,
         "devices_added": 2, "lost_jobs": 0, "resubmitted_jobs": 3, "migrated_channels": 1,
         "recovery": [{"kind": "kill", "lost_jobs": 0}], "tenants": []}
    r.update(over)
    return r


def _h2h(kernel="vaes", packets=200, sim=None, fast=None, **over):
    def side(base, ov):
        return dict(base, **(ov or {}))
    pin_sim = PINS[("backend_comparison", "sim", 200)]
    pin_fast = PINS[("backend_comparison", "fast", 200)]
    r = {"bench": "backend_comparison", "kernel": kernel, "packets": packets,
         "head_to_head": {"sim": side(dict(pin_sim, wall_ms=80.0), sim),
                          "fast": side(dict(pin_fast, wall_ms=8.0), fast),
                          "wall_clock_speedup": 10.0}}
    r["head_to_head"].update(over)
    return r


def _tenants(voip_shed=0, voip_slo=True, bulk_shed=50, video_shed=5, bulk_completed=100):
    def t(name, shed, completed=100, slo_ok=True):
        return {"name": name, "accepted": 100, "completed": completed, "throttled": 0,
                "shed": shed, "slo_ok": slo_ok, "latency_cycles": {"p99": 900}}
    return [t("acme_voice", voip_shed, slo_ok=voip_slo), t("acme_video", video_shed),
            t("bulkco", bulk_shed, completed=bulk_completed)]


def _mixed(backend, offered):
    pin = PINS[("mixed_radio", backend, offered)]
    return _scenario("mixed_radio", backend, [_cls("voip", offered)],
                     makespan_cycles=pin["makespan_cycles"],
                     latency_cycles={"p99": pin["p99_latency_cycles"]})


def _crypto(**gains):
    """A crypto_primitives report whose tiers run CCM seal x4 at the given
    multiple of the single seal's 900 MB/s."""
    return {"bench": "crypto_primitives", "kernel": "vaes", "by_kernel_tier": [
        {"tier": tier, "ccm_seal_mb_s": 900.0, "ccm_seal_x4_mb_s": 900.0 * g}
        for tier, g in gains.items()]}


def _gcm(**shares):
    """A crypto_primitives report whose tiers seal GCM at the given share of
    CTR's rate."""
    return {"bench": "crypto_primitives", "kernel": "vaes", "by_kernel_tier": [
        {"tier": tier, "gcm_seal_over_ctr": r} for tier, r in shares.items()]}


def _cases():
    """(check, passing reports, failing reports, expected failure text): one
    case per gate, so each gate is shown able to fail on its own."""
    s, t = _scenario, _tenants

    def overhead(*walls):
        """SERIAL THREADED report pairs with the given (serial, threaded) wall_ms."""
        return tuple(s(wall_ms=w) for pair in walls for w in pair)

    bad_cls = [_cls("a"), _cls("b", completed=9)]
    ok3, sim3 = (s(),) * 3, (s(), s(), s(backend="sim"))
    storm = (s(tenants=t()),) * 3
    return [
        ("kernel-determinism", (_h2h(), _h2h("portable")),
         (_h2h(), _h2h("portable", fast={"device_cycles": 1})), "kernel tier changed"),
        ("kernel-determinism", (_h2h(), _h2h("portable")), (_h2h(), _h2h("vaes")), "ran kernel"),
        ("pinned", (_h2h(), _mixed("fast", 1100), _mixed("sim", 55)),
         (_h2h(sim={"mean_latency_cycles": 6677.85}),), "figures moved"),
        ("pinned", (_mixed("sim", 55),), (dict(_mixed("sim", 55), latency_cycles={"p99": 34279}),),
         "figures moved"),
        ("pinned", (_h2h(),), (_h2h(packets=100),), "no pinned figures"),
        ("backend-floors", (_h2h(),), (_h2h(wall_clock_speedup=3.9),), "speedup below floor"),
        ("backend-floors", (_h2h(),), (_h2h(sim={"wall_ms": 590.5}),), "> 590 ms"),
        ("backend-floors", (_h2h(),), (_h2h(fast={"wall_ms": 100.5}),), "> 100 ms"),
        ("resolved", (s(), s(backend="sim")), (s(), s(classes=bad_cls)), "packets unresolved"),
        ("resolved", (s(),), (s(classes=[_cls("a", auth_failures=1)]),), "auth failures"),
        ("resolved", (s(),), (s(classes=[_cls("a", decrypt_completed=1)]),), "round-trips"),
        ("swarm-counts", (s(), s(wall_ms=99.0, makespan_cycles=7)),
         (s(), s(classes=[_cls("a"), _cls("b", decrypt_submitted=3)])), "inproc vs TCP"),
        ("swarm-counts", (s(), s()), (s(), s(classes=[_cls("a")])), "inproc vs TCP"),
        ("swarm-counts", (s(), s()), (s(),), "pairs"),
        ("net-fast-bound", (s("mixed_radio", modeled_mbps=1729.4),),
         (s("mixed_radio", modeled_mbps=1729.3),), "Mbps <"),
        ("net-fast-bound", (s("mixed_radio", latency_cycles={"p99": 147198}),),
         (s("mixed_radio", latency_cycles={"p99": 147199}),), "p99"),
        ("net-fast-bound", (s("mixed_radio"),), (s("mixed_radio", "sim"),), "expected"),
        ("churn", sim3, (s(), s(), s(backend="sim", reconfigurations=0)), "no reconfigurations"),
        ("churn", sim3, (s(reconfig_stall_cycles=0),) * 3, "no slot-cycles"),
        ("churn", sim3, (s(), s(), s(classes=bad_cls)), "unresolved"),
        ("churn", sim3, (s(), s(makespan_cycles=1001), s()), "on makespan_cycles"),
        ("churn", sim3, (s(), s(reconfigurations=6), s()), "on reconfigurations"),
        ("churn", sim3, (s(), s(reconfig_stall_cycles=6), s()), "on reconfig_stall_cycles"),
        ("churn", sim3, (s(), s(classes=[_cls("a")]), s()), "serial vs threaded"),
        ("faults", (s(), s(), s(backend="sim", resubmitted_jobs=9)), (s(), s(), s(lost_jobs=1)),
         "lost jobs"),
        ("faults", ok3, (s(devices_failed=1), s(), s()), "devices_failed"),
        ("faults", ok3, (s(), s(devices_added=3), s()), "devices_added"),
        ("faults", ok3, (s(), s(), s(recovery=[])), "no recovery events"),
        ("faults", ok3, (s(), s(), s(recovery=[{"kind": "kill", "lost_jobs": 1}])), "'lost_jobs': 1"),
        ("faults", ok3, (s(), s(), s(classes=bad_cls)), "unresolved"),
        ("faults", ok3, (s(), s(), s(classes=[_cls("a"), _cls("b", 11)])), "fast vs sim"),
        ("faults", ok3, (s(), s(resubmitted_jobs=4), s()), "on resubmitted_jobs"),
        ("faults", ok3, (s(), s(migrated_channels=2), s()), "on migrated_channels"),
        ("tenant-storm", storm, (s(tenants=t()[:2]),) * 3, "expected 3 tenants"),
        ("tenant-storm", storm, (s(tenants=t()), s(tenants=t()), s(tenants=t(voip_slo=False))),
         "SLO violated"),
        ("tenant-storm", storm, (s(tenants=t(voip_shed=1)),) * 3, "voip was refused"),
        ("tenant-storm", storm, (s(tenants=t(bulk_shed=0, video_shed=0)),) * 3, "did not shed"),
        ("tenant-storm", storm, (s(tenants=t(bulk_shed=5, video_shed=5)),) * 3,
         "degradation order"),
        ("tenant-storm", storm, (s(tenants=t(bulk_completed=99)),) * 3, "unresolved"),
        ("tenant-storm", storm, (s(tenants=t()), s(tenants=t(bulk_shed=51)), s(tenants=t())),
         "serial vs threaded"),
        ("tenant-storm", storm, (s(tenants=t()), s(tenants=t()), s(tenants=t(bulk_shed=51))),
         "fast vs sim"),
        ("threaded-speedup", (s(wall_ms=30.0), s(wall_ms=20.0)),
         (s(wall_ms=29.0), s(wall_ms=20.0)), "below floor"),
        ("threaded-speedup", (s(wall_ms=30.0), s(wall_ms=20.0)),
         (s(wall_ms=30.0), s(wall_ms=20.0, classes=bad_cls)), "serial vs threaded"),
        ("threaded-speedup", (s(wall_ms=30.0), s(wall_ms=20.0)),
         (s(wall_ms=30.0), s(wall_ms=20.0, makespan_cycles=1)), "on makespan_cycles"),
        ("threaded-overhead", overhead((20.0, 30.0), (20.0, 10.0), (20.0, 40.0)),
         overhead((20.0, 30.0), (20.0, 30.5), (20.0, 31.0)), "collapsed"),
        # One slow pair of three passes; two fail the median.
        ("threaded-overhead", overhead((20.0, 37.0), (20.0, 22.0), (20.0, 24.0)),
         overhead((20.0, 37.0), (20.0, 31.0), (20.0, 24.0)), "median"),
        ("threaded-overhead", overhead((20.0, 10.0),) * 3,
         overhead((20.0, 10.0), (20.0, 10.0)), "three SERIAL THREADED pairs"),
        ("threaded-overhead", overhead((20.0, 10.0),) * 3,
         overhead((20.0, 10.0), (20.0, 10.0)) + (s(wall_ms=20.0), s(wall_ms=10.0, classes=bad_cls)),
         "serial vs threaded"),
        ("threaded-overhead", overhead((20.0, 10.0),) * 3,
         (s(wall_ms=20.0), s(wall_ms=10.0, makespan_cycles=1)) + overhead((20.0, 10.0),) * 2,
         "on makespan_cycles"),
        # portable at 1.0x is exempt; a hardware tier below 1.3x is not.
        ("multibuffer", (_crypto(portable=1.0, aesni=1.8, vaes=2.7),),
         (_crypto(portable=1.0, aesni=1.8, vaes=1.29),), "vaes: CCM seal x4"),
        ("multibuffer", (_crypto(portable=1.0),), (_crypto(portable=1.0, aesni=1.0),),
         "aesni: CCM seal x4"),
        ("multibuffer", (_crypto(aesni=1.3),), (s(),), "expected a crypto_primitives"),
        # portable far below the floors is exempt; each hardware tier has its own.
        ("gcm-overhead", (_gcm(portable=0.05, aesni=0.40, vaes=0.40),),
         (_gcm(portable=0.05, aesni=0.50, vaes=0.399),), "vaes: GCM seal"),
        ("gcm-overhead", (_gcm(portable=0.05),), (_gcm(portable=0.05, aesni=0.399),),
         "aesni: GCM seal"),
        ("gcm-overhead", (_gcm(vaes=0.5),), (_crypto(vaes=2.0),), "no gcm_seal_over_ctr"),
        ("gcm-overhead", (_gcm(vaes=0.5),), (s(),), "expected a crypto_primitives"),
    ]


def self_test():
    cases = _cases()
    for name, good, bad, expected in cases:
        CHECKS[name](*good)
        try:
            CHECKS[name](*bad)
        except GateFailed as e:
            require(expected in str(e), f"self-test: {name} failed for another reason: {e}")
            continue
        raise GateFailed(f"self-test: {name} accepted a report it must reject ({expected})")
    missing = set(CHECKS) - {c[0] for c in cases}
    require(not missing, "self-test: no case for", sorted(missing))
    print(f"ci_assert: self-test ok ({len(cases)} pass/fail pairs over {len(CHECKS)} checks)")


def main(argv):
    if argv == ["--self-test"]:
        self_test()
        return 0
    if len(argv) < 2 or argv[0] not in CHECKS:
        print(__doc__, file=sys.stderr)
        return 2
    check, paths = CHECKS[argv[0]], argv[1:]
    try:
        inspect.signature(check).bind(*paths)
    except TypeError as e:
        print(f"ci_assert {argv[0]}: {e}", file=sys.stderr)
        return 2
    try:
        print(check(*[load(p) for p in paths]))
    except GateFailed as e:
        print(f"ci_assert {argv[0]}: FAIL: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
