#!/usr/bin/env python3
"""Validate the schema of BENCH_refine.json.

Fails (exit 1) when a scenario is missing the refiner stats (including
the splitter-key cache and incremental-rebuild counters), when flat
scenarios lack the float-vs-reference timings, when no multi-level
end-to-end scenario was recorded, when a multi-level scenario lacks the
per-phase span rollup (total/level/initial/fixpoint/pass/rebuild
seconds from the tracing layer), or when a production engine loses to
the oracle's reference implementation it is raced against: on flat
scenarios the float pipeline must not be slower than the list-based
reference engine (float_s <= ref_s), and on multi-level scenarios the
production Compositional.lump must not be slower than the reference
lumper (cached_s <= reference_s; the timed races run with tracing
disabled, so this gate also pins the disabled-tracing overhead at
zero).  CI runs this after the bench smoke so a refactor cannot
silently drop the instrumentation or the advantage the performance
claims rest on.

Multi-level scenarios additionally carry a "domains" object — the
sequential-vs-parallel race on a reusable domain pool.  Its shape is
always validated (host_cores, par2_s/par4_s and the matching
speedup_par* fields, identical=true — the bench aborts before writing
JSON when a parallel diagram differs, so a recorded scenario implies
bit-identity).  The speedup gates are conditional on the recording
host: on a single-core host a "parallel" run only adds scheduling
overhead, so speedups are gated only when host_cores >= 2 — then every
scenario must reach speedup_par2 >= 1.0, and Kanban (the largest
model, where sharding has real work to amortise against) must reach
>= 1.15.

Multi-level scenarios also carry a "solvers" object — the steady-state
solver race on the lumped chain (power iteration, Gauss-Seidel in
reverse Cuthill-McKee order, Jacobi-preconditioned BiCGStab).  Each
solver must record positive time, a positive iteration count and
converged=true; the measures must agree (max_measure_delta <= 1e-9,
agree=true — the bench aborts before writing JSON otherwise); and the
Krylov solver must need no more iterations than power iteration, which
is the advantage the solver scale-up claims rest on.

Multi-level scenarios also carry a "sweeps" object — the batched
reward-sweep race (Compositional.lump_sweep over one diagram vs an
independent Compositional.lump per point).  The sweep must be
bit-identical to the one-shot path (identical=true, max_measure_delta
<= 1e-9 — the bench aborts otherwise), must actually reuse warm state
(cross_bind_hits > 0, some level fixpoint or rebuild served from the
memos, a non-empty persistent row store), and must amortise: the mean
warm-point time may never exceed the mean one-shot time
(amortised_speedup >= 1.0), and on Kanban it must reach >= 2.0.  These
gates are unconditional — cache reuse, unlike the domain race, owes
nothing to host parallelism.

Multi-level scenarios also carry a "serve" object — the same sweep sent
twice through an in-process lumpd daemon over its framed JSON socket
protocol, by two successive client connections.  Both responses must
agree point-by-point (identical=true — the bench aborts otherwise),
the second (warm) request must not be slower than the first (cold)
one, and the warm response must report cross-bind store hits and a
non-empty persistent row store: the daemon's value proposition is that
a later client never re-pays an earlier client's lumping work.

The document must also carry a top-level "load" object, recorded by
bench/loadgen.exe: N concurrent client threads driving a real daemon
with a mixed-verb workload over the framed JSON socket.  Shape and
gates: requests == clients * requests_per_client, every sample
accounted for across the per-verb entries, positive wall time and
throughput, zero protocol/verb errors overall and per verb, and every
verb's client-side latency quantiles ordered (p50 <= p95 <= p99 — the
nearest-rank estimator is monotone by construction, so a violation
means the recorder broke, not the daemon).

Usage: scripts/check_bench_schema.py [BENCH_refine.json]
"""

import json
import sys

STATS_FIELDS = [
    "splitter_passes",
    "key_evals",
    "splits",
    "blocks_created",
    "largest_skips",
    "counting_sort_passes",
    "intern_keys",
    "cache_hits",
    "cache_misses",
    "nodes_rebuilt",
    "nodes_reused",
    "wall_s",
]

FLAT_FIELDS = [
    "name",
    "states",
    "nnz",
    "classes",
    "ref_s",
    "float_s",
    "speedup_vs_ref",
    "stats",
]

MULTILEVEL_FIELDS = [
    "name",
    "states",
    "levels",
    "lumped_states",
    "reference_s",
    "cached_s",
    "speedup_vs_reference",
    "solvers",
    "sweeps",
    "serve",
    "domains",
    "stats",
    "phases",
]

SERVE_FIELDS = [
    "points",
    "submit_s",
    "cold_request_s",
    "warm_request_s",
    "warm_speedup",
    "cross_bind_hits",
    "level_fixpoints_reused",
    "store_rows",
    "identical",
]

SWEEPS_FIELDS = [
    "points",
    "distinct_points",
    "cold_first_point_s",
    "amortised_point_s",
    "oneshot_point_s",
    "amortised_speedup",
    "cross_bind_hits",
    "level_fixpoints",
    "level_fixpoints_reused",
    "rebuilds",
    "rebuilds_reused",
    "store_rows",
    "max_measure_delta",
    "identical",
]

# Minimum oneshot_point_s/amortised_point_s per scenario.  The sweep
# engine must never lose to independent per-point lumping, and on the
# largest model (Kanban — the most splitter rows to reuse) it must
# amortise at least 2x.  Unlike the domain race this gate is NOT
# conditional on host_cores: the sweep's saving is cache reuse, not
# parallelism, so it holds on any host.
SWEEP_FLOOR_DEFAULT = 1.0
SWEEP_FLOOR_KANBAN = 2.0

SOLVER_NAMES = ["power", "gauss_seidel", "krylov"]

SOLVER_FIELDS = ["s", "iterations", "residual", "converged"]

# Measures reproduced by all three solvers must match to this tolerance
# (the bench exits 1 before writing JSON when they do not; the recorded
# value is re-checked here so a hand-edited file cannot sneak through).
MEASURE_DELTA_CEIL = 1e-9

DOMAINS_FIELDS = ["host_cores", "identical"]

# Minimum cached_s/parN_s per scenario when the recording host has at
# least 2 cores.  Kanban is the largest model (most rebuild rows and
# splitter members per pass), so it must show a real speedup; the
# smaller tandem instance only has to not regress.
PAR2_FLOOR_DEFAULT = 1.0
PAR2_FLOOR_KANBAN = 1.15

PHASE_FIELDS = [
    "total_s",
    "level_s",
    "initial_s",
    "fixpoint_s",
    "pass_s",
    "rebuild_s",
]

LOAD_FIELDS = [
    "clients",
    "requests_per_client",
    "requests",
    "wall_s",
    "throughput_rps",
    "errors",
    "verbs",
]

LOAD_VERB_FIELDS = ["count", "errors", "p50_s", "p95_s", "p99_s"]


def check_load(doc):
    if "load" not in doc:
        fail("top level: missing 'load' object (run bench/loadgen.exe)")
    load = doc["load"]
    check_fields(load, LOAD_FIELDS, "load")
    for f in ("clients", "requests_per_client", "requests"):
        if not isinstance(load[f], int) or load[f] < 1:
            fail(f"load.{f} is not a positive integer")
    if load["requests"] != load["clients"] * load["requests_per_client"]:
        fail(
            f"load.requests {load['requests']} != clients x requests_per_client "
            f"({load['clients']} x {load['requests_per_client']})"
        )
    if load["clients"] < 2:
        fail("load.clients < 2: the bench never exercised concurrent clients")
    if not isinstance(load["wall_s"], (int, float)) or load["wall_s"] <= 0:
        fail("load.wall_s is not a positive number")
    if not isinstance(load["throughput_rps"], (int, float)) or load["throughput_rps"] <= 0:
        fail("load.throughput_rps is not a positive number")
    if load["errors"] != 0:
        fail(f"load recorded {load['errors']} request errors")
    verbs = load["verbs"]
    if not isinstance(verbs, dict) or not verbs:
        fail("load.verbs is not a non-empty object")
    total = 0
    for verb, entry in verbs.items():
        where = f"load.verbs.{verb}"
        check_fields(entry, LOAD_VERB_FIELDS, where)
        if not isinstance(entry["count"], int) or entry["count"] < 1:
            fail(f"{where}: count is not a positive integer (verb never served)")
        if entry["errors"] != 0:
            fail(f"{where}: recorded {entry['errors']} errors")
        for f in ("p50_s", "p95_s", "p99_s"):
            if not isinstance(entry[f], (int, float)) or entry[f] < 0:
                fail(f"{where}: {f} is not a non-negative number")
        if not entry["p50_s"] <= entry["p95_s"] <= entry["p99_s"]:
            fail(
                f"{where}: latency quantiles not ordered "
                f"(p50 {entry['p50_s']}, p95 {entry['p95_s']}, p99 {entry['p99_s']})"
            )
        total += entry["count"]
    if total != load["requests"]:
        fail(
            f"load per-verb counts sum to {total}, not load.requests "
            f"{load['requests']} (samples lost)"
        )


def fail(msg):
    print(f"BENCH_refine.json schema error: {msg}", file=sys.stderr)
    sys.exit(1)


def check_fields(obj, fields, where):
    for f in fields:
        if f not in obj:
            fail(f"{where}: missing field '{f}'")


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_refine.json"
    with open(path) as fh:
        doc = json.load(fh)

    for f in ("bench", "repeats", "scenarios"):
        if f not in doc:
            fail(f"top level: missing field '{f}'")
    scenarios = doc["scenarios"]
    if not scenarios:
        fail("no scenarios recorded")

    kinds = {"flat": 0, "multilevel": 0}
    for sc in scenarios:
        kind = sc.get("kind")
        if kind not in kinds:
            fail(f"scenario {sc.get('name', '?')}: unknown kind {kind!r}")
        kinds[kind] += 1
        where = f"scenario {sc.get('name', '?')} ({kind})"
        check_fields(sc, FLAT_FIELDS if kind == "flat" else MULTILEVEL_FIELDS, where)
        check_fields(sc["stats"], STATS_FIELDS, f"{where}: stats")
        s = sc["stats"]
        if s["counting_sort_passes"] > s["splitter_passes"]:
            fail(f"{where}: counting_sort_passes exceeds splitter_passes")
        if kind == "flat":
            for f in ("ref_s", "float_s"):
                if not isinstance(sc[f], (int, float)) or sc[f] <= 0:
                    fail(f"{where}: {f} is not a positive number")
            if sc["float_s"] > sc["ref_s"]:
                fail(
                    f"{where}: float pipeline slower than the reference engine "
                    f"({sc['float_s']:.4f}s > {sc['ref_s']:.4f}s)"
                )
        lookups = s["cache_hits"] + s["cache_misses"]
        if lookups > s["splitter_passes"]:
            fail(
                f"{where}: cache lookups {lookups} exceed splitter passes "
                f"{s['splitter_passes']} (at most one lookup per pass)"
            )
        if kind == "multilevel":
            if lookups == 0:
                fail(f"{where}: memoised run recorded no cache lookups")
            if s["nodes_rebuilt"] + s["nodes_reused"] == 0:
                fail(f"{where}: rebuild recorded neither rebuilt nor reused nodes")
            check_fields(sc["phases"], PHASE_FIELDS, f"{where}: phases")
            ph = sc["phases"]
            for f in PHASE_FIELDS:
                if not isinstance(ph[f], (int, float)) or ph[f] < 0:
                    fail(f"{where}: phases.{f} is not a non-negative number")
            if ph["total_s"] <= 0:
                fail(f"{where}: phases.total_s is zero (instrumented run not traced)")
            # Spans nest: passes inside fixpoints inside per-level spans
            # inside the whole lump, so the inclusive rollups are ordered.
            # 1e-6 slack absorbs the %.6f serialisation rounding.
            eps = 1e-6
            for inner, outer in [
                ("pass_s", "fixpoint_s"),
                ("fixpoint_s", "level_s"),
                ("initial_s", "level_s"),
                ("level_s", "total_s"),
                ("rebuild_s", "total_s"),
            ]:
                if ph[inner] > ph[outer] + eps:
                    fail(
                        f"{where}: phases.{inner} ({ph[inner]}) exceeds enclosing "
                        f"phases.{outer} ({ph[outer]})"
                    )
            for f in ("reference_s", "cached_s"):
                if not isinstance(sc[f], (int, float)) or sc[f] <= 0:
                    fail(f"{where}: {f} is not a positive number")
            if sc["cached_s"] > sc["reference_s"]:
                fail(
                    f"{where}: lump slower than the reference lumper "
                    f"({sc['cached_s']:.4f}s > {sc['reference_s']:.4f}s)"
                )
            check_fields(sc["solvers"], ["max_measure_delta", "agree"] + SOLVER_NAMES,
                         f"{where}: solvers")
            sol = sc["solvers"]
            if sol["agree"] is not True:
                fail(f"{where}: solvers.agree is not true")
            delta = sol["max_measure_delta"]
            if not isinstance(delta, (int, float)) or delta < 0:
                fail(f"{where}: solvers.max_measure_delta is not a non-negative number")
            if delta > MEASURE_DELTA_CEIL:
                fail(
                    f"{where}: solvers disagree on measures "
                    f"(max_measure_delta {delta:.3e} > {MEASURE_DELTA_CEIL:.0e})"
                )
            for name in SOLVER_NAMES:
                swhere = f"{where}: solvers.{name}"
                check_fields(sol[name], SOLVER_FIELDS, swhere)
                entry = sol[name]
                if not isinstance(entry["s"], (int, float)) or entry["s"] <= 0:
                    fail(f"{swhere}: s is not a positive number")
                if not isinstance(entry["iterations"], int) or entry["iterations"] <= 0:
                    fail(f"{swhere}: iterations is not a positive integer")
                if not isinstance(entry["residual"], (int, float)) or entry["residual"] < 0:
                    fail(f"{swhere}: residual is not a non-negative number")
                if entry["converged"] is not True:
                    fail(f"{swhere}: converged is not true")
            # The point of the Krylov solver: convergence in (far) fewer
            # iterations than power iteration on the same lumped chain.
            if sol["krylov"]["iterations"] > sol["power"]["iterations"]:
                fail(
                    f"{where}: krylov took more iterations than power "
                    f"({sol['krylov']['iterations']} > {sol['power']['iterations']})"
                )
            check_fields(sc["sweeps"], SWEEPS_FIELDS, f"{where}: sweeps")
            sw = sc["sweeps"]
            if sw["identical"] is not True:
                fail(f"{where}: sweeps.identical is not true")
            if not isinstance(sw["points"], int) or sw["points"] < 2:
                fail(f"{where}: sweeps.points is not an integer >= 2 (no amortisation "
                     f"to measure)")
            if not isinstance(sw["distinct_points"], int) or not (
                2 <= sw["distinct_points"] <= sw["points"]
            ):
                fail(f"{where}: sweeps.distinct_points out of range")
            for f in ("cold_first_point_s", "amortised_point_s", "oneshot_point_s"):
                if not isinstance(sw[f], (int, float)) or sw[f] <= 0:
                    fail(f"{where}: sweeps.{f} is not a positive number")
            delta = sw["max_measure_delta"]
            if not isinstance(delta, (int, float)) or delta < 0:
                fail(f"{where}: sweeps.max_measure_delta is not a non-negative number")
            if delta > MEASURE_DELTA_CEIL:
                fail(
                    f"{where}: sweep measures disagree with the one-shot path "
                    f"(max_measure_delta {delta:.3e} > {MEASURE_DELTA_CEIL:.0e})"
                )
            for f in ("level_fixpoints", "level_fixpoints_reused", "rebuilds",
                      "rebuilds_reused", "store_rows", "cross_bind_hits"):
                if not isinstance(sw[f], int) or sw[f] < 0:
                    fail(f"{where}: sweeps.{f} is not a non-negative integer")
            # Every multi-point sweep must actually exercise the cross-bind
            # tier — zero hits means row persistence silently stopped
            # working (the bench family includes a complement-indicator
            # point designed to guarantee store reuse).
            if sw["cross_bind_hits"] == 0:
                fail(f"{where}: multi-point sweep recorded no cross-bind cache hits")
            if sw["level_fixpoints_reused"] + sw["rebuilds_reused"] == 0:
                fail(f"{where}: sweep reused neither level fixpoints nor rebuilds")
            if sw["store_rows"] == 0:
                fail(f"{where}: persistent row store is empty after the sweep")
            floor = (
                SWEEP_FLOOR_KANBAN
                if "kanban" in sc["name"].lower()
                else SWEEP_FLOOR_DEFAULT
            )
            if sw["amortised_speedup"] < floor:
                fail(
                    f"{where}: amortised sweep speedup {sw['amortised_speedup']:.3f}x "
                    f"below the {floor:.2f}x floor"
                )
            check_fields(sc["serve"], SERVE_FIELDS, f"{where}: serve")
            srv = sc["serve"]
            if srv["identical"] is not True:
                fail(f"{where}: serve.identical is not true")
            if not isinstance(srv["points"], int) or srv["points"] < 2:
                fail(f"{where}: serve.points is not an integer >= 2")
            for f in ("submit_s", "cold_request_s", "warm_request_s", "warm_speedup"):
                if not isinstance(srv[f], (int, float)) or srv[f] <= 0:
                    fail(f"{where}: serve.{f} is not a positive number")
            for f in ("cross_bind_hits", "level_fixpoints_reused", "store_rows"):
                if not isinstance(srv[f], int) or srv[f] < 0:
                    fail(f"{where}: serve.{f} is not a non-negative integer")
            # The daemon's whole value proposition: a second client's
            # identical sweep must ride the warm engine and persistent
            # store, never re-paying the cold request.
            if srv["warm_request_s"] > srv["cold_request_s"]:
                fail(
                    f"{where}: warm serve request slower than the cold one "
                    f"({srv['warm_request_s']:.4f}s > {srv['cold_request_s']:.4f}s)"
                )
            if srv["cross_bind_hits"] == 0:
                fail(f"{where}: warm serve sweep recorded no cross-bind cache hits")
            if srv["store_rows"] == 0:
                fail(f"{where}: serve persistent row store is empty after the sweeps")
            check_fields(sc["domains"], DOMAINS_FIELDS, f"{where}: domains")
            dom = sc["domains"]
            if dom["identical"] is not True:
                fail(f"{where}: domains.identical is not true")
            if not isinstance(dom["host_cores"], int) or dom["host_cores"] < 1:
                fail(f"{where}: domains.host_cores is not a positive integer")
            raced = sorted(
                int(k[len("par"):-len("_s")])
                for k in dom
                if k.startswith("par") and k.endswith("_s")
            )
            for d in raced:
                for f in (f"par{d}_s", f"speedup_par{d}"):
                    if not isinstance(dom.get(f), (int, float)) or dom[f] <= 0:
                        fail(f"{where}: domains.{f} is not a positive number")
            if 2 not in raced:
                fail(f"{where}: domains race does not include 2 domains")
            if dom["host_cores"] >= 2:
                floor = (
                    PAR2_FLOOR_KANBAN
                    if "kanban" in sc["name"].lower()
                    else PAR2_FLOOR_DEFAULT
                )
                if dom["speedup_par2"] < floor:
                    fail(
                        f"{where}: 2-domain speedup {dom['speedup_par2']:.3f}x below "
                        f"the {floor:.2f}x floor on a {dom['host_cores']}-core host"
                    )

    if kinds["flat"] == 0:
        fail("no flat scenario recorded")
    if kinds["multilevel"] == 0:
        fail("no multi-level end-to-end scenario recorded")

    check_load(doc)

    load = doc["load"]
    print(
        f"{path}: OK ({kinds['flat']} flat, {kinds['multilevel']} multi-level scenarios, "
        f"refiner stats, reference races, solver races, domain races, batched sweeps "
        f"and serve races present; load: {load['clients']} clients, "
        f"{load['throughput_rps']:.1f} req/s, 0 errors)"
    )


if __name__ == "__main__":
    main()
