#!/usr/bin/env bash
# Repo verification driver. Stages compose: every flag adds its stage, and
# any combination may be passed in one invocation (the old driver read only
# $1, silently making --tsan and --asan mutually exclusive).
#
#   ci/verify.sh               tier-1 (build + ctest + CLI round trips)
#   ci/verify.sh --unit        fast-fail lane ONLY: build + `ctest -L unit`
#                                (the CI tier-1 job runs this before the rest)
#   ci/verify.sh --asan        + AC_SANITIZE=address build, full suite (build-asan/)
#   ci/verify.sh --tsan        + AC_SANITIZE=thread build, engine + routing +
#                                obs tests (build-tsan/; concurrency stress)
#   ci/verify.sh --bench       + benchmark regression gate (ci/check_bench.py)
#   ci/verify.sh --sweep       + sweep smoke: ci/sweep_smoke.txt grid into
#                                build/sweep-smoke, resume must skip every
#                                cell, and the identity cell must be byte-
#                                equal to a direct acctx run
#   ci/verify.sh --format      + formatting check (clang-format when available,
#                                whitespace invariants otherwise); when given
#                                alone, runs ONLY the format check (no build)
#   ci/verify.sh --all         everything above
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

run_tier1=1
run_unit=0
run_asan=0
run_tsan=0
run_bench=0
run_sweep=0
run_format=0
saw_non_format_flag=0

for arg in "$@"; do
    case "${arg}" in
        --unit) run_unit=1; run_tier1=0; saw_non_format_flag=1 ;;
        --asan) run_asan=1; saw_non_format_flag=1 ;;
        --tsan) run_tsan=1; saw_non_format_flag=1 ;;
        --bench) run_bench=1; saw_non_format_flag=1 ;;
        --sweep) run_sweep=1; saw_non_format_flag=1 ;;
        --all) run_asan=1; run_tsan=1; run_bench=1; run_sweep=1; run_format=1
               saw_non_format_flag=1 ;;
        --format) run_format=1 ;;
        *)
            echo "verify: unknown flag ${arg}" >&2
            echo "usage: ci/verify.sh [--unit] [--asan] [--tsan] [--bench] [--sweep]" \
                 "[--format] [--all]" >&2
            exit 2
            ;;
    esac
done

# `ci/verify.sh --format` (possibly repeated) is the fast lint lane: no
# compiler needed. Any non-format stage flag brings tier-1 back — the old
# `$# -eq 1` test broke the moment --format was combined with itself or with
# future format-only flags.
if [[ ${run_format} -eq 1 && ${saw_non_format_flag} -eq 0 ]]; then
    run_tier1=0
fi

check_format() {
    echo "verify: format check"
    local sources
    mapfile -t sources < <(git ls-files '*.cpp' '*.h')
    if command -v clang-format > /dev/null 2>&1; then
        clang-format --dry-run --Werror "${sources[@]}"
        echo "verify: clang-format OK (${#sources[@]} files)"
    else
        # No clang-format on this host: enforce the invariants that do not
        # need a formatter — no tab indentation, no trailing whitespace, no
        # CRLF line endings in C++ sources.
        echo "verify: clang-format not found; checking whitespace invariants only"
        local bad=0
        if grep -nP '^\t' "${sources[@]}" /dev/null; then
            echo "verify: tab indentation found" >&2
            bad=1
        fi
        if grep -nP '[ \t]+$' "${sources[@]}" /dev/null; then
            echo "verify: trailing whitespace found" >&2
            bad=1
        fi
        if grep -lP '\r$' "${sources[@]}" /dev/null; then
            echo "verify: CRLF line endings found" >&2
            bad=1
        fi
        [[ ${bad} -eq 0 ]] || exit 1
        echo "verify: whitespace invariants OK (${#sources[@]} files)"
    fi
}

if [[ ${run_format} -eq 1 ]]; then
    check_format
fi

if [[ ${run_unit} -eq 1 ]]; then
    cmake -B build -S .
    cmake --build build -j "${jobs}"
    ctest --test-dir build --output-on-failure -j "${jobs}" -L unit
    echo "verify: unit lane OK"
fi

if [[ ${run_tier1} -eq 1 ]]; then
    cmake -B build -S .
    cmake --build build -j "${jobs}"
    # Fast-fail lane first, then everything else (golden, slow, cli).
    ctest --test-dir build --output-on-failure -j "${jobs}" -L unit
    ctest --test-dir build --output-on-failure -j "${jobs}" -LE unit
    # Every case is its own process under ctest: a random schedule repeated
    # three times catches cases that share a temp path or other state.
    ctest --test-dir build --output-on-failure -j "${jobs}" --schedule-random \
        --repeat until-fail:3

    # Snapshot round trip: the figures recomputed from an archived world must
    # be byte-identical to the ones computed from a live build — and the
    # observability flags must not change a byte either.
    rt=$(mktemp -d)
    trap 'rm -rf "${rt}"' EXIT
    ./build/tools/acctx report --scale small --out "${rt}/live"
    ./build/tools/acctx snapshot --scale small --out "${rt}/world.acx"
    ./build/tools/acctx report --from-snapshot "${rt}/world.acx" --out "${rt}/snap"
    # The section inspector must read the archive it just wrote and agree it
    # is a v2 container.
    ./build/tools/acctx snapshot --info "${rt}/world.acx" | grep -q "container v2"
    ./build/tools/acctx report --scale small --out "${rt}/obs" \
        --trace "${rt}/trace.json" --metrics-json "${rt}/metrics.json"
    for f in "${rt}/live"/*.csv; do
        cmp "${f}" "${rt}/snap/$(basename "${f}")"
        cmp "${f}" "${rt}/obs/$(basename "${f}")"
    done
    python3 -m json.tool "${rt}/trace.json" > /dev/null
    python3 -m json.tool "${rt}/metrics.json" > /dev/null
    echo "verify: snapshot + observability round trips OK" \
         "($(ls "${rt}/live" | wc -l) figure files identical; trace and metrics JSON valid)"

    # World bytes must not depend on the thread count: the graph fills its
    # nearest-interconnect table serially per link, while RIB construction
    # fans out over the pool.
    ./build/tools/acctx snapshot --scale small --threads 1 --out "${rt}/world_t1.acx"
    ./build/tools/acctx snapshot --scale small --threads 4 --out "${rt}/world_t4.acx"
    cmp "${rt}/world_t1.acx" "${rt}/world_t4.acx"
    # Medium too: its RIBs share keyed route rows across many sites (the CDN
    # hosts every PoP in one AS), propagated once per key over the pool.
    ./build/tools/acctx snapshot --scale medium --threads 1 --out "${rt}/medium_t1.acx"
    ./build/tools/acctx snapshot --scale medium --threads 4 --out "${rt}/medium_t4.acx"
    cmp "${rt}/medium_t1.acx" "${rt}/medium_t4.acx"
    echo "verify: snapshot bytes identical at 1 vs 4 threads (small, medium)"

    # Scenario replay over every letter: withdraw, drain, prepend, announce,
    # restore and outage reattach, append and re-key shared route rows; the
    # step CSV (including ases_touched and cache_invalidated) must not
    # depend on the thread count.
    cat > "${rt}/timeline.txt" <<'TIMELINE'
0 drain K 0
1 withdraw F
1 prepend K 1 2
2 promote J 0
3 announce F
3 restore K 0
4 outage 12
5 prepend K 1 3
6 drain K 1
7 restore K 1
8 prepend K 1 2
TIMELINE
    for t in 1 4; do
        ./build/tools/acctx scenario --scale small --letters all \
            --timeline "${rt}/timeline.txt" --threads "${t}" --out "${rt}/steps_t${t}.csv" \
            > /dev/null
    done
    cmp "${rt}/steps_t1.csv" "${rt}/steps_t4.csv"
    echo "verify: scenario step CSV identical at 1 vs 4 threads"

    # Whole-prefix round trip at medium: withdrawing every site of F, then
    # of L, and re-announcing them must restore every target's metrics to
    # the baseline (shifted and stranded back to 0), at any thread count.
    cat > "${rt}/roundtrip.txt" <<'TIMELINE'
1 withdraw F
2 announce F
3 withdraw L
4 announce L
TIMELINE
    for t in 1 4; do
        ./build/tools/acctx scenario --scale medium --letters all \
            --timeline "${rt}/roundtrip.txt" --threads "${t}" \
            --out "${rt}/roundtrip_t${t}.csv" > /dev/null
    done
    cmp "${rt}/roundtrip_t1.csv" "${rt}/roundtrip_t4.csv"
    python3 - "${rt}/roundtrip_t1.csv" <<'PY'
import csv
import sys

with open(sys.argv[1], newline="") as f:
    reader = csv.reader(f)
    header = next(reader)
    rows = list(reader)
first = header.index("active_sites")
last = header.index("max_site_share")
metrics = {(r[0], r[1]): r[first:last + 1] for r in rows}
targets = sorted({r[1] for r in rows})
bad = [(step, t) for t in targets for step in ("2", "4")
       if metrics.get((step, t)) != metrics[("0", t)]]
if bad:
    sys.exit(f"verify: round trip did not restore the baseline at {bad}")
PY
    echo "verify: medium withdraw/announce round trip restores every target"

    # Serving smoke: the offline grid and the served /grid must be the same
    # bytes, point queries must answer, and malformed requests must 400.
    ./build/tools/acctx serve --snapshot "${rt}/world.acx" --grid "${rt}/grid_offline.csv"
    ./build/tools/acctx serve --snapshot "${rt}/world.acx" --port 0 \
        > "${rt}/serve_stdout.txt" 2> /dev/null &
    serve_pid=$!
    port=""
    for _ in $(seq 1 150); do
        port=$(sed -n 's/^serving on port \([0-9][0-9]*\)$/\1/p' "${rt}/serve_stdout.txt")
        [[ -n "${port}" ]] && break
        sleep 0.2
    done
    if [[ -z "${port}" ]]; then
        echo "verify: acctx serve never reported its port" >&2
        kill "${serve_pid}" 2>/dev/null || true
        exit 1
    fi
    curl -fsS "http://127.0.0.1:${port}/healthz" | grep -q ok
    curl -fsS "http://127.0.0.1:${port}/grid" -o "${rt}/grid_online.csv"
    cmp "${rt}/grid_offline.csv" "${rt}/grid_online.csv"
    curl -fsS "http://127.0.0.1:${port}/inflation?asn=10000" | grep -q '"found":'
    curl -fsS "http://127.0.0.1:${port}/metricsz" | python3 -m json.tool > /dev/null
    bad_status=$(curl -s -o /dev/null -w '%{http_code}' \
        "http://127.0.0.1:${port}/inflation?asn=not-a-number")
    if [[ "${bad_status}" != "400" ]]; then
        echo "verify: malformed request returned ${bad_status}, wanted 400" >&2
        kill "${serve_pid}" 2>/dev/null || true
        exit 1
    fi
    kill "${serve_pid}"
    wait "${serve_pid}" 2>/dev/null || true
    echo "verify: serve round trip OK (grid bytes identical offline vs HTTP, 400 contract holds)"

    # Load frontier smoke: `acctx load` must emit byte-identical CSVs at any
    # thread count (the deterministic fixed-point contract).
    printf '0 demand-diurnal 40 24\n1 demand-flash 0 300 2\n' > "${rt}/demand.txt"
    ./build/tools/acctx load --scale small --demand "${rt}/demand.txt" \
        --threads 1 --out "${rt}/frontier_t1.csv"
    ./build/tools/acctx load --scale small --demand "${rt}/demand.txt" \
        --threads 2 --out "${rt}/frontier_t2.csv"
    cmp "${rt}/frontier_t1.csv" "${rt}/frontier_t2.csv"
    head -1 "${rt}/frontier_t1.csv" | grep -q '^policy,demand_pct,bucket,'
    echo "verify: load frontier OK (bytes identical at 1 vs 2 threads)"
fi

if [[ ${run_tsan} -eq 1 ]]; then
    cmake -B build-tsan -S . -DAC_SANITIZE=thread
    cmake --build build-tsan -j "${jobs}" \
        --target engine_test --target routing_test --target obs_test \
        --target scenario_test --target serve_test --target load_test
    TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/engine_test
    # routing_test includes the read-side stresses: concurrent cache fills,
    # lock-free readers of a sealed RIB (warmed and cold keys), and RIB
    # builds from several threads over one const graph
    # (SharedGraph.ConcurrentRibBuildsOverConstGraphAgree). It
    # also covers pooled per-key propagation: those builds fan their keys
    # out over a pool, and KeyedRows builds a small world at 4 threads.
    TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/routing_test
    TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/obs_test
    TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/scenario_test
    TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/serve_test
    TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/load_test \
        --gtest_filter='*TSanStress*:*ByteIdentical*'
fi

if [[ ${run_asan} -eq 1 ]]; then
    cmake -B build-asan -S . -DAC_SANITIZE=address
    cmake --build build-asan -j "${jobs}"
    ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir build-asan --output-on-failure -j "${jobs}"
fi

if [[ ${run_sweep} -eq 1 ]]; then
    cmake -B build -S .
    cmake --build build -j "${jobs}" --target acctx
    # Stable path (not mktemp): the CI job uploads this directory as an
    # artifact when the stage fails.
    sweep_dir=build/sweep-smoke
    rm -rf "${sweep_dir}"
    ./build/tools/acctx sweep --grid ci/sweep_smoke.txt --out "${sweep_dir}" --threads 2

    # Resume contract: the second run over the finished grid rebuilds nothing.
    ./build/tools/acctx sweep --grid ci/sweep_smoke.txt --out "${sweep_dir}" \
        | grep -q "(0 built, 4 skipped, 0 pending)"

    # Identity contract: the cell whose dims resolve to the default small
    # config must be byte-equal to a direct acctx run of that config.
    # No EXIT trap here: the tier-1 stage already owns it for its own tmpdir.
    sweep_rt=$(mktemp -d)
    ./build/tools/acctx report --scale small --out "${sweep_rt}/direct"
    ./build/tools/acctx snapshot --scale small --out "${sweep_rt}/direct.acx"
    identity_cell="${sweep_dir}/peering-0.72_rings-5"
    for f in "${sweep_rt}/direct"/*.csv; do
        cmp "${f}" "${identity_cell}/$(basename "${f}")"
    done
    cmp "${sweep_rt}/direct.acx" "${identity_cell}/world.acx"
    python3 -m json.tool "${identity_cell}/metrics.json" > /dev/null
    rm -rf "${sweep_rt}"
    echo "verify: sweep smoke OK (resume skips all cells; identity cell matches direct run)"
fi

if [[ ${run_bench} -eq 1 ]]; then
    cmake --build build -j "${jobs}" \
        --target bench_world_build --target bench_routing \
        --target bench_analysis --target bench_snapshot \
        --target bench_table --target bench_scenario --target bench_serve \
        --target bench_load --target bench_sweep
    python3 ci/check_bench.py run --build-dir build --repeat 3

    # The gate must also demonstrably fail: perturb one baseline metric far
    # past its tolerance band and require a non-zero exit.
    perturb=$(mktemp -d)
    python3 - "${perturb}" <<'EOF'
import json, sys
report = json.load(open("BENCH_snapshot.json"))
for m in report["metrics"]:
    if m["name"] == "rebuild_ms":
        m["median"] /= 10.0
json.dump(report, open(sys.argv[1] + "/perturbed.json", "w"))
EOF
    if python3 ci/check_bench.py compare "${perturb}/perturbed.json" BENCH_snapshot.json \
        > /dev/null 2>&1; then
        echo "verify: bench gate FAILED to reject a perturbed baseline" >&2
        rm -rf "${perturb}"
        exit 1
    fi
    rm -rf "${perturb}"
    echo "verify: bench gate OK (passes baselines, rejects perturbation)"
fi

echo "verify: OK"
