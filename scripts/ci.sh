#!/usr/bin/env bash
# Tier-1 CI in one command: release build, the benchmark's standalone
# build and harness self-test, and the full test suite (once with
# the default SIMD dispatch, once forced to the scalar oracle via
# CEGMA_SIMD=scalar), then the
# ThreadSanitizer configuration of the same suite at CEGMA_THREADS=8
# (the determinism/bit-exactness contracts are only meaningful if the
# parallel runtime is race-free), then an ASan+UBSan pass of the same
# suite for memory errors the release build would hide.
#
# Usage: scripts/ci.sh [JOBS]   (default: all cores)

set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-$(nproc)}"

echo "== tier-1: release build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"

# The benchmark (perfbench/) builds the program's libraries from src/
# in its own CMake tree; building it here and running its harness
# self-test makes a src/ change that breaks that build fail CI.
echo "== tier-1: benchmark build + harness self-test =="
python3 perfbench/run.py --self-test

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j "$jobs"

# Tracing-disabled overhead smoke: the observability layer must be
# free when off. The gtest bound (2 us/scope, vs the ~10 ns a relaxed
# load costs) only trips on a structural regression, e.g. a lock on
# the disabled path.
echo "== tier-1: tracing-disabled overhead smoke =="
./build/tests/obs_test \
    --gtest_filter='TraceTest.DisabledScopeOverheadIsNegligible'

# Retrieval-cascade recall gate: rebuild the RetrievalGate fixture at
# a 10^4-candidate corpus (CI-sized; the 10^5–10^6 sweep lives in
# `bench_to_json --retrieval`) and assert tie-aware cascade recall@10
# >= 0.99 against the exhaustive oracle. This is the contract that
# lets the cascade ship as a serving mode: exact scores stay
# bit-identical (proved by CascadeService.* above), and the shortlist
# keeps effectively all of the oracle's top-10 score mass.
echo "== tier-1: retrieval recall gate (10^4 corpus) =="
CEGMA_RETRIEVAL_CI_CANDIDATES=10000 ./build/tests/retrieval_test \
    --gtest_filter='RetrievalGate.*'

# Retrieval sweep smoke: `bench_to_json --retrieval` on a CI-sized
# corpus must exit 0 with its 9 records (one exhaustive, eight
# cascade configs). The sweep calls fatal() on any verified score that
# differs from its exhaustive pass, so a bit-identity slip in the live
# corpus's shortlist path fails this step.
echo "== tier-1: retrieval sweep smoke =="
./build/tools/bench_to_json --retrieval --queries 4 --candidates 2000 \
    --out - | python3 -c '
import json, sys
records = json.load(sys.stdin)
sys.exit(0 if len(records) == 9 else "retrieval sweep: %d records, want 9" % len(records))
'

# Live-corpus mutation gate: a seeded interleaved mutation+query
# workload at 8 pool threads must return, for every request, the
# pinned epoch's exact candidate list and scores bit-identical to a
# serial oracle model replaying that epoch offline — in exhaustive
# mode and against an offline-rebuilt cascade index — with epochs
# actually retiring (`corpus.epochs_reclaimed` > 0) along the way.
echo "== tier-1: live-corpus mutation gate =="
./build/tests/corpus_test --gtest_filter='LiveGate.*'

# Malformed numeric flags: each tool must reject a non-number with
# status 2 and name the flag on stderr (never an uncaught exception or
# a silently truncated value). Thread counts stay out of this smoke:
# no CI step starts a tool at an out-of-range thread count.
echo "== tier-1: malformed CLI flag smoke =="
flag_smoke() {
    local flag="$1"; shift
    local err status=0
    err="$("$@" 2>&1 >/dev/null)" || status=$?
    if [ "$status" -ne 2 ] || ! grep -q -- "$flag" <<<"$err"; then
        echo "flag smoke: '$*' exited $status, stderr: $err"
        exit 1
    fi
}
flag_smoke --pairs ./build/tools/cegma_sim --pairs abc
flag_smoke --qps ./build/tools/cegma_serve --qps 1x

# Forced-scalar tier: the whole suite again with the SIMD dispatch
# pinned to the scalar oracle. This proves the dispatcher honors the
# override everywhere and that no caller depends on the AVX2 path —
# the bit-identity contract (tests/simd_test.cc) is only as good as
# the scalar kernels actually running when asked.
echo "== tier-1: ctest (CEGMA_SIMD=scalar) =="
CEGMA_SIMD=scalar ctest --test-dir build --output-on-failure -j "$jobs"

echo "== tsan: instrumented build =="
cmake -B build-tsan -S . -DCEGMA_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs"

# scripts/tsan.supp masks one known false positive from the
# uninstrumented libstdc++ exception_ptr refcount (see the file).
export TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp"

echo "== tsan: ctest (CEGMA_THREADS=8) =="
CEGMA_THREADS=8 ctest --test-dir build-tsan --output-on-failure -j "$jobs"

# The serving subsystem's concurrent submit/shutdown paths get an
# explicit second TSan pass: serve_test is the suite that races
# producers against the dispatcher and the batcher's close().
echo "== tsan: serve_test (CEGMA_THREADS=8) =="
CEGMA_THREADS=8 ctest --test-dir build-tsan -R serve_test \
    --output-on-failure

# Fault injection under TSan: the overload paths (deadline expiry,
# shedding, injected errors, bounded drain, scrape-vs-shutdown) add
# locking the plain suite never exercises under contention.
echo "== tsan: fault-injection tests (CEGMA_THREADS=8) =="
CEGMA_THREADS=8 ./build-tsan/tests/serve_test \
    --gtest_filter='Overload.*:MicroBatcher.*'

# Pipelined execution under TSan: the StagePipeline unit tests plus
# the full bit-identity grid (threads {1,2,8} x batch {1,4,32} x
# pipeline depth {0,1,2,4}) at 8 pool threads. The determinism bar —
# pipelining changes when a batch's stages run, never what they
# compute — is only meaningful if the stage workers, bounded queues,
# and workspace-pool recycling are race-free.
echo "== tsan: pipeline bit-identity grid (CEGMA_THREADS=8) =="
CEGMA_THREADS=8 ./build-tsan/tests/serve_test \
    --gtest_filter='Pipeline.*'

# SIMD kernels under TSan: the bit-identity grid runs the dispatched
# kernels and the joint-window scheduler at 8 pool threads, so any
# race in the per-tile parallelFor chunking or the dispatch atomics
# surfaces here.
echo "== tsan: simd_test (CEGMA_THREADS=8) =="
CEGMA_THREADS=8 ctest --test-dir build-tsan -R simd_test \
    --output-on-failure

# Live-corpus mutation paths under TSan: the snapshot storms race
# pinned readers against insert/remove/flush/compaction, the block
# storm races inserts into a chunk's unpublished descriptor rows
# against shortlists over its published rows, and the LiveGate
# workloads race the mutator thread against the dispatcher's scoring
# batches — the epoch consistency contract is only meaningful if
# those paths are race-free. The block-path suites run the chunked
# coarse scan and the block scorers pool-parallel against the
# per-candidate oracle.
echo "== tsan: live-corpus gate (CEGMA_THREADS=8) =="
CEGMA_THREADS=8 ./build-tsan/tests/corpus_test \
    --gtest_filter='LiveGate.*:LiveCorpusStorm.*:LiveCorpusBlocks.*:LiveCorpusBlockStorm.*'
CEGMA_THREADS=8 ./build-tsan/tests/retrieval_test \
    --gtest_filter='CoarseBlockKeys.*'

# SimGNN's exact path under TSan: each query's terms are built once
# and then read by every pool worker scoring that query's pairs, over
# the dedup x memo x threads x SIMD grid against a serial oracle.
echo "== tsan: SimGNN exact path (CEGMA_THREADS=8) =="
CEGMA_THREADS=8 ./build-tsan/tests/dedup_exec_test \
    --gtest_filter='SimGnnExactPath.*'

echo "== asan: instrumented build =="
cmake -B build-asan -S . -DCEGMA_SANITIZE=address >/dev/null
cmake --build build-asan -j "$jobs"

echo "== asan: ctest =="
ctest --test-dir build-asan --output-on-failure -j "$jobs"

# Fault injection under ASan+UBSan: the teardown-scrape test only
# proves the provider-gauge lifetime fix when a lifetime slip is a
# hard failure, and the NaN topKHits regression is UB by definition.
echo "== asan: fault-injection tests =="
./build-asan/tests/serve_test \
    --gtest_filter='Overload.*:TopKHits.*'

# Pipelined execution under ASan+UBSan: every batch's tensors now come
# from the recycling workspace pool, so a stage reading a block after
# release — or the pool handing out a block still in use — is exactly
# the class of bug this tier turns into a hard failure.
echo "== asan: pipeline bit-identity grid =="
./build-asan/tests/serve_test --gtest_filter='Pipeline.*'

# SIMD kernels under ASan+UBSan: the AVX2 loads are unaligned by
# design (loadu on arbitrary row offsets, ragged tails, the 64-byte
# allocator's promises) — UBSan proves they are clean, ASan catches
# any tail over-read the masked drains could hide.
echo "== asan: simd_test =="
ctest --test-dir build-asan -R simd_test --output-on-failure

# Live-corpus gate under ASan+UBSan: chunked slot storage, tombstone
# compaction, and memo invalidation reclaim memory while snapshots
# may still read it — a use-after-reclaim is exactly what this tier
# turns into a hard failure — and the block scans index raw
# descriptor blocks, where a row past a block's end is an over-read.
echo "== asan: live-corpus gate =="
./build-asan/tests/corpus_test \
    --gtest_filter='LiveGate.*:LiveCorpusStorm.*:LiveCorpusBlocks.*:LiveCorpusBlockStorm.*'
./build-asan/tests/retrieval_test \
    --gtest_filter='CoarseBlockKeys.*'

# SimGNN's exact path under ASan+UBSan: the shared query terms hold
# the query's memo entry alive while the starved-budget grid evicts
# or refuses every other entry, and the score-only forward must never
# read a Detail it no longer builds.
echo "== asan: SimGNN exact path =="
./build-asan/tests/dedup_exec_test --gtest_filter='SimGnnExactPath.*'

# Admin-plane smoke under ASan+UBSan: a real cegma_serve process on an
# ephemeral admin port (printed on stdout), scraped with curl *while
# the open-loop workload is running*, then waited to a clean exit —
# the whole accept-loop/handler/shutdown path in one end-to-end pass
# where any lifetime slip is a hard failure.
echo "== asan: admin-plane smoke (ephemeral port, curl under load) =="
smoke_log="$(mktemp)"
./build-asan/tools/cegma_serve --qps 25 --requests 300 \
    --admin-port 0 --slo-ms 50 >"$smoke_log" 2>&1 &
smoke_pid=$!
smoke_port=""
for _ in $(seq 1 100); do
    smoke_port="$(sed -n \
        's/^admin: listening on 127\.0\.0\.1:\([0-9]\+\)$/\1/p' \
        "$smoke_log")"
    [ -n "$smoke_port" ] && break
    sleep 0.1
done
if [ -z "$smoke_port" ]; then
    echo "admin smoke: no port announced on stdout"
    cat "$smoke_log"
    kill "$smoke_pid" 2>/dev/null || true
    exit 1
fi
# Plain grep (not -q) so the reader drains the whole body — grep -q
# exits at the first match and the resulting EPIPE would fail curl
# under pipefail.
smoke="http://127.0.0.1:$smoke_port"
curl -fsS "$smoke/healthz" | grep -x 'ok'                         >/dev/null
curl -fsS "$smoke/readyz"  | grep -x 'ready'                      >/dev/null
curl -fsS "$smoke/metrics" | grep    '^cegma_build_info{'         >/dev/null
curl -fsS "$smoke/metrics" | grep    '^serve_win1m_p99_us '       >/dev/null
curl -fsS "$smoke/metrics" | grep    '^serve_slo_burn_win1m '     >/dev/null
curl -fsS "$smoke/varz"    | grep    '"serve.requests.completed"' >/dev/null
curl -fsS "$smoke/tracez"  | grep    '"slowest"'                  >/dev/null
curl -fsS "$smoke/statusz" | grep    '"draining": false'          >/dev/null
wait "$smoke_pid"   # workload finishes and shuts down cleanly
rm -f "$smoke_log"

echo "== ci.sh: all green =="
