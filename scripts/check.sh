#!/bin/sh
# Full pre-merge gate: vet, build everything, then run the whole test
# suite under the race detector. The observability layer is updated
# from every process goroutine, so -race is not optional here.
#
#   check.sh         vet + build + race-enabled test suite
#   check.sh -bench  allocation gate: re-runs the two hot-path
#                    sentinel benchmarks (BenchmarkTokenWriteInt64,
#                    BenchmarkLinkThroughput) with -benchmem and fails
#                    if allocs/op regressed against the committed
#                    baseline (BENCH_pr3.json; see EXPERIMENTS.md).
#   check.sh -chaos  chaos gate: every test whose name contains
#                    "Chaos" runs three times under -race with a
#                    fresh fault schedule each run. On failure the
#                    logged seed is replayed once (CHAOS_SEED pins
#                    the schedule): a second failure is reproducible
#                    — report it with that seed — while a replay
#                    pass classifies the original failure as flaky.
#   check.sh -mux    session-multiplexing gate: the mux package's
#                    handshake/stream/credit unit tests, the broker
#                    session-pool integration tests (shared sessions,
#                    legacy interop, auth failure, session-death
#                    resilience), the FD-bounded mux rendezvous storm,
#                    and the cascade-equivalence sweep (inproc = tcp =
#                    mux = mux+compression = mid-migration rebind),
#                    all under -race. On failure the logged seed is
#                    replayed once (CHAOS_SEED / WORKLOAD_SEED pin the
#                    schedule): a second failure is reproducible —
#                    report it with that seed — while a replay pass
#                    classifies the original failure as flaky.
#   check.sh -pool   elasticity gate: the pool/elastic suites (worker
#                    join/leave/kill, straggler re-dispatch, lane
#                    migration) plus the hardened Scatter/Gather close
#                    semantics, all under -race.
#   check.sh -obs    observability gate: the tracing/telemetry suites
#                    under -race (trace propagation, multi-node merge,
#                    dpntop, cluster gather, cardinality guard, and the
#                    multi-process smoke covering the metrics endpoint
#                    and the distributed trace-merge round-trip), then
#                    a cost assertion that the disabled-tracing hot
#                    path stays within 3% ns/op of the committed
#                    baseline on the three sentinels. ns/op is
#                    machine-bound (see EXPERIMENTS.md), so the
#                    default baseline is BENCH_pr6.json — recorded on
#                    the gate machine, where the untraced sentinels
#                    were verified against a pristine pre-tracing
#                    checkout to <1% — pass a path to compare against
#                    another record (e.g. BENCH_pr3.json on the
#                    machine that wrote it).
#   check.sh -lint   static-analysis gate: go vet, staticcheck when the
#                    binary is on PATH (skipped with a notice otherwise
#                    — nothing is downloaded), and a style check that
#                    the conduit package's API surface never says
#                    interface{} (spell it any).
#   check.sh -scenarios
#                    workload-scenario gate: the seeded scenario suite
#                    (oracle equality under loopback/tcp/chaos/
#                    migration), the graph-shape fuzzer, the histogram
#                    quantile unit tests, the registry/rendezvous
#                    stress tests, and the reduced-scale soak, all
#                    under -race. On failure the logged seed is
#                    replayed once (WORKLOAD_SEED pins the topology
#                    and data): a second failure is reproducible —
#                    report it with that seed — while a replay pass
#                    classifies the original failure as flaky.
#   check.sh -codec  wire-codec gate: the columnar block codec's
#                    round-trip identity, corruption-rejection, and
#                    compression-floor tests (>= 4x on monotone int64
#                    runs, raw fallback never worse than 1.02x), the
#                    compressed-link integration tests, plus a short
#                    native fuzz burst on the block decoder and the
#                    token decode paths.
#   check.sh -wal    durability gate: the WAL torture suite (torn
#                    tails, flipped CRCs, zero-length segments,
#                    crash-during-truncation recovery) plus a native
#                    fuzz burst on the record framing, then the
#                    durable-conduit restart tests and the
#                    kill-restart scenario matrix (SIGKILL the
#                    producer twice, byte-identical replay) under
#                    -race. On failure the logged seed is replayed
#                    once (WORKLOAD_SEED pins the data): a second
#                    failure is reproducible — report it with that
#                    seed — while a replay pass classifies the
#                    original failure as flaky.
set -eu

cd "$(dirname "$0")/.."

# replay_gate NAME PATTERN COUNT TIMEOUT runs the race-enabled tests
# matching PATTERN across the module, COUNT times each. On failure it
# replays the last logged seeds once (CHAOS_SEED pins a fault schedule,
# WORKLOAD_SEED a topology and its data) in the failing packages: a
# second failure is REPRODUCIBLE — report it with those seeds — while a
# replay pass classifies the original failure as FLAKY. Both exit 1.
replay_gate() {
	name=$1 pat=$2 count=$3 timeout=$4
	log=$(mktemp)
	trap 'rm -f "$log"' EXIT
	echo "$name gate: go test -race -run '$pat' -count=$count ./..."
	# A pipeline's status is tee's, so a failed run leaves a marker line.
	{ go test -race -run "$pat" -count="$count" -timeout "$timeout" ./... 2>&1 ||
		echo "$name gate: tests failed"; } | tee "$log"
	if ! grep -q "^$name gate: tests failed\$" "$log"; then
		echo "$name gate: PASS"
		return 0
	fi
	seed=$(grep -Eo 'chaos seed [0-9]+' "$log" | tail -n 1 | grep -Eo '[0-9]+' || true)
	wseed=$(grep -Eo 'workload seed -?[0-9]+' "$log" | tail -n 1 | grep -Eo '\-?[0-9]+' || true)
	seeds=""
	[ -z "$seed" ] || seeds="CHAOS_SEED=$seed"
	[ -z "$wseed" ] || seeds="${seeds:+$seeds }WORKLOAD_SEED=$wseed"
	if [ -z "$seeds" ]; then
		echo "$name gate: FAIL (no 'chaos seed N' or 'workload seed N' line logged; not replayable)"
		return 1
	fi
	pkgs=$(grep -E '^(FAIL|---[ ]FAIL)' "$log" | grep -Eo '\bdpn/[a-z/]+' | sort -u || true)
	[ -n "$pkgs" ] || pkgs=./...
	echo "$name gate: FAIL — replaying with $seeds: $pkgs"
	# shellcheck disable=SC2086 # seeds and pkgs are word lists
	if env $seeds go test -race -run "$pat" -count=1 -timeout "$timeout" $pkgs; then
		echo "$name gate: FLAKY ($seeds passed on replay; original failure did not reproduce)"
		return 1
	fi
	echo "$name gate: REPRODUCIBLE — rerun with $seeds to debug"
	return 1
}

if [ "${1:-}" = "-bench" ]; then
	base="${2:-BENCH_pr3.json}"
	if [ ! -f "$base" ]; then
		echo "bench gate: no baseline $base (run scripts/bench.sh first)"
		exit 1
	fi
	pat='^(BenchmarkTokenWriteInt64|BenchmarkLinkThroughput)$'
	log=$(mktemp)
	trap 'rm -f "$log"' EXIT
	echo "bench gate: go test -run ^\$ -bench '$pat' -benchmem -count=3 ."
	go test -run '^$' -bench "$pat" -benchmem -count=3 -timeout 30m . | tee "$log"
	fail=0
	for name in BenchmarkTokenWriteInt64 BenchmarkLinkThroughput; do
		want=$(awk -v n="$name" -F'[:,}]' '$0 ~ "\"" n "\"" {
			for (i = 1; i < NF; i++) if ($i ~ /"allocs_op"/) print $(i+1) + 0
		}' "$base")
		if [ -z "$want" ]; then
			echo "bench gate: $name has no allocs_op in $base"
			fail=1
			continue
		fi
		got=$(awk -v n="$name" '$1 ~ "^" n "(-[0-9]+)?$" {
			for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) + 0
		}' "$log" | sort -n | head -n 1)
		if [ -z "$got" ]; then
			echo "bench gate: $name produced no allocs/op line"
			fail=1
		elif [ "$got" -gt "$want" ]; then
			echo "bench gate: $name regressed: $got allocs/op > baseline $want"
			fail=1
		else
			echo "bench gate: $name OK ($got allocs/op, baseline $want)"
		fi
	done
	[ "$fail" -eq 0 ] && echo "bench gate: PASS" || echo "bench gate: FAIL"
	exit "$fail"
fi

if [ "${1:-}" = "-obs" ]; then
	base="${2:-BENCH_pr6.json}"
	fail=0

	# The observability suites, race-enabled. The regex sweeps the
	# trace plumbing (pipe marks, TRACE frames, pool span chains, the
	# two-node merged-trace causal-order test), the dpntop view, the
	# cluster gather paths, the cardinality guard, the deadlock dump,
	# and TestObservabilitySmoke — which exercises the live metrics
	# endpoint and the distributed trace-merge round-trip through the
	# real binaries.
	pat='(Trace|TopView|GatherMetrics|Cardinality|Prom|WaitNanos|DeadlockDump|ServeDebugScope|PoolLatency|MetricsOverRPC|ObservabilitySmoke)'
	echo "obs gate: go test -race -run '$pat' -count=1 ./..."
	go test -race -run "$pat" -count=1 -timeout 10m ./... || fail=1

	# Tracing must be free when nobody asked for it: the hot-path
	# sentinels (which now carry the disabled-path mark checks) must
	# stay within 3% ns/op of the committed baseline. Best-of-3 to
	# shave scheduler noise, same as the allocation gate.
	if [ ! -f "$base" ]; then
		echo "obs gate: no baseline $base (run scripts/bench.sh first)"
		exit 1
	fi
	bpat='^(BenchmarkTokenWriteInt64|BenchmarkTokenInt64StreamBatch|BenchmarkLinkThroughput)$'
	log=$(mktemp)
	trap 'rm -f "$log"' EXIT
	echo "obs gate: go test -run ^\$ -bench '$bpat' -count=3 ."
	go test -run '^$' -bench "$bpat" -count=3 -timeout 30m . | tee "$log"
	for name in BenchmarkTokenWriteInt64 BenchmarkTokenInt64StreamBatch BenchmarkLinkThroughput; do
		# First match only: BENCH_pr6.json repeats the link sentinels
		# in its tracing_overhead section.
		want=$(awk -v n="$name" -F'[:,}]' '$0 ~ "\"" n "\"" {
			for (i = 1; i < NF; i++) if ($i ~ /"ns_op"/) print $(i+1) + 0
		}' "$base" | head -n 1)
		got=$(awk -v n="$name" '$1 ~ "^" n "(-[0-9]+)?$" {
			for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1) + 0
		}' "$log" | sort -g | head -n 1)
		if [ -z "$want" ] || [ -z "$got" ]; then
			echo "obs gate: $name missing from baseline or run"
			fail=1
			continue
		fi
		if awk -v g="$got" -v w="$want" 'BEGIN { exit !(g <= w * 1.03) }'; then
			echo "obs gate: $name OK ($got ns/op, baseline $want, limit +3%)"
		else
			echo "obs gate: $name regressed: $got ns/op > baseline $want + 3%"
			fail=1
		fi
	done
	[ "$fail" -eq 0 ] && echo "obs gate: PASS" || echo "obs gate: FAIL"
	exit "$fail"
fi

if [ "${1:-}" = "-chaos" ]; then
	# The chaos sweep includes the graph-shape fuzzer's random
	# topologies under fault injection (TestGraphFuzzChaos), which pin
	# their topology with WORKLOAD_SEED; link-level chaos tests pin
	# their fault schedule with CHAOS_SEED.
	replay_gate chaos Chaos 3 10m
	exit 0
fi

if [ "${1:-}" = "-lint" ]; then
	fail=0
	echo "lint gate: go vet ./..."
	go vet ./... || fail=1
	if command -v staticcheck >/dev/null 2>&1; then
		echo "lint gate: staticcheck ./..."
		staticcheck ./... || fail=1
	else
		echo "lint gate: staticcheck not installed; skipping (install it locally to enable)"
	fi
	# The conduit layer is the one data-plane API every package builds
	# on; keep its surface on the modern spelling.
	if grep -n 'interface{}' internal/conduit/*.go; then
		echo "lint gate: interface{} in internal/conduit (use any)"
		fail=1
	fi
	[ "$fail" -eq 0 ] && echo "lint gate: PASS" || echo "lint gate: FAIL"
	exit "$fail"
fi

if [ "${1:-}" = "-scenarios" ]; then
	replay_gate scenario '(Scenario|Quantile|PromHistogram|GraphFuzz|FuzzPlan|StreamOracle|SoakSmoke|RegistryConcurrent|RendezvousStorm)' 1 15m
	exit 0
fi

if [ "${1:-}" = "-codec" ]; then
	fail=0
	# Round-trip identity, the compression-ratio floor (>= 4x monotone
	# int64, raw fallback <= 1.02x), corruption rejection, and the
	# compressed-link integration tests — race-enabled, like everything
	# else that touches the link plane.
	pat='(Codec|CompressedLink|CompressionDisabled|IncompressibleStream|Float64Shape|CorruptCompressed|CascadeEquivalenceCompressedConduits)'
	echo "codec gate: go test -race -run '$pat' -count=1 ./..."
	go test -race -run "$pat" -count=1 -timeout 10m ./... || fail=1
	# A short native fuzz burst per decoder: arbitrary blocks must fail
	# clean (no panic, no over-read), our own blocks must round-trip.
	for target in FuzzDecodeBE FuzzCodecInt64RoundTrip FuzzCodecFloat64RoundTrip; do
		echo "codec gate: go test -run ^\$ -fuzz $target -fuzztime 5s ./internal/token/blocks/"
		go test -run '^$' -fuzz "$target" -fuzztime 5s ./internal/token/blocks/ || fail=1
	done
	echo "codec gate: go test -run ^\$ -fuzz FuzzReaderDecode -fuzztime 5s ./internal/token/"
	go test -run '^$' -fuzz FuzzReaderDecode -fuzztime 5s ./internal/token/ || fail=1
	[ "$fail" -eq 0 ] && echo "codec gate: PASS" || echo "codec gate: FAIL"
	exit "$fail"
fi

if [ "${1:-}" = "-wal" ]; then
	fail=0
	# The journal itself: torture recovery plus a short native fuzz
	# burst per target (arbitrary segment damage must fail clean; our
	# own framing must round-trip at every offset).
	echo "wal gate: go test -race ./internal/wal"
	go test -race -count=1 -timeout 10m ./internal/wal || fail=1
	for target in FuzzOpenAfterDamage FuzzRecordFraming; do
		echo "wal gate: go test -run ^\$ -fuzz $target -fuzztime 5s ./internal/wal"
		go test -run '^$' -fuzz "$target" -fuzztime 5s ./internal/wal || fail=1
	done
	[ "$fail" -eq 0 ] || { echo "wal gate: FAIL"; exit 1; }
	# The durable plane end to end: journaled bindings surviving
	# endpoint restarts, the crash-found link regressions, and the
	# kill-restart scenario matrix (a re-exec'd producer SIGKILLed
	# twice mid-stream, output byte-identical to the oracle).
	replay_gate wal '(Durable|KillRestart|JournalDir|RebaseMidChunkCompressedReplay|BrokerCloseInterruptsReconnectBackoff|RateChargesOnlyWrittenBytes)' 1 15m
	exit 0
fi

if [ "${1:-}" = "-mux" ]; then
	fail=0
	# The mux substrate itself: handshake auth, stream framing, credit
	# windows, deadlines, keepalive, fair interleaving.
	echo "mux gate: go test -race -count=1 ./internal/netio/mux"
	go test -race -count=1 -timeout 10m ./internal/netio/mux || fail=1
	[ "$fail" -eq 0 ] || { echo "mux gate: FAIL"; exit 1; }
	# The layers above: broker session pooling, transport composition,
	# the FD-bounded storm, stream equivalence across deployments, and
	# the bounded §4.3 Move (a reader pipe filled before the move).
	replay_gate mux '(Mux|CascadeEquivalence|MoveDrainsFullReaderPipe|MoveDeadlineDegrades)' 1 15m
	exit 0
fi

if [ "${1:-}" = "-pool" ]; then
	pat='(Pool|Elastic|StaggeredClose|TornBlock|DeadLane|GatherAllClosed|GatherCorrupt|DirectBadIndex|WorkerKilled|BatchedRead|BatchedFloat)'
	echo "pool gate: go test -race -run '$pat' -count=1 ./..."
	if go test -race -run "$pat" -count=1 ./...; then
		echo "pool gate: PASS"
		exit 0
	fi
	echo "pool gate: FAIL"
	exit 1
fi

./scripts/check.sh -lint
set -x
go build ./...
go test -race ./...
set +x
./scripts/check.sh -pool
./scripts/check.sh -codec
./scripts/check.sh -wal
./scripts/check.sh -mux
./scripts/check.sh -chaos
./scripts/check.sh -scenarios
