#!/usr/bin/env sh
# CI gate: vet + lint + build + the full test suite once, under the race
# detector (fault-injection stress, malicious-server suite, hostile-wire,
# telemetry, decider-property, differential-soak and cluster tests all run
# there), the benchmark module's own vet and tests, then only what a second
# run adds: the growing-artifact model check and the client's decode-verdict
# tests repeated under -race, short fuzz passes over every parser and
# decoder that reads bytes from a wire or a file, and — every one through
# the one testbed runner, `energysim soak -scenario` — a deterministic
# virtual-time soak with invariant oracles (testdata/scenarios/default.scn
# at fixed seeds plus one printed random seed for replay), the
# scenario-corpus gate (every declarative spec diffed against its golden
# trace at two pinned seeds plus a wall-clock seed, then the 10k-client
# fleet), the cluster replay gate (3-node ring replayed byte-identically
# at two pinned seeds) and the
# event-stream determinism + calibration gate (canonical telemetry JSONL
# byte-identical to its committed golden, and Table 1 re-fitted from it to
# within 1%), the figure-world golden (every line `energysim -scale 0.125
# all` prints), a per-package coverage ratchet, the allocation gates the
# race runtime cannot run, and an admin-plane smoke test over real HTTP.
# Every change to the proxy dataplane, wire path, telemetry layer or figure
# world must keep this green.
set -eux

cd "$(dirname "$0")/.."

# ROADMAP's reported numbers: non-test Go lines outside the benchmark
# module, all of them and without comment and blank lines.
nontest() { git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs cat; }
echo "non-test Go lines: $(nontest | wc -l) ($(nontest | grep -v '^\s*$' | grep -v '^\s*//' | wc -l) without comments and blanks)"

# named PKG 'A|B|C' [go test flags]: run exactly those tests, fuzz targets
# or benchmarks of PKG, after checking that each name exists under the same
# flags — so a rename cannot leave a gate passing on nothing.
exists() {
	pkg=$1
	names=$2
	shift 2
	listed=$(go test "$@" -list "^($names)\$" "$pkg")
	for n in $(echo "$names" | tr '|' ' '); do
		if ! echo "$listed" | grep -qx "$n"; then
			echo "ci: $pkg has no test named $n" >&2
			return 1
		fi
	done
}
named() {
	exists "$@"
	pkg=$1
	names=$2
	shift 2
	go test "$@" -run "^($names)\$" "$pkg"
}
fuzz() {
	exists "$1" "$2"
	go test -run='^$' -fuzz="^$2\$" -fuzztime=10s "$1"
}

test -z "$(gofmt -l .)"
go vet ./...

# Optional linters: run them when the host has them, skip cleanly when it
# does not (the gate must not install anything).
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping"
fi
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./...
else
	echo "govulncheck not installed; skipping"
fi

go build ./...
go test -race ./...

# One rate table: every 802.11b rate point is a row in internal/energy,
# which every user reads back (TestRateTableAgrees), and the decider
# depends on the model only — neither the figure world's device nor its
# link may be among its imports. ParamsForLink stays bit for bit what it
# answered before the table moved.
if go list -deps ./internal/decider | grep -Eqx 'repro/internal/(device|wlan)'; then
	echo "ci: internal/decider depends on internal/device or internal/wlan" >&2
	exit 1
fi
exists . 'TestRateTableAgrees'
# One energy model: the per-scheme decode costs are a table in
# internal/energy beside the rate rows, so the figure world's device holds
# power states only and never reads a codec. Eq. 1 and Eq. 3 are each one
# body, held bit for bit to the paper's closed forms; the client charges a
# fetch once, and its span, its wide event and the harness's byte-count
# oracle all read that charge; Figure 8's fits are scored in fit.
if go list -deps ./internal/device | grep -qx 'repro/internal/codec'; then
	echo "ci: internal/device depends on internal/codec" >&2
	exit 1
fi
exists ./internal/energy 'TestGzipDecompressCostMatchesPaperFit|TestBzip2CostsSeveralTimesGzip|TestEquationsAsWritten'
# Which decode time charges a fetch is decided in one place,
# RateConfig.ParamsFor, and for now it is gzip's for every scheme.
exists ./internal/energy 'TestParamsForChargesGzipEveryScheme'
exists ./internal/pipeline 'TestProxyGzipOverlapsTransmission|TestMeterProbe'
exists ./internal/proxy 'TestFetchChargedOnce'
exists ./internal/harness 'TestEnergyOracleHoldsStatsCharge'
exists ./internal/fit 'TestFitsScoreThemselves'
# The documents name only what exists: facade names, paths, internal
# identifiers and test names.
exists . 'TestDocsNameDeclaredFacade'
# A testbed spec is charged at the row its link runs at.
exists ./internal/harness 'TestTwoMbpsLinkChargedAtItsRow'
exists ./internal/decider 'TestParamsForLinkUnchanged|TestLinkAnchorsAreTheMeasuredPoints'
exists ./internal/codec 'TestParseScheme'

# The benchmark is a module of its own (bench/, declared in BENCHMARK.json),
# so the root build and tests never touch it: vet it and run its tests here
# — the BENCHMARK.json <-> bench/metrics.go drift guard and a smoke run of
# every workload.
go -C bench vet ./...
go -C bench test ./...

# The growing-artifact gate: a miss is served while it is being compressed,
# so its state machine is model-checked — seeded schedules of readers
# attaching mid-build, resumes on and off block boundaries, Register, a
# peer's SyncGeneration and AdmitArtifact, a failing codec, evicting
# admissions and Close mid-build, against a sequential model — and a failed
# build must leave nothing behind, repeatedly and under -race. The codec
# runs once per block of a file generation and scheme: a build takes what a
# local sibling's codec made of a block, sent or refused, or waits for one
# whose codec is on it. Every bench file under three schemes and three
# policies, built in three orders on one worker and on three, is what a
# from-scratch encode makes of it, with one codec run per block; a sibling
# held before its codec is never waited for, one whose codec is running is;
# a claimer whose codec fails hands the block to its waiter; a peer's
# artifact lends nothing; the compress-rate telemetry counts only bytes a
# codec ran on, over the time inside it.
named ./internal/proxy 'TestGrowingArtifactModel|TestFailedBuildLeavesNothingBehind|TestClosingWhileQueuedWritesNoHeader|TestCacheEvictionDuringSingleflight|TestAdmissionRidesTheFlight|TestSiblingReuseByteIdentical|TestCodecRunsOncePerBlock|TestSiblingHeldBeforeItsCodecIsNotWaitedFor|TestSiblingRunningCodecIsWaitedFor|TestSiblingCodecFailureHandsTheBlockOver|TestPeerArtifactsLendNothing|TestCompressRateCountsOnlyEncodedBytes' -race -count=5

# The decode-verdict gate: what a fetch attempt keeps and counts when a
# block fails to decode must not depend on how its two goroutines were
# scheduled, so those tests are repeated under -race.
named ./internal/proxy 'TestDecodeVerdictPoint|TestDecodeFailureLeavesAnInOrderPrefix' -race -count=20

# The kept-connection gate: a one-shot client against the server, the
# client against a server that closes after every answer, Close with idle
# kept connections, eviction at the connection cap, a failed fetch never
# keeping its connection, and one client shared by goroutines — repeated
# under -race, since each ends a connection from two sides at once.
named ./internal/proxy 'TestOneShotClientAgainstKeptServer|TestClientRedialsAfterOneShotServer|TestCloseDrainsIdleKeptConns|TestIdleConnEvictedAtCap|TestFailedFetchDropsItsConn|TestKeptConnsAcrossGoroutines' -race -count=10

# A spec is a harness scenario: every Scenario field but Seed and Schedule
# has a directive, and Compile sets those two. Every spec Validate accepts
# compiles to a schedule simnet runs, paused in each power-save window; a
# window whose end overflows is a committed seed, and Validate refuses it.
exists ./internal/scenario 'TestFullSpecSetsEveryField|TestValidateRejects'
test -f internal/scenario/testdata/fuzz/FuzzScenarioSpec/seed-powersave-overflow
fuzz ./internal/scenario FuzzScenarioSpec
fuzz ./internal/decider FuzzDynamicDecide
# The two readers of an exported event file: wide events round-trip through
# JSONL and arbitrary bytes stay inside an allocation bound; and whatever
# the calibration loader makes of arbitrary bytes either leaves Table 1 in
# charge or is finite, positive and never worse than Eq. 6.
fuzz ./internal/obs/export FuzzReadJSONL
fuzz ./internal/decider FuzzCalibrationFromJSONL
exists ./internal/decider 'TestParamsFromFitRefusesNonPositive'
fuzz ./internal/proxy FuzzReadRequest
fuzz ./internal/proxy FuzzReadBlockFrame
fuzz ./internal/cluster FuzzReadPeerRequest
fuzz ./internal/flate FuzzGzipDifferential
fuzz ./internal/flate FuzzDeflateDifferential
# Those two ask whether both inflaters read our streams back. These two ask
# whether the streams are the bytes they always were: deflate at levels 1,
# 6 and 9 through a pooled, a fresh and a reused matcher against the frozen
# matcher's tokens, compress against the frozen encoder, each after an
# unrelated input has been through the workspace.
fuzz ./internal/flate FuzzDeflateEncodeIdentical
fuzz ./internal/lzw FuzzLZWEncodeIdentical
# The one inflater behind its gzip container, held to compress/gzip on
# arbitrary members: optional header fields, bytes between the final block
# and the trailer, bytes after the trailer. Every strict prefix of the
# seeds, and of a multi-block stream through gzip, zlib and raw DEFLATE,
# is refused, each in words pinned by a digest. The trailer's ISIZE is
# checked, never a size hint: a forged one makes no room.
fuzz ./internal/flate FuzzStreamReader
exists ./internal/flate 'TestStreamSeedsAgree|TestGzipTruncationAlwaysFails|TestForgedISizeReservesLittle'
# The inflater's fast loop and its careful one, held to compress/flate on
# arbitrary raw DEFLATE: onto nil, exact and ample room, under an arbitrary
# limit — the same bytes, the same verdict, and a refusal in the same words
# every way. The seeds put each refusal in the fast loop's reach, and the
# test that pins their words is named here too, with the one that holds
# every run to its limit and the kernels the record quotes.
fuzz ./internal/flate FuzzInflateFastPath
exists ./internal/flate 'TestFastPathSeeds|TestRunStopsAtTheLimit|BenchmarkInflateBlocks|BenchmarkInflateNoRoom'
# czip sends every scheme, gzip included, through the codec the proxy
# uses: each round-trips, and -d refuses output past -maxsize.
exists ./cmd/czip 'TestEverySchemeRoundTrips|TestDecompressHonoursMaxSize'
fuzz ./internal/selective FuzzSELRoundTrip
# The encoder's probe sends a block raw before any codec runs: on random
# blocks planted with repeats and a byte that follows its predecessor, a
# block it sends raw must fail Eq. 6 under every scheme's real output. The
# same holds over the ratio sweep, the Table 2 classes and the bench files;
# it rests on every decider being monotone in the compressed size, and on
# the dynamic decider counting one decision per probed block. Every bench
# block's outcome under each scheme is pinned.
fuzz ./internal/selective FuzzProbeNoFalseSkip
exists ./internal/selective 'TestProbeNoFalseSkip|TestProbeDecisionsPinned|TestDecisionMonotoneInCompressionRatio|BenchmarkProbe|BenchmarkEncodeBenchFiles'
exists ./internal/decider 'TestProbeCountsOneDecisionPerBlock'
fuzz ./internal/selective FuzzSELParse
# The decoders that run out of a reused workspace: each input is decoded
# fresh and after an unrelated stream, and held to the pre-workspace
# decoder kept in the test files.
fuzz ./internal/lzw FuzzLZWDecode
fuzz ./internal/bwt FuzzBWTDecode
# The same oracles run in the suite above; named here so a rename cannot
# leave them running on nothing: the LZW decoder on fresh, used and
# poisoned workspaces and its word stores against a buffer's spare
# capacity, and the bzip2 decoder's fused stages and the counts they tally.
exists ./internal/lzw 'TestWorkspaceReuse|TestDecodeLeavesSpareCapacity'
exists ./internal/bwt 'TestWorkspaceReuse|TestFusedStagesMatchReference|TestSeedStreamsMeanWhatTheySay|TestInverseMeetingRule|TestBlockFitsThePackedVectors|TestAnchoredInverse|TestUndoRLE1'
fuzz ./internal/huffman FuzzHuffmanNewDecoder
# The bzip2 decoder's bulk symbol read, held to a DecodeMSB loop: the same
# symbols, the same refusals and the same bits left in the reader.
fuzz ./internal/huffman FuzzAppendMSB
# The decode loops lean on the readers' PeekBits and Consume inlining, and
# the inflater's fast loop, entered once per symbol near a limit, and the
# bzip2 symbol loop, which borrows the MSB reader's state, on Bits and
# SetBits; the compiler drops a method that grows past its budget without
# a word, so the gate asks for each by name.
INLINE=$(go build -gcflags=-m ./internal/bitio 2>&1)
for m in '(*LSBReader).PeekBits' '(*LSBReader).Consume' '(*LSBReader).Bits' '(*LSBReader).SetBits' '(*MSBReader).PeekBits' '(*MSBReader).Consume' '(*MSBReader).Bits' '(*MSBReader).SetBits'; do
	if ! echo "$INLINE" | grep -qF "can inline $m"; then
		echo "ci: bitio $m no longer inlines" >&2
		exit 1
	fi
done
exists ./internal/bitio 'TestBitsHandBack|TestMSBBitsHandBack'
# The word-storing writers, appending in place after an arbitrary prefix,
# held to the byte-at-a-time writers on arbitrary calls: the same stream,
# the same sticky error, the prefix untouched.
fuzz ./internal/bitio FuzzWritersMatchReference
exists ./internal/bitio 'TestWritersGrowAtEveryPhase'
# AppendMSB's register loop against a DecodeMSB loop on every table shape,
# a code too long for it included.
exists ./internal/huffman 'TestAppendMSBMatchesLoop'
# The encode side of the block sorter: the linear-time rotation sort held to
# Manber-Myers (and a quadratic sort on short blocks) on arbitrary and
# periodic blocks, fresh and after an unrelated block — and Compress,
# through the fused move-to-front pass and the word-storing bit writer, to
# the stream of the reference passes.
fuzz ./internal/bwt FuzzBWTTransform
# What the record quotes of the encoders, checked by name so a rename
# cannot leave it running on nothing: the pinned artifact digests of the
# bench files under each encoder, the sort's linearity guard, its
# largest-block round trip, the Manber-Myers sort it is held to, and the
# block sort, whole-block and move-to-front kernels; the match finder's
# tokens at every level held to the frozen matcher's, and the per-file
# deflate and tokenise kernels — and the raw bench files the three codecs'
# tests share, pinned by digest.
exists ./internal/bwt 'TestBenchFilesMatchReference|TestSortWorstCase|TestLevel9BlockRoundTrip|TestSortMatchesManberMyers|BenchmarkTransform|BenchmarkCompressBlock|BenchmarkMTF'
exists ./internal/flate 'TestBenchFilesMatchReference|TestTokenizeMatchesReference|BenchmarkDeflateBenchFiles'
exists ./internal/lz77 'BenchmarkTokenizeLevel9'
exists ./internal/lzw 'TestBenchFilesMatchReference'
exists ./internal/workload 'TestBenchFilesPinned'
# The two pieces of the standard library the testbed and the dataplane lean
# on for their numbers: the O(1)-seeded generator held to math/rand's own,
# draw for draw, and hash/crc32 held to the from-scratch CRC-32 kept in the
# test file, across split points and unaligned tails.
fuzz ./internal/sim FuzzSeededRand
fuzz ./internal/checksum FuzzCRC32MatchesReference
# The kernel's cancellation, held to a sorted queue that keeps cancelled
# events and runs them into nothing: the same surviving events in the same
# (time, order), and the clock at rest at the same time.
fuzz ./internal/sim FuzzKernelCancel
exists ./internal/sim 'TestCancelMatchesModel|TestCancelRemovesTheWake'

# Deterministic soak gate: CI's soak shape (testdata/scenarios/default.scn)
# on the virtual testbed (internal/harness) with every invariant oracle
# armed — byte-exact payloads, counter reconciliation, energy conservation,
# monotone resume, goroutine leaks. Two fixed seeds pin known-good
# schedules; one wall-clock seed explores a fresh schedule every run and
# prints itself so any failure is replayable. The replay guarantee itself is
# gated by running seed 1 twice and requiring byte-identical traces.
GATE_DIR=$(mktemp -d)
trap 'rm -rf "$GATE_DIR"' EXIT
go build -o "$GATE_DIR/energysim" ./cmd/energysim
SOAK="$GATE_DIR/energysim soak -scenario testdata/scenarios/default.scn"
$SOAK -seed 1
$SOAK -seed 2
$SOAK -seed 1 -trace >"$GATE_DIR/soak-a" && $SOAK -seed 1 -trace >"$GATE_DIR/soak-b"
cmp "$GATE_DIR/soak-a" "$GATE_DIR/soak-b"
RANDOM_SEED=$(date +%s)
echo "soak random seed: $RANDOM_SEED (replay: go run ./cmd/energysim soak -scenario testdata/scenarios/default.scn -seed $RANDOM_SEED -trace)"
$SOAK -seed "$RANDOM_SEED"

# Differential soak gate, CLI surface: paired same-seed static-vs-dynamic
# runs at two pinned seeds — byte-exact payloads, modeled-energy dominance
# (strict, on a corpus where the policies genuinely diverge) and the
# deadline implication — and both runs held to the spec's expect bounds.
# (The same oracle's tests ran under -race above.)
$SOAK -seed 1 -differential
$SOAK -seed 2 -differential
# The runner's own tests ran under -race above; checked by name here so a
# rename cannot leave the soak CLI, the differential's bounds or the fleet
# report's nearest-rank percentile untested.
exists ./cmd/energysim 'TestSoakMatchesGolden|TestSoakOverrides'
exists ./internal/scenario 'TestRunPairedChecksBounds'
exists ./internal/obs/agg 'TestPercentile|TestWindowsEitherSideOfZero'

# Event-stream determinism gate: the canonical wide-event JSONL of a
# seeded soak (testdata/events/soak-seed1.scn: the soak's fleet, no faults,
# no churn) must be byte-identical run to run AND match the committed
# golden stream (the one EXPERIMENTS.md's calibration section quotes).
# Then the calibrator must recover Table 1 from that stream to within 1%.
EVGATE="$GATE_DIR/energysim soak -scenario testdata/events/soak-seed1.scn -seed 1"
$EVGATE -events "$GATE_DIR/events-a" >/dev/null && $EVGATE -events "$GATE_DIR/events-b" >/dev/null
cmp "$GATE_DIR/events-a" "$GATE_DIR/events-b"
cmp "$GATE_DIR/events-a" testdata/events/soak-seed1.jsonl
# Every device class's fit must be within 1%, not just one of them.
CALIB=$("$GATE_DIR/energysim" calib -events testdata/events/soak-seed1.jsonl)
echo "$CALIB" | grep -q 'within 1%: yes'
if echo "$CALIB" | grep -q 'within 1%: no'; then
	echo "ci: a device class missed Table 1 by more than 1%" >&2
	exit 1
fi

# Figure-world golden: every line the paper-regeneration run prints (the
# run EXPERIMENTS.md quotes) must match the committed transcript byte for
# byte — a moved cell is a changed result, whatever the shape tests say.
"$GATE_DIR/energysim" -scale 0.125 all >"$GATE_DIR/figures"
cmp "$GATE_DIR/figures" testdata/figures/all.scale0125.golden

# Scenario-corpus gate: every committed declarative spec replays at the
# two pinned golden seeds and must reproduce its committed canonical
# trace byte-for-byte, then runs once at the wall-clock seed above so
# bounds and oracles face a schedule nobody tuned for (no golden exists
# there; the seed is printed for replay). Finally the 10,000-client fleet
# must complete inside its expect bounds and report latency percentiles
# and joules/MB.
for spec in testdata/scenarios/*.scn; do
	name=$(basename "$spec" .scn)
	for seed in 1 2; do
		"$GATE_DIR/energysim" soak -scenario "$spec" -seed "$seed" -trace >"$GATE_DIR/trace"
		cmp "$GATE_DIR/trace" "testdata/scenarios/golden/$name.seed$seed.trace"
	done
	echo "scenario $name wall-clock seed: $RANDOM_SEED (replay: go run ./cmd/energysim soak -scenario $spec -seed $RANDOM_SEED -trace)"
	"$GATE_DIR/energysim" soak -scenario "$spec" -seed "$RANDOM_SEED"
done
"$GATE_DIR/energysim" soak -scenario testdata/scenarios/loadgen/fleet-10k.scn -seed "$RANDOM_SEED"
echo "fleet-10k: the wall time on its report's second line read 3.1 s at PR 23, before the testbed's generators were seeded in O(1) (logged, not gated: a wall-clock gate on a shared box is a flake)"

# Cluster replay gate: the 3-node consistent-hash ring scenario must replay
# byte-identically at two pinned seeds (run twice, traces compared — on
# top of the golden diff the corpus loop above already did). The
# cluster-scope oracles — at most one compression per artifact key
# ring-wide, counters reconciled across nodes, ≥2x single-node aggregate
# throughput — ran under the race detector above, peer protocol included.
for seed in 1 2; do
	"$GATE_DIR/energysim" soak -scenario testdata/scenarios/cluster-3.scn -seed "$seed" -trace >"$GATE_DIR/cluster-a"
	"$GATE_DIR/energysim" soak -scenario testdata/scenarios/cluster-3.scn -seed "$seed" -trace >"$GATE_DIR/cluster-b"
	cmp "$GATE_DIR/cluster-a" "$GATE_DIR/cluster-b"
done
# A ring owner builds a peer's artifact under whatever policy a request's
# deadline class selected: the dynamic-decider spec on three nodes, at the
# printed seed, exits non-zero on a key compressed twice ring-wide.
exists ./internal/proxy 'TestArtifactServesRequestPolicies'
exists ./internal/scenario 'TestDynamicDeciderOnARing'
echo "decider-dynamic -nodes 3 seed: $RANDOM_SEED (replay: go run ./cmd/energysim soak -scenario testdata/scenarios/decider-dynamic.scn -nodes 3 -seed $RANDOM_SEED -trace)"
"$GATE_DIR/energysim" soak -scenario testdata/scenarios/decider-dynamic.scn -nodes 3 -seed "$RANDOM_SEED"
# One network is one medium: a node's shared transmit line follows the
# link schedule like a connection's own transmitter, and the PXY-P
# backhaul is a network of its own that the WLAN's schedule never paces.
# Each scheduled spec's events start while its fleet is still fetching,
# so both specs, run on three nodes at the printed seed, put every ring's
# line through a rate cliff and power-save pauses.
exists ./internal/simnet 'TestScheduleRateCliff|TestSchedulePowerSavePause|TestScheduleInfiniteBaseRate'
exists ./internal/harness 'TestLineFollowsTheSchedule|TestBackhaulIgnoresTheWLANSchedule'
exists ./internal/scenario 'TestSchedulesBite'
for spec in rate-cliff powersave-bursts; do
	echo "$spec -nodes 3 seed: $RANDOM_SEED (replay: go run ./cmd/energysim soak -scenario testdata/scenarios/$spec.scn -nodes 3 -seed $RANDOM_SEED -trace)"
	"$GATE_DIR/energysim" soak -scenario "testdata/scenarios/$spec.scn" -nodes 3 -seed "$RANDOM_SEED"
done
rm -rf "$GATE_DIR"

# Coverage ratchet: per-package floors a few points under current levels,
# so test deletions and untested subsystems fail loudly. Raise a floor when
# a package's coverage rises; never lower one to make a change pass.
check_cover() {
	pkg=$1
	floor=$2
	pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "coverage gate: no coverage reported for $pkg" >&2
		return 1
	fi
	if [ "$(awk -v p="$pct" -v f="$floor" 'BEGIN{print (p < f) ? 1 : 0}')" = 1 ]; then
		echo "coverage gate: $pkg at ${pct}%, floor is ${floor}%" >&2
		return 1
	fi
	echo "coverage: $pkg ${pct}% (floor ${floor}%)"
}
check_cover ./internal/proxy 88
check_cover ./internal/cluster 83
check_cover ./internal/simnet 80
check_cover ./internal/selective 89
check_cover ./internal/harness 80
check_cover ./internal/obs 86
check_cover ./internal/obs/export 90
check_cover ./internal/obs/agg 90
check_cover ./internal/calib 84
check_cover ./internal/decider 85
check_cover ./internal/energy 87
check_cover ./internal/scenario 88
check_cover ./internal/workload 93
check_cover ./internal/flate 88
check_cover ./internal/huffman 93
check_cover ./internal/lzw 97
check_cover ./internal/bwt 95
check_cover ./internal/lz77 91
check_cover ./internal/codec 90
check_cover ./internal/bitio 93
# The figure world: the simulated handheld, its link, the run shapes over
# them, the experiments that print the goldens and the kernel.
check_cover ./internal/device 79
check_cover ./internal/wlan 92
check_cover ./internal/pipeline 89
check_cover ./internal/experiment 85
check_cover ./internal/sim 95

# Decompression-kernel gates, without -race (the race runtime changes
# allocation counts): the pooled dataplane must stay O(1) buffers per
# block (a corrupt one included), event export with no sink and a cache
# hit's lookup must cost the fetch path zero allocations, an event with a
# sink reads its span's phases alone, the
# table-driven Huffman fast path must stay zero-alloc per symbol, and a
# 100x smoke proves its benchmark still runs. A warm cache hit over a kept
# connection, client and server together, stays within its stated budget,
# and server-side costs its serve span alone.
named ./internal/proxy 'TestReadBlockPooledAllocs|TestGetBufRecycles|TestEmitFetchEventNoSinkZeroAlloc|TestEmitFetchEventReadsOnlyPhases|TestCacheHitZeroAllocs|TestCorruptBlockAllocatesNoDestination|TestKeepAliveHitAllocs|TestServeHitAllocs' -count=1
named ./internal/huffman 'TestDecodeLSBZeroAlloc' -count=1
# A gzip stream is built in a pooled buffer and returned at its exact size:
# an incompressible block allocates its output and at most 1 KiB more.
named ./internal/flate 'TestDeflateSteadyStateAllocs|TestGzipCompressAllocatesItsOutput' -count=1
# A matcher put back survives a collection, so a fleet pass does not make
# its 384 KB again after each one.
named ./internal/lz77 'TestMatcherSurvivesCollection' -count=1
# The codec workspaces: a warm decode into a buffer with room allocates
# nothing that scales with the block or a codec's tables, and a warm encode
# of any scheme allocates its output and nothing else. Making a codec, as
# the client does on every attempt, allocates nothing.
named ./internal/codec 'TestDecompressIntoSteadyStateAllocs|TestCompressSteadyStateAllocs|TestNewAllocatesNothing' -count=1
# The testbed's own costs: a generator and four draws stay within three
# allocations and 160 bytes, a link's jitter stream draws math/rand's
# Float64s and allocates nothing, a timeout in the event queue costs none,
# a paced write and its read on a warm simnet connection cost none, nor
# does a start queued on a warm clock, a client-shaped span costs one (and
# stays in its size class), every reader of a span builds the SpanData the
# eager attribute map gave, an
# oracle reads a client's records where they lie, the trace of a
# 2,500-fetch pass is at most two allocations that print what fmt printed,
# and a 500-client fleet pass on a reused clock stays within its stated
# allocations per fetch.
named ./internal/sim 'TestSeededRandAllocs|TestStreamMatchesNewRand|TestScheduleWakeAllocs|TestKernelReset' -count=1
named ./internal/simnet 'TestSimnetRoundTripAllocs|TestResetRefusesAClockInUse|TestGoAfterAllocs' -count=1
named ./internal/obs 'TestSpanLifecycleAllocs|TestSpanSize|TestSpanDataBuiltOnRead' -count=1
# An open span's phases are read as a copy.
exists ./internal/obs 'TestPhasesIsACopy'
named ./internal/harness 'TestClientRecordsAliasesReport|TestTraceAllocs|TestTraceMatchesFmt|TestFleetPassAllocs' -count=1
# What those budgets rest on, repeated under -race: a finished span that
# readers share is never written again, every write segment comes back to
# its clock, a read woken before its deadline cancels the deadline's
# timeout and frees its waiter at once while the clock still rests at the
# deadline, a reused waiter is never woken by an earlier park's timeout, a
# queued start runs where Go + Sleep would have, on a worker that carries
# nothing from the start before and exits when the clock rests, a run on
# the clock an earlier run left replays a run on a new one, and a
# 2,500-handheld pass, whose starts hand workers from one handheld to the
# next, runs on a few dozen goroutines.
named ./internal/obs 'TestFinishedSpanIsImmutable' -race -count=10
named ./internal/simnet 'TestSegmentsComeBack|TestWokenReadFreesItsWaiter|TestStaleTimeoutNeverWakesLaterPark|TestResetRefusesAClockInUse|TestGoAfterOrdersAsGoAndSleep|TestRestedClockLeavesNoGoroutine|TestWorkerCarriesNothing' -race -count=10
named ./internal/harness 'TestReusedClockReplays|TestFleetPassSpawnsFewGoroutines' -race -count=10
named ./internal/harness 'TestRunReturnsEverySegment' -count=1

# Parallel-compression determinism gate: the selective encoder must emit
# byte-identical output for every worker count (1 vs N), so cached artifacts
# and golden traces never depend on core count or scheduling.
named ./internal/selective 'TestEncodeParallelMatchesSequential|TestEncodeBlocksParallelOrdering|TestEncodeBlocksParallelEmitStopsAtFailure|TestEncodeBlocksParallelPassesIndex' -count=1
exists ./internal/huffman 'BenchmarkDecodeTable'
go test -run '^$' -bench 'BenchmarkDecodeTable$' -benchtime=100x ./internal/huffman

# Admin-plane smoke: a real proxyd with -admin must answer /healthz,
# count a real fetch in /metrics, /statsz and /tracez, and exit cleanly
# on SIGTERM. Skips when curl is unavailable.
if command -v curl >/dev/null 2>&1; then
	SMOKE_DIR=$(mktemp -d)
	trap 'kill "$PROXYD_PID" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
	go build -o "$SMOKE_DIR/proxyd" ./cmd/proxyd
	go build -o "$SMOKE_DIR/hhfetch" ./cmd/hhfetch
	"$SMOKE_DIR/proxyd" -corpus -scale 0.03125 -addr 127.0.0.1:0 -admin 127.0.0.1:0 >"$SMOKE_DIR/proxyd.log" &
	PROXYD_PID=$!
	for _ in $(seq 1 50); do
		grep -q '^admin listening on ' "$SMOKE_DIR/proxyd.log" && break
		sleep 0.1
	done
	ADDR=$(sed -n 's/^proxyd serving .* on //p' "$SMOKE_DIR/proxyd.log")
	ADMIN=$(sed -n 's/^admin listening on //p' "$SMOKE_DIR/proxyd.log")
	curl -fsS "http://$ADMIN/healthz" | grep -q '^ok$'
	NAME=$("$SMOKE_DIR/hhfetch" -addr "$ADDR" -list | head -n 1)
	"$SMOKE_DIR/hhfetch" -addr "$ADDR" -name "$NAME" -mode ondemand -trace >/dev/null
	curl -fsS "http://$ADMIN/metrics" | grep -q '^proxy_requests_total [1-9]'
	# The fetch left its artifact cached, and the occupancy gauges say so.
	curl -fsS "http://$ADMIN/metrics" | grep -q '^proxy_cache_entries [1-9]'
	curl -fsS "http://$ADMIN/metrics" | grep -q '^proxy_cache_bytes [1-9]'
	curl -fsS "http://$ADMIN/statsz" | grep -Eq '"Requests": [1-9]'
	curl -fsS "http://$ADMIN/tracez" | grep -q '"req_id"'
	curl -fsS "http://$ADMIN/tracez?name=serve&limit=1" | grep -q '"req_id"'
	curl -fsS "http://$ADMIN/eventsz" | grep -q '"span": "serve"'
	curl -fsS "http://$ADMIN/eventsz?name=serve&limit=1" | grep -q '"req_id"'
	curl -fsS "http://$ADMIN/eventsz?name=nosuch" | grep -q '^\[\]$'
	kill -TERM "$PROXYD_PID"
	wait "$PROXYD_PID"
else
	echo "curl not installed; skipping admin smoke"
fi
