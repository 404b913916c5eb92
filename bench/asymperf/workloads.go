package main

// The workloads' set-ups. BENCHMARK.json names the workloads and says
// why each is there; README.md describes what each runs.

// scale sizes every workload. fullScale is the benchmark; shortScale
// keeps each structural property (levels, fan-ins, native versus
// external, grants that always fit) at inputs small enough for a smoke
// test.
type scale struct {
	// Direct engine runs: n records, M = extMem, B = extBlock.
	extN, extMem, extBlock int

	// serve-mixed: a svcEnvelope-record broker with B = svcBlock; small
	// jobs of [smallLo, smallHi] records run natively, bulk jobs of
	// [bulkLo, bulkHi] ask for bulkMem records and run externally.
	svcEnvelope, svcBlock            int
	smallLo, smallHi, bulkLo, bulkHi int
	bulkMem                          int

	// cluster-3w: workers with a workerEnvelope-record broker; jobs of
	// [clusterLo, clusterHi] records forward mem=shardMem.
	workerEnvelope, clusterLo, clusterHi, shardMem, clusterPool int

	// Probes: IO probes move probeRecs records, codec probes a
	// codecRecs-record body; the leaf-sort probes sort sortSmall records
	// (a small served job) and extMem records (one formation run).
	probeRecs, codecRecs, sortSmall int
}

// fullScale: the 64 MiB engine input is 1024× M; serve-mixed's two bulk
// asks exactly fill the 4 MiB envelope, so with two clients every grant
// equals its ask and a small job never queues behind a bulk lease; each
// cluster worker's 6 MiB envelope fits all six shard asks two jobs can
// have in flight, so every shard plan is fixed too.
var fullScale = scale{
	extN: 1 << 22, extMem: 4096, extBlock: 64,

	svcEnvelope: 4 << 20 / 16, svcBlock: 64,
	smallLo: 20_000, smallHi: 60_000, bulkLo: 1_000_000, bulkHi: 2_000_000,
	bulkMem: 131_072,

	workerEnvelope: 6 << 20 / 16, clusterLo: 2_000_000, clusterHi: 3_000_000,
	shardMem: 65_536, clusterPool: 4,

	probeRecs: 1 << 22, codecRecs: 1_500_000, sortSmall: 40_000,
}

// shortScale keeps ext-classic at two merge levels and ext-writeeff at
// one (fan-in 16 and 64 over 64 and 16 leaves).
var shortScale = scale{
	extN: 1 << 14, extMem: 256, extBlock: 16,

	svcEnvelope: 16_384, svcBlock: 16,
	smallLo: 200, smallHi: 600, bulkLo: 10_000, bulkHi: 20_000,
	bulkMem: 8_192,

	workerEnvelope: 6 * 2048, clusterLo: 20_000, clusterHi: 30_000,
	shardMem: 2048, clusterPool: 2,

	probeRecs: 1 << 14, codecRecs: 20_000, sortSmall: 2_000,
}

// setupFunc builds a fresh environment for one workload in dir.
// traceDir, when non-empty, switches on the program's own trace export
// (ServerConfig.TraceDir, cluster.Config.TraceDir) into it.
type setupFunc func(o *options, sc *scale, dir, traceDir string) (env, error)

// setups holds the set-up of every workload BENCHMARK.json names.
var setups = map[string]setupFunc{
	"ext-classic-p1":  extSetup(extSpec{k: 1, procs: 1}),
	"ext-writeeff-p2": extSetup(extSpec{k: 4, procs: 2}),
	"serve-mixed":     serveSetup,
	"cluster-3w":      clusterSetup,
}
