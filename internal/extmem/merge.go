package extmem

import (
	"fmt"
	"time"

	"asymsort/internal/cost"
	"asymsort/internal/obs"
	"asymsort/internal/seq"
)

// engine executes one plan in two phases: run formation over every
// leaf, then the merge levels bottom-up. Formation runs min(P, leaves)
// private workers (runform.go), and each merge node fans out over up
// to P worker-private key ranges (parmerge.go); on a one-worker pool
// both are the calling goroutine on one M-record arena — the baseline
// "sequential engine". Every write is synchronous on its worker, and
// the block-write ledger is identical at every P.
type engine struct {
	cfg     resolved
	plan    *Plan
	stats   IOStats
	in      *BlockFile
	out     *BlockFile
	spill   [2]*BlockFile // ping-pong by level parity; created lazily
	formBuf []seq.Record  // M records: formation worker 0's candidates, then merge worker 0's arena
	readBuf []seq.Record  // formation worker 0's read chunk, then merge worker 0's writer stage
	// levelMem is the memory grant the current phase's buffers carve
	// from: the admission-time budget, or — when a Lease is wired — the
	// broker's current grant, re-read at every merge-level boundary. It
	// never alters the plan, only the buffer carve, so the write ledger
	// is grant-trajectory-independent.
	levelMem int
	// parArena holds one reusable buffer arena per merge worker above
	// 0 (grown lazily, reused across nodes), so every node's readers
	// and writer stages carve instead of allocating.
	parArena [][]seq.Record
	report   *Report
	// formSpan is the live formation-phase trace span while run
	// formation executes; selection passes hang their per-pass child
	// spans under it. Nil (no tracing) is fine — spans are nil-safe.
	formSpan *obs.Span
}

// grantMem returns the grant the next phase's buffers carve from:
// cfg.mem, or the lease's current grant clamped to a block multiple of
// at least one block.
func (e *engine) grantMem() int {
	m := e.cfg.mem
	if e.cfg.lease != nil {
		if g := e.cfg.lease.Mem(); g > 0 {
			m = g - g%e.cfg.block
			if m < e.cfg.block {
				m = e.cfg.block
			}
		}
	}
	return m
}

// reportProgress tells a ProgressReporter lease which level the
// engine is entering (see extmem.ProgressReporter). Nil and
// non-reporting leases cost one failed type assertion.
func (e *engine) reportProgress(level int) {
	if pr, ok := e.cfg.lease.(ProgressReporter); ok {
		pr.Progress(level, e.plan.Levels())
	}
}

// canceled polls the lease's revocation channel; engines call it at
// block/chunk granularity on every long-running loop.
func (e *engine) canceled() error {
	if e.cfg.lease == nil {
		return nil
	}
	select {
	case <-e.cfg.lease.Canceled():
		return ErrCanceled
	default:
		return nil
	}
}

// Sort sorts the record file at inPath into a fresh record file at
// outPath under cfg's memory budget. Spill files are created in
// cfg.TmpDir and removed before returning, error or not.
func Sort(cfg Config, inPath, outPath string) (*Report, error) {
	r, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	e := &engine{cfg: r}
	// Wire the ω meter before any BlockFile exists: the field is never
	// mutated once IO can start, so the workers read it lock-free.
	e.stats.meter = r.meter
	in, err := OpenBlockFile(inPath, r.block, &e.stats)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	e.in = in
	out, err := CreateBlockFile(outPath, r.block, &e.stats)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	e.out = out

	// The plan — and with it the report and the write ledger — covers
	// the payload records after any InSkip prefix; plan offsets are
	// payload-relative, shifted onto the input file only at its three
	// read sites (runform.go).
	n := in.Len() - r.inSkip
	if n < 0 {
		return nil, fmt.Errorf("extmem: InSkip %d exceeds input length %d records", r.inSkip, in.Len())
	}
	e.plan = NewPlan(n, r.mem, r.block, r.k, r.fanIn)
	e.report = &Report{
		N: n, Mem: r.mem, Block: r.block, K: r.k, FanIn: r.fanIn,
		Runs: e.plan.Runs(), Levels: e.plan.Levels(), Omega: r.omega,
		Procs:      r.procs,
		LevelIO:    make([]cost.Snapshot, e.plan.Levels()+1),
		PlanWrites: e.plan.TotalWrites(),
	}
	e.formBuf = make([]seq.Record, r.mem)
	e.levelMem = r.mem
	chunk := formChunk
	if chunk < r.block {
		chunk = r.block
	}
	e.readBuf = make([]seq.Record, 0, chunk)

	// Every merge write is synchronous on a worker that mergeLevel
	// joins before it returns, so no transfer is in flight when the
	// spill files are removed.
	defer func() {
		for _, sp := range e.spill {
			if sp != nil {
				sp.Remove()
			}
		}
	}()
	if err := e.run(); err != nil {
		return nil, err
	}
	e.report.Total = e.stats.Snapshot()
	e.report.OutN = e.out.Len()
	if r.post != nil {
		// The streamed root wrote ⌈OutN/B⌉ blocks in place of the plan's
		// ⌈N/B⌉ root-level blocks; adjust the prediction so the
		// measured-equals-planned identity stays exact.
		rootBlocks := uint64((n + r.block - 1) / r.block)
		outBlocks := uint64((e.report.OutN + r.block - 1) / r.block)
		e.report.PlanWrites = e.report.PlanWrites - rootBlocks + outBlocks
	}
	return e.report, nil
}

// run executes the plan phase by phase: all leaves, then each merge
// level left to right.
func (e *engine) run() error {
	e.reportProgress(0)
	leaves, byLevel := e.plan.phases()
	if e.cfg.post != nil && e.plan.Levels() == 0 {
		// Single-run plan: the root is a leaf, so formation and the
		// post-pass fuse (stream.go).
		base := e.stats.Snapshot()
		e.formSpan = e.cfg.span.Child("form")
		start := time.Now()
		err := e.formRootStreamed(e.plan.root)
		e.report.FormTime += time.Since(start)
		e.addLevel(0, base)
		e.formSpan.Set(obs.Attr{Key: "post", Val: 1})
		e.endFormSpan(base)
		return err
	}
	if len(leaves) > 0 {
		base := e.stats.Snapshot()
		e.formSpan = e.cfg.span.Child("form")
		start := time.Now()
		err := e.formRuns(leaves)
		e.report.FormTime += time.Since(start)
		e.addLevel(0, base)
		e.endFormSpan(base)
		if err != nil {
			return err
		}
	}
	for lvl := 1; lvl < len(byLevel); lvl++ {
		// The level boundary is where a broker rebalance lands: report
		// progress, then re-read the lease's grant and carve this
		// level's buffers from it.
		e.reportProgress(lvl)
		e.levelMem = e.grantMem()
		if err := e.mergeLevel(lvl, byLevel[lvl]); err != nil {
			return err
		}
	}
	return nil
}

// endFormSpan closes the formation-phase span with the level-0 ledger
// delta as attributes.
func (e *engine) endFormSpan(base cost.Snapshot) {
	sp := e.formSpan
	e.formSpan = nil
	d := e.stats.Snapshot().Sub(base)
	sp.Set(
		obs.Attr{Key: "level", Val: 0},
		obs.Attr{Key: "runs", Val: int64(e.plan.Runs())},
		obs.Attr{Key: "reads", Val: int64(d.Reads)},
		obs.Attr{Key: "writes", Val: int64(d.Writes)},
	)
	sp.End()
}

// mergeLevel merges every node of one level, bracketed by a "merge"
// trace span that carries the level's read/write ledger delta and
// fan-in as attributes — the per-level breakdown the /stats and trace
// exports surface. The span is observational only; the ledger is still
// charged through addLevel exactly as before. Every node of the level
// reads its children from the parity-(lvl-1) spill file, so the level
// maps that file read-only and its refills copy out of the mapping; it
// unmaps once its last node has joined every reader, and credits the
// meter with the blocks of its last untimed refills.
func (e *engine) mergeLevel(lvl int, nodes []*planNode) (err error) {
	if src := e.spill[(lvl-1)%2]; src != nil {
		src.mapRead()
		defer func() {
			e.stats.settle()
			if uerr := src.unmap(); err == nil {
				err = uerr
			}
		}()
	}
	base := e.stats.Snapshot()
	sp := e.cfg.span.Child("merge")
	start := time.Now()
	defer func() {
		e.report.MergeTime += time.Since(start)
		e.addLevel(lvl, base)
		d := e.stats.Snapshot().Sub(base)
		fanIn := 0
		for _, nd := range nodes {
			if f := len(nd.kids); f > fanIn {
				fanIn = f
			}
		}
		sp.Set(
			obs.Attr{Key: "level", Val: int64(lvl)},
			obs.Attr{Key: "nodes", Val: int64(len(nodes))},
			obs.Attr{Key: "fanin", Val: int64(fanIn)},
			obs.Attr{Key: "reads", Val: int64(d.Reads)},
			obs.Attr{Key: "writes", Val: int64(d.Writes)},
		)
		if lvl == e.plan.Levels() && e.cfg.post != nil {
			sp.Set(obs.Attr{Key: "post", Val: 1})
		}
		sp.End()
	}()
	for _, nd := range nodes {
		if err := e.canceled(); err != nil {
			return err
		}
		if err := e.mergeNode(nd); err != nil {
			return err
		}
		// The children's block indexes were consumed by this merge.
		for _, kid := range nd.kids {
			kid.index = nil
		}
	}
	return nil
}

// dst returns the file a node's output lands in: the final output for
// the root, otherwise the spill file of the node's level parity. Spill
// files mirror the input's layout — every node writes its region at
// its own input offsets — so a parent at level ℓ reads all its
// children from the single parity-(ℓ-1) spill file. A same-parity
// region is only ever overwritten two levels up, by which time its
// contents (the grandchildren's runs) have been consumed. Two spill
// files bound the engine's fd count at four (input, output, spills)
// regardless of fan-in, where one-file-per-run would exhaust the fd
// limit at the canonical kM/B fan-in. It creates spill files lazily,
// so it is called only from the coordinator goroutine, never from
// formation or merge workers.
func (e *engine) dst(nd *planNode) (*BlockFile, error) {
	if nd == e.plan.root {
		return e.out, nil
	}
	parity := nd.level % 2
	if e.spill[parity] == nil {
		bf, err := createTempBlockFile(e.cfg.tmpDir,
			fmt.Sprintf("asymsort-ext-spill%d-*", parity), e.cfg.block, &e.stats)
		if err != nil {
			return nil, fmt.Errorf("extmem: cannot create spill file: %w", err)
		}
		e.spill[parity] = bf
	}
	return e.spill[parity], nil
}

func (e *engine) addLevel(level int, base cost.Snapshot) {
	e.report.LevelIO[level] = e.report.LevelIO[level].Add(e.stats.Snapshot().Sub(base))
}

// captureIndex reports whether nd's output should record its per-block
// first records: only a parallel engine consumes them, and only for
// nodes that have a parent merge to feed.
func (e *engine) captureIndex(nd *planNode) bool {
	return e.cfg.procs > 1 && nd != e.plan.root
}

// newIndex allocates nd's block index (see planNode.index).
func newIndex(nd *planNode, block int) []seq.Record {
	return make([]seq.Record, (nd.len()+block-1)/block)
}
