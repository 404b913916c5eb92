package extmem

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"asymsort/internal/seq"
	"asymsort/internal/xrand"
)

// runSort sorts workload in through the engine on temp files, asserts
// the output equals the slices.Sort reference record-for-record and
// that every spill file was removed, and returns the report.
func runSort(t *testing.T, cfg Config, in []seq.Record) *Report {
	t.Helper()
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	outPath := filepath.Join(dir, "out.bin")
	if err := WriteRecordsFile(inPath, in); err != nil {
		t.Fatal(err)
	}
	if cfg.TmpDir == "" {
		cfg.TmpDir = filepath.Join(dir, "spill")
		if err := os.Mkdir(cfg.TmpDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Sort(cfg, inPath, outPath)
	if err != nil {
		t.Fatalf("Sort(%+v): %v", cfg, err)
	}
	got, err := ReadRecordsFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(in)
	slices.SortFunc(want, seq.TotalCompare)
	if len(got) != len(want) {
		t.Fatalf("output has %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	left, err := os.ReadDir(cfg.TmpDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill dir not cleaned: %d files remain (%v)", len(left), left[0].Name())
	}
	return rep
}

func TestSortConfigSweep(t *testing.T) {
	// The engine must sort correctly across memory budgets, block
	// sizes, read multipliers, ragged (non-block-multiple) sizes, and
	// files much larger than the budget — including runs-per-pass
	// counts that are not a power of the fan-in and final passes with
	// fewer runs than the fan-in.
	cases := []struct {
		n, mem, block, k int
	}{
		{0, 64, 16, 1},
		{1, 64, 16, 1},
		{100, 64, 16, 1},       // n > M, single merge
		{1040, 128, 16, 1},     // 65 blocks at l=8: the ragged-depth tree
		{4096, 64, 16, 1},      // deep tree, n = 64×M
		{4097, 64, 16, 1},      // + ragged tail record
		{5000, 128, 16, 2},     // multi-pass selection leaves
		{5000, 128, 16, 3},     // odd k
		{20000, 256, 32, 4},    // wider fan-in
		{12345, 256, 16, 2},    // ragged everything
		{3000, 1 << 12, 64, 1}, // whole file fits one run
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d/M=%d/B=%d/k=%d", tc.n, tc.mem, tc.block, tc.k), func(t *testing.T) {
			in := seq.Uniform(tc.n, uint64(tc.n+tc.k))
			rep := runSort(t, Config{Mem: tc.mem, Block: tc.block, K: tc.k}, in)
			plan := NewPlan(tc.n, tc.mem, tc.block, tc.k, 0)
			if rep.Runs != plan.Runs() || rep.Levels != plan.Levels() {
				t.Errorf("report runs/levels %d/%d, plan %d/%d",
					rep.Runs, rep.Levels, plan.Runs(), plan.Levels())
			}
		})
	}
}

func TestSortWorkloadShapes(t *testing.T) {
	// Sorted, reversed, duplicate-key-heavy and all-equal-key inputs
	// (payloads keep records distinct, as every generator guarantees).
	const n, mem, block = 6000, 256, 32
	shapes := map[string][]seq.Record{
		"sorted":   seq.Sorted(n),
		"reversed": seq.Reversed(n),
		"fewkeys":  seq.FewDistinct(n, 7, 5),
		"allequal": seq.FewDistinct(n, 1, 5),
	}
	for name, in := range shapes {
		t.Run(name, func(t *testing.T) {
			runSort(t, Config{Mem: mem, Block: block, K: 2}, in)
		})
	}
}

// TestSortRepeatedPairs: exact duplicate records survive multi-pass
// formation. At M = 64, B = 16, K = 4 a 250-record input is one leaf of
// four selection passes and a 3 000-record input has 16 leaves of two
// or three passes. All or half of the records are copies of one or three
// exact (Key, Val) pairs, so copies straddle the pass boundaries.
// Runs of one pair also fill whole passes, which carries the
// watermark's copy count across them.
func TestSortRepeatedPairs(t *testing.T) {
	for _, n := range []int{250, 3000} {
		for _, shape := range []struct{ pairs, every int }{{1, 1}, {3, 1}, {3, 2}} {
			in := repeatedPairs(n, shape.pairs, shape.every, uint64(n))
			for _, procs := range []int{1, 4} {
				t.Run(fmt.Sprintf("n=%d/pairs=%d/every=%d/P=%d", n, shape.pairs, shape.every, procs), func(t *testing.T) {
					rep := runSort(t, Config{Mem: 64, Block: 16, K: 4, Procs: procs}, in)
					if rep.Total.Writes != rep.PlanWrites {
						t.Fatalf("measured %d block writes, plan %d", rep.Total.Writes, rep.PlanWrites)
					}
				})
			}
		}
	}
}

// TestSortMultiChunkLeaves: leaves of three and four selection passes
// that span two formChunk read spans, at M = 4 096, B = 64 and
// n = 40 000. At the canonical fan-in kM/B that input cuts into leaves
// of three or four blocks, so the plan narrows the fan-in to ⌈n/kM⌉
// and the root's children are the widest leaves the budget allows:
// 13 376 records (four passes) at K = 4 and 10 048 (three) at K = 3.
// The inputs reach the counted cut's edges: sorted keys overflow the
// table the first span maps, reversed ones fall below it, seven keys
// or one pile into a bucket, keys next to 2⁶⁴ put the cut's edge past
// it, and exact pairs straddle the passes. The counted cut and the
// prefix sort change only in-memory work, so every pass still reads
// its leaf once: formation reads are pinned at the sum over the leaves
// of ⌈len/M⌉·⌈len/B⌉.
func TestSortMultiChunkLeaves(t *testing.T) {
	const n, mem, block = 40_000, 4096, 64
	// Half the keys spread over the 3·2¹⁸ values below 2⁶⁴ and half
	// pile onto the top three: a first span maps the pile into bucket
	// 767 of 1 024, whose edge passes 2⁶⁴, and the cut of every pass
	// before the last lands there.
	r := xrand.New(n)
	nearMax := make([]seq.Record, n)
	for i := range nearMax {
		spread := uint64(3 << 18)
		if i%2 == 0 {
			spread = 3
		}
		nearMax[i] = seq.Record{Key: math.MaxUint64 - r.Uint64n(spread), Val: uint64(i)}
	}
	inputs := []struct {
		name string
		recs []seq.Record
	}{
		{"uniform", seq.Uniform(n, 41)},
		{"sorted", seq.Sorted(n)},
		{"reversed", seq.Reversed(n)},
		{"sevenkeys", seq.FewDistinct(n, 7, 41)},
		{"allequal", seq.FewDistinct(n, 1, 41)},
		{"nearmax", nearMax},
		{"pairs", repeatedPairs(n, 3, 2, 41)},
	}
	for _, k := range []int{3, 4} {
		fanIn := (n + k*mem - 1) / (k * mem)
		plan := NewPlan(n, mem, block, k, fanIn)
		leaves, _ := plan.phases()
		var reads uint64
		for _, nd := range leaves {
			if nd.len() <= max(formChunk, 2*mem) {
				t.Fatalf("k=%d: a %d-record leaf fits one span or two passes", k, nd.len())
			}
			reads += uint64((nd.len() + mem - 1) / mem * ((nd.len() + block - 1) / block))
		}
		for _, in := range inputs {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("k=%d/%s/P=%d", k, in.name, procs), func(t *testing.T) {
					rep := runSort(t, Config{Mem: mem, Block: block, K: k, Procs: procs, FanIn: fanIn}, in.recs)
					if rep.Total.Writes != rep.PlanWrites || rep.PlanWrites != plan.TotalWrites() {
						t.Fatalf("measured %d block writes, report plan %d, plan %d",
							rep.Total.Writes, rep.PlanWrites, plan.TotalWrites())
					}
					if got := rep.LevelIO[0].Reads; got != reads {
						t.Fatalf("formation read %d blocks, %d passes over the leaves read %d", got, len(leaves), reads)
					}
				})
			}
		}
	}
}

func TestSortMeasuredWritesMatchPlan(t *testing.T) {
	// The measured per-level block-write ledger must equal the plan's
	// prediction exactly — the engine-side half of the level-for-level
	// identity with the simulated AEM ledger (the sim-side half lives in
	// internal/integration).
	for _, tc := range []struct{ n, mem, block, k int }{
		{1040, 128, 16, 1},
		{4097, 64, 16, 1},
		{5000, 128, 16, 2},
		{20000, 256, 32, 4},
	} {
		in := seq.Uniform(tc.n, 3)
		rep := runSort(t, Config{Mem: tc.mem, Block: tc.block, K: tc.k}, in)
		want := NewPlan(tc.n, tc.mem, tc.block, tc.k, 0).LevelWrites()
		if len(rep.LevelIO) != len(want) {
			t.Fatalf("n=%d: %d measured levels, plan has %d", tc.n, len(rep.LevelIO), len(want))
		}
		for lvl, w := range want {
			if rep.LevelIO[lvl].Writes != w {
				t.Errorf("n=%d k=%d level %d: measured %d block writes, plan predicts %d",
					tc.n, tc.k, lvl, rep.LevelIO[lvl].Writes, w)
			}
		}
	}
}

func TestSortFanInOverride(t *testing.T) {
	// An explicit narrow fan-in must still sort (it just deepens the
	// tree and abandons the sim identity).
	in := seq.Uniform(5000, 9)
	rep := runSort(t, Config{Mem: 256, Block: 16, K: 1, FanIn: 2}, in)
	if rep.FanIn != 2 {
		t.Fatalf("fan-in %d, want 2", rep.FanIn)
	}
	deep := NewPlan(5000, 256, 16, 1, 2)
	if rep.Levels != deep.Levels() {
		t.Fatalf("levels %d, plan %d", rep.Levels, deep.Levels())
	}
	wide := NewPlan(5000, 256, 16, 1, 0)
	if deep.Levels() <= wide.Levels() {
		t.Fatalf("binary merge tree (%d levels) should be deeper than fan-in %d (%d levels)",
			deep.Levels(), wide.FanIn, wide.Levels())
	}

	// A narrow fan-in under a large M gives each merge writer a share
	// c = M/(f+1) wider than one stage, so its buffer is carved from the
	// arena rather than the formation read chunk. Both the sequential
	// engine and the parallel merge must take that path and keep the
	// write ledger on plan.
	big := seq.Uniform(70000, 10)
	for _, procs := range []int{1, 4} {
		cfg := Config{Mem: 1 << 15, Block: 16, K: 1, FanIn: 2, Procs: procs}
		if c := cfg.Mem / (cfg.FanIn + 1); mergeWriteRecs(c, cfg.Block) <= stageRecs(cfg.Block) {
			t.Fatalf("share %d does not exceed a stage of %d records", c, stageRecs(cfg.Block))
		}
		rep := runSort(t, cfg, big)
		if rep.Levels < 2 {
			t.Fatalf("P=%d: %d merge levels, want ≥ 2", procs, rep.Levels)
		}
		if rep.Total.Writes != rep.PlanWrites {
			t.Fatalf("P=%d: %d block writes, plan %d", procs, rep.Total.Writes, rep.PlanWrites)
		}
	}
}

func TestSortConcurrentSameTmpDir(t *testing.T) {
	// Two engines sharing one spill directory must not collide on spill
	// file names (they are os.CreateTemp-unique, not pid-derived).
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			in := seq.Uniform(8000, uint64(100+i))
			inPath := filepath.Join(dir, fmt.Sprintf("in%d.bin", i))
			outPath := filepath.Join(dir, fmt.Sprintf("out%d.bin", i))
			if err := WriteRecordsFile(inPath, in); err != nil {
				errs <- err
				return
			}
			if _, err := Sort(Config{Mem: 128, Block: 16, K: 1, TmpDir: spill}, inPath, outPath); err != nil {
				errs <- err
				return
			}
			got, err := ReadRecordsFile(outPath)
			if err != nil {
				errs <- err
				return
			}
			want := slices.Clone(in)
			slices.SortFunc(want, seq.TotalCompare)
			for j := range want {
				if got[j] != want[j] {
					errs <- fmt.Errorf("engine %d: record %d diverges", i, j)
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	left, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill dir not cleaned after concurrent sorts: %d files remain", len(left))
	}
}

func TestChooseK(t *testing.T) {
	// ω below the k=3 minimum of k/log₂k (×lg(M/B)) keeps the classical
	// sort; raising ω admits ever larger k. Note the rule's first
	// admitted k is 3, not 2 — k/log₂k is minimized at 3.
	const mem, block = 4096, 64 // lg(M/B) = 6
	if k := ChooseK(1, mem, block); k != 1 {
		t.Errorf("ω=1: k=%d, want 1", k)
	}
	// Degenerate M = B: lg(M/B) = 0 makes the rule's bound undefined;
	// the classical k=1 must come back rather than the scan cap.
	if k := ChooseK(16, 64, 64); k != 1 {
		t.Errorf("M=B: k=%d, want 1", k)
	}
	// bound = 12/6 = 2: k=2 (2/1=2) fails, k=3 (1.89) qualifies, k=4 (2) fails.
	if k := ChooseK(12, mem, block); k != 3 {
		t.Errorf("ω=12: k=%d, want 3", k)
	}
	if k16 := ChooseK(16, mem, block); k16 < 4 {
		t.Errorf("ω=16: k=%d, want >= 4", k16)
	}
	prev := 0
	for _, omega := range []float64{2, 4, 8, 16, 32, 64} {
		k := ChooseK(omega, mem, block)
		if k < prev {
			t.Errorf("ChooseK not monotone in ω: ω=%v gives k=%d after %d", omega, k, prev)
		}
		prev = k
	}
}

func TestConfigValidation(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	if err := WriteRecordsFile(inPath, seq.Uniform(10, 1)); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Mem: 0, Block: 16},
		{Mem: 15, Block: 16}, // less than one block
		{Mem: 64, Block: 0},
		{Mem: 64, Block: 16, K: -1},
	} {
		if _, err := Sort(cfg, inPath, filepath.Join(dir, "out.bin")); err == nil {
			t.Errorf("Sort(%+v) accepted an invalid config", cfg)
		}
	}
}

// TestSortInSkip: handing the engine a file with a junk prefix plus
// Config.InSkip must produce the byte-identical output and the
// identical write ledger as sorting the bare payload — the zero-copy
// contiguous-frame handoff's correctness contract.
func TestSortInSkip(t *testing.T) {
	const n, mem, block, k = 5000, 128, 16, 2
	payload := seq.Uniform(n, 77)
	dir := t.TempDir()

	barePath := filepath.Join(dir, "bare.bin")
	if err := WriteRecordsFile(barePath, payload); err != nil {
		t.Fatal(err)
	}
	framed := append([]seq.Record{{Key: ^uint64(0), Val: ^uint64(0)}}, payload...)
	framedPath := filepath.Join(dir, "framed.bin")
	if err := WriteRecordsFile(framedPath, framed); err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			cfg := Config{Mem: mem, Block: block, K: k, TmpDir: dir, Procs: procs}
			bareOut := filepath.Join(dir, fmt.Sprintf("bare-out%d.bin", procs))
			bareRep, err := Sort(cfg, barePath, bareOut)
			if err != nil {
				t.Fatal(err)
			}
			cfg.InSkip = 1
			skipOut := filepath.Join(dir, fmt.Sprintf("skip-out%d.bin", procs))
			skipRep, err := Sort(cfg, framedPath, skipOut)
			if err != nil {
				t.Fatal(err)
			}
			if skipRep.N != n || bareRep.N != n {
				t.Fatalf("reports cover %d and %d records, want %d", bareRep.N, skipRep.N, n)
			}
			if skipRep.Total.Writes != bareRep.Total.Writes || skipRep.PlanWrites != bareRep.PlanWrites {
				t.Fatalf("InSkip write ledger %d (plan %d), bare %d (plan %d)",
					skipRep.Total.Writes, skipRep.PlanWrites, bareRep.Total.Writes, bareRep.PlanWrites)
			}
			want, err := ReadRecordsFile(bareOut)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadRecordsFile(skipOut)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("outputs diverge at record %d", i)
				}
			}
		})
	}

	if _, err := Sort(Config{Mem: mem, Block: block, K: k, TmpDir: dir, InSkip: -1},
		barePath, filepath.Join(dir, "neg.bin")); err == nil {
		t.Fatal("negative InSkip was accepted")
	}
	if _, err := Sort(Config{Mem: mem, Block: block, K: k, TmpDir: dir, InSkip: n + 2},
		barePath, filepath.Join(dir, "over.bin")); err == nil {
		t.Fatal("InSkip beyond the input length was accepted")
	}
}

// TestScanChargesTouchedBlocks: a scan of [lo, hi) charges exactly the
// blocks it touches, blockSpan(lo, hi−lo), when neither lo (lo = 1 is
// the InSkip = 1 contiguous-frame case) nor B lines up with the refill
// buffer — through ScanRecords and through a RecordScanner asked for a
// buffer that is not a whole number of blocks.
func TestScanChargesTouchedBlocks(t *testing.T) {
	const n = 100_000
	recs := seq.Uniform(n+1, 13)
	path := filepath.Join(t.TempDir(), "scan.bin")
	if err := WriteRecordsFile(path, recs); err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{64, 100} {
		for _, lo := range []int{0, 1} {
			hi := lo + n
			var stats IOStats
			bf, err := OpenBlockFile(path, block, &stats)
			if err != nil {
				t.Fatal(err)
			}
			want := bf.blockSpan(lo, hi-lo)
			i := lo
			err = ScanRecords(bf, lo, hi, func(r seq.Record) error {
				if r != recs[i] {
					return fmt.Errorf("record %d differs", i)
				}
				i++
				return nil
			})
			if err != nil || i != hi {
				t.Fatalf("B=%d lo=%d: ScanRecords stopped at %d of [%d,%d): %v", block, lo, i, lo, hi, err)
			}
			if got := stats.Snapshot().Reads; got != want {
				t.Fatalf("B=%d lo=%d: ScanRecords charged %d reads for %d blocks touched", block, lo, got, want)
			}
			base := stats.Snapshot().Reads
			sc := NewRecordScanner(bf, lo, hi, 1000)
			for i = lo; ; i++ {
				r, ok, err := sc.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if r != recs[i] {
					t.Fatalf("B=%d lo=%d: RecordScanner record %d differs", block, lo, i)
				}
			}
			if i != hi {
				t.Fatalf("B=%d lo=%d: RecordScanner stopped at %d of [%d,%d)", block, lo, i, lo, hi)
			}
			if got := stats.Snapshot().Reads - base; got != want {
				t.Fatalf("B=%d lo=%d: RecordScanner charged %d reads for %d blocks touched", block, lo, got, want)
			}
			bf.Close()
		}
	}
}

// BenchmarkFormation sorts a seeded file at M = 4096, B = 64 and
// reports run formation's throughput: input MB (10⁶ bytes) over
// Report.FormTime. The k=… rows sort 2²⁰ records (16 MiB) for
// K ∈ {1, 4} × P ∈ {1, 2}. At K = 1 the plan cuts 4 096 leaves of
// 256 records, and at K = 4 the root's kM/B = 256-way partition cuts
// 256 leaves of exactly M records, so every leaf is one
// read-sort-write pass. The n=4M rows sort 2²² records (64 MiB) at
// K = 4, where each of the 256 leaves holds kM = 16 384 records and
// takes four selection passes.
func BenchmarkFormation(b *testing.B) {
	const mem, block = 4096, 64
	dir := b.TempDir()
	inputs := map[int]string{}
	rows := []struct {
		name string
		n, k int
	}{{"", 1 << 20, 1}, {"", 1 << 20, 4}, {"n=4M/", 1 << 22, 4}}
	for _, row := range rows {
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%sk=%d/procs=%d", row.name, row.k, procs), func(b *testing.B) {
				inPath, ok := inputs[row.n]
				if !ok {
					inPath = filepath.Join(dir, fmt.Sprintf("in%d.bin", row.n))
					if err := WriteRecordsFile(inPath, seq.Uniform(row.n, 20)); err != nil {
						b.Fatal(err)
					}
					inputs[row.n] = inPath
				}
				var form time.Duration
				sorts := 0
				for b.Loop() {
					rep, err := Sort(Config{Mem: mem, Block: block, K: row.k, Procs: procs, TmpDir: dir},
						inPath, filepath.Join(dir, "out.bin"))
					if err != nil {
						b.Fatal(err)
					}
					form += rep.FormTime
					sorts++
				}
				b.ReportMetric(float64(sorts*row.n*RecordBytes)/1e6/form.Seconds(), "form_MB/s")
			})
		}
	}
}

// keyFold folds the sorted stream into one record per key, summing the
// payloads: the shape of the semisort kernel's reduce.
type keyFold struct {
	cur  seq.Record
	have bool
}

func (s *keyFold) Push(r seq.Record, emit func(seq.Record) error) error {
	if s.have && s.cur.Key == r.Key {
		s.cur.Val += r.Val
		return nil
	}
	if s.have {
		if err := emit(s.cur); err != nil {
			return err
		}
	}
	s.cur, s.have = r, true
	return nil
}

func (s *keyFold) Flush(emit func(seq.Record) error) error {
	if !s.have {
		return nil
	}
	s.have = false
	return emit(s.cur)
}

func TestStreamedRootAllocs(t *testing.T) {
	// A streamed root folds every record through the post hook. Its
	// allocations must not grow with n: at n and 4n the plan keeps its
	// shape (one merge of 32 leaves at M = 512, B = 16, or a single
	// leaf at M = 65 536), so any growth is per-record work.
	for _, tc := range []struct {
		name   string
		mem    int
		levels int
	}{{"merged-root", 512, 1}, {"single-leaf", 1 << 16, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			in, out := filepath.Join(dir, "in.bin"), filepath.Join(dir, "out.bin")
			allocs := func(n int) (float64, *Report) {
				r := xrand.New(uint64(n))
				recs := make([]seq.Record, n)
				for i := range recs {
					recs[i] = seq.Record{Key: r.Uint64n(64), Val: uint64(i)}
				}
				if err := WriteRecordsFile(in, recs); err != nil {
					t.Fatal(err)
				}
				cfg := Config{Mem: tc.mem, Block: 16, K: 1, Procs: 1, TmpDir: dir, Post: &keyFold{}}
				var rep *Report
				a := testing.AllocsPerRun(2, func() {
					var err error
					if rep, err = Sort(cfg, in, out); err != nil {
						t.Fatal(err)
					}
				})
				return a, rep
			}
			small, rs := allocs(2048)
			big, rb := allocs(8192)
			if rs.Levels != tc.levels || rb.Levels != tc.levels || rs.Runs != rb.Runs {
				t.Fatalf("plans: %d levels, %d runs at n; %d levels, %d runs at 4n; want %d levels both",
					rs.Levels, rs.Runs, rb.Levels, rb.Runs, tc.levels)
			}
			if big > small+8 {
				t.Fatalf("a streamed Sort of 2048 records allocates %.0f times, of 8192 records %.0f", small, big)
			}
		})
	}
}
