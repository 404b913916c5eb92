package integration

import (
	"fmt"
	"path/filepath"
	"testing"

	"asymsort/internal/aem"
	"asymsort/internal/core/aemsort"
	"asymsort/internal/extmem"
	"asymsort/internal/seq"
)

// TestExtmemWritesMatchAEMSim is the acceptance gate of the extmem
// engine: for the same (n, M, B, k) configuration — at every worker
// count P — the real engine's measured block-write ledger must equal
// the simulated AEM machine's: in total against the aemsort ledger,
// and level-for-level against the shared merge-tree plan (which
// internal/extmem's own tests pin to the engine's measured per-level
// ledger). Both implementations execute the identical Algorithm 2
// partition tree and write each node's output once through
// block-aligned buffers — the parallel engine's workers write only
// whole private blocks and its boundary fragments are stitched once —
// so any divergence is a bookkeeping bug on one of the sides.
func TestExtmemWritesMatchAEMSim(t *testing.T) {
	const omega = 8
	cases := []struct {
		name             string
		n, mem, block, k int
		pairs            int // > 0: the input repeats this many exact (Key, Val) pairs
	}{
		{"single-run", 100, 256, 16, 1, 0},
		{"one-merge", 2048, 256, 16, 1, 0},
		{"ragged-depth-tree", 1040, 128, 16, 1, 0}, // 65 blocks at l=8: children of unequal depth
		{"deep-classic", 8192, 64, 16, 1, 0},
		{"k2", 5000, 128, 16, 2, 0},
		{"k2-exact-dups", 5000, 128, 16, 2, 10}, // copies straddle selection-pass boundaries
		{"k3-ragged", 12345, 256, 16, 3, 0},
		{"k4-wide", 50000, 512, 64, 4, 0},
		{"tail-record", 4097, 64, 16, 1, 0},
	}
	for _, tc := range cases {
		in := seq.Uniform(tc.n, uint64(tc.n))
		if tc.pairs > 0 {
			in = seq.FewDistinct(tc.n, tc.pairs, uint64(tc.n))
			for i := range in {
				in[i].Val = 7
			}
		}

		// Simulated side: AEM-MERGESORT on the metered machine,
		// ledger delta taken after materializing the input (as every
		// experiment table does).
		ma := aem.New(tc.mem, tc.block, omega, 4)
		f := ma.FileFrom(in)
		base := ma.Stats()
		simOut := aemsort.MergeSort(ma, f, tc.k)
		sim := ma.Stats().Sub(base)

		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				// Real side: the extmem engine on actual files.
				dir := t.TempDir()
				inPath := filepath.Join(dir, "in.bin")
				outPath := filepath.Join(dir, "out.bin")
				if err := extmem.WriteRecordsFile(inPath, in); err != nil {
					t.Fatal(err)
				}
				rep, err := extmem.Sort(extmem.Config{
					Mem: tc.mem, Block: tc.block, K: tc.k, TmpDir: dir, Procs: procs,
				}, inPath, outPath)
				if err != nil {
					t.Fatal(err)
				}

				if rep.Total.Writes != sim.Writes {
					t.Errorf("block writes: engine measured %d, simulated AEM ledger %d",
						rep.Total.Writes, sim.Writes)
				}

				// Level-for-level: the engine's measured per-level writes
				// against the shared plan's prediction.
				plan := extmem.NewPlan(tc.n, tc.mem, tc.block, tc.k, 0)
				want := plan.LevelWrites()
				if len(rep.LevelIO) != len(want) {
					t.Fatalf("engine reports %d levels, plan %d", len(rep.LevelIO), len(want))
				}
				var planTotal uint64
				for lvl, w := range want {
					planTotal += w
					if rep.LevelIO[lvl].Writes != w {
						t.Errorf("level %d: engine wrote %d blocks, plan predicts %d",
							lvl, rep.LevelIO[lvl].Writes, w)
					}
				}
				if planTotal != sim.Writes {
					t.Errorf("plan total %d != simulated ledger %d", planTotal, sim.Writes)
				}

				// Theorem 4.3 upper bound holds for the measured engine too.
				if bound := aemsort.TheoreticalWrites(tc.n, tc.mem, tc.block, tc.k); tc.n > 0 && rep.Total.Writes > bound {
					t.Errorf("measured writes %d exceed the Theorem 4.3 bound %d", rep.Total.Writes, bound)
				}

				// And both sides sorted identically (the shared total order
				// makes outputs byte-comparable across worlds).
				got, err := extmem.ReadRecordsFile(outPath)
				if err != nil {
					t.Fatal(err)
				}
				want2 := simOut.Unwrap()
				if len(got) != len(want2) {
					t.Fatalf("engine output %d records, sim %d", len(got), len(want2))
				}
				for i := range want2 {
					if got[i] != want2[i] {
						t.Fatalf("outputs diverge at record %d: engine %+v, sim %+v", i, got[i], want2[i])
					}
				}
			})
		}
	}
}

// TestExtmemReadsRealizeTradeoff checks the direction of the §4 trade:
// raising k must not increase the engine's write count, and must not
// decrease its read count, on a workload deep enough to have multiple
// merge levels at k=1. Procs is pinned to 1: the k-for-reads trade is
// a property of the sequential ledger, and the parallel engine's
// splitter-probe reads (which shrink as higher k collapses merge
// levels) would blur the monotone shape without changing the writes.
func TestExtmemReadsRealizeTradeoff(t *testing.T) {
	const n, mem, block = 32768, 128, 16
	in := seq.Uniform(n, 11)
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	if err := extmem.WriteRecordsFile(inPath, in); err != nil {
		t.Fatal(err)
	}
	var prevWrites, prevReads uint64
	for i, k := range []int{1, 2, 4} {
		rep, err := extmem.Sort(extmem.Config{Mem: mem, Block: block, K: k, TmpDir: dir, Procs: 1},
			inPath, filepath.Join(dir, "out.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if rep.Total.Writes > prevWrites {
				t.Errorf("k=%d: writes rose from %d to %d", k, prevWrites, rep.Total.Writes)
			}
			if rep.Total.Reads < prevReads {
				t.Errorf("k=%d: reads fell from %d to %d (no trade happened)", k, prevReads, rep.Total.Reads)
			}
		}
		prevWrites, prevReads = rep.Total.Writes, rep.Total.Reads
	}
}
