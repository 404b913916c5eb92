// External sorting on NVM-like storage: the Section 4 story.
//
// A database sorting a file on a write-asymmetric device (e.g. a PCM SSD
// where a 4KB write costs ~19× a read, §2) can trade extra read passes
// for fewer write passes by widening the merge fan-in from M/B to kM/B.
// This example sorts one workload at every k twice — on the simulated
// AEM cost ledger and on the real disk-backed internal/extmem engine —
// and prints both trade-off tables side by side: simulated cost next to
// the engine's measured block IO and wall-clock. The write columns
// agree exactly (the engine executes the same Algorithm 2 merge tree
// the simulator meters), and both measured best k's are compared
// against the Appendix A prediction k/log k < ω/log(M/B).
//
// The sweep runs the one-worker sequential engine; a coda then re-runs
// the best k on the GOMAXPROCS-wide parallel engine — run formation on
// P private workers, splitter-partitioned merge — and shows the
// wall-clock dropping while the write ledger stays bit-identical.
//
// Run: go run ./examples/extsort
package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"asymsort/internal/aem"
	"asymsort/internal/core/aemsort"
	"asymsort/internal/extmem"
	"asymsort/internal/seq"
)

func main() {
	const (
		n     = 1 << 18 // records in the file
		m     = 256     // primary memory, in records
		b     = 16      // block size, in records
		omega = 16      // block-write cost multiplier
	)
	input := seq.Uniform(n, 7)

	dir, err := os.MkdirTemp("", "extsort-example-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	inPath := filepath.Join(dir, "in.bin")
	if err := extmem.WriteRecordsFile(inPath, input); err != nil {
		panic(err)
	}

	fmt.Printf("external sort: n=%d records, M=%d, B=%d, ω=%d\n", n, m, b, omega)
	fmt.Printf("classic EM mergesort is k=1; AEM-MERGESORT widens fan-in to kM/B\n")
	fmt.Printf("left: simulated AEM ledger · right: measured internal/extmem engine on real files\n\n")
	fmt.Printf("%4s %10s %10s %8s %12s %8s │ %10s %10s %12s %8s %9s\n",
		"k", "reads", "writes", "levels", "cost=R+ωW", "vs k=1",
		"m.reads", "m.writes", "m.cost", "vs k=1", "wall")

	var simBase, measBase float64
	simBestK, simBest := 1, math.Inf(1)
	measBestK, measBest := 1, math.Inf(1)
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		// Simulated: the metered AEM machine.
		ma := aem.New(m, b, omega, 4)
		f := ma.FileFrom(input)
		start := ma.Stats()
		out := aemsort.MergeSort(ma, f, k)
		d := ma.Stats().Sub(start)
		if !seq.IsSorted(out.Unwrap()) {
			panic("simulated sort failed")
		}
		simCost := float64(d.Cost(omega))
		if k == 1 {
			simBase = simCost
		}
		if simCost < simBest {
			simBestK, simBest = k, simCost
		}
		levels := aemsort.LogBase(k*m/b, (n+b-1)/b)

		// Measured: the extmem engine on the same (n, M, B, k), on the
		// sequential one-worker baseline.
		outPath := filepath.Join(dir, "out.bin")
		t0 := time.Now()
		rep, err := extmem.Sort(extmem.Config{
			Mem: m, Block: b, K: k, Omega: omega, TmpDir: dir, Procs: 1,
		}, inPath, outPath)
		if err != nil {
			panic(err)
		}
		wall := time.Since(t0)
		sorted, err := extmem.ReadRecordsFile(outPath)
		if err != nil || !seq.IsSorted(sorted) || len(sorted) != n {
			panic("measured sort failed")
		}
		measCost := rep.Cost()
		if k == 1 {
			measBase = measCost
		}
		if measCost < measBest {
			measBestK, measBest = k, measCost
		}
		if rep.Total.Writes != d.Writes {
			panic(fmt.Sprintf("k=%d: measured %d block writes, simulated %d — the level-for-level identity broke",
				k, rep.Total.Writes, d.Writes))
		}

		fmt.Printf("%4d %10d %10d %8d %12d %7.3fx │ %10d %10d %12.0f %7.3fx %8.1fms\n",
			k, d.Reads, d.Writes, levels, d.Cost(omega), simCost/simBase,
			rep.Total.Reads, rep.Total.Writes, measCost, measCost/measBase,
			wall.Seconds()*1e3)
	}

	// Appendix A: improvement predicted while k/log k < ω/log(M/B).
	bound := float64(omega) / math.Log2(float64(m)/float64(b))
	fmt.Printf("\nAppendix A: improvement while k/lg k < ω/lg(M/B) = %.2f (rule picks k=%d)\n",
		bound, extmem.ChooseK(omega, m, b))
	fmt.Printf("simulated best k = %d (cost %.0f, %.1f%% saved vs k=1)\n",
		simBestK, simBest, 100*(1-simBest/simBase))
	fmt.Printf("measured  best k = %d (device cost %.0f, %.1f%% saved vs k=1)\n",
		measBestK, measBest, 100*(1-measBest/measBase))
	fmt.Printf("the write columns agree exactly: the engine executes the simulator's merge tree\n")

	// Coda: the same sort at the best k on the parallel engine. P
	// formation workers each read, select, sort and write their own
	// leaves, the merge fans out over worker-private key ranges, and
	// the IO layer writes behind — the ledger must not
	// move by a single block.
	procs := runtime.GOMAXPROCS(0)
	outPath := filepath.Join(dir, "out.bin")
	timed := func(p int) (*extmem.Report, time.Duration) {
		t0 := time.Now()
		rep, err := extmem.Sort(extmem.Config{
			Mem: m, Block: b, K: measBestK, Omega: omega, TmpDir: dir, Procs: p,
		}, inPath, outPath)
		if err != nil {
			panic(err)
		}
		return rep, time.Since(t0)
	}
	seqRep, seqWall := timed(1)
	parRep, parWall := timed(procs)
	if parRep.Total.Writes != seqRep.Total.Writes {
		panic("parallel engine moved the write ledger")
	}
	fmt.Printf("\nparallel engine at k=%d: P=1 %.1fms → P=%d %.1fms (%.2fx), block writes %d = %d\n",
		measBestK, seqWall.Seconds()*1e3, procs, parWall.Seconds()*1e3,
		seqWall.Seconds()/parWall.Seconds(), seqRep.Total.Writes, parRep.Total.Writes)
}
