package exp

import (
	"fmt"
	"io"
	"math"

	"asymsort/internal/aram"
	"asymsort/internal/core/pramsort"
	"asymsort/internal/core/ramsort"
	"asymsort/internal/seq"
	"asymsort/internal/wd"
)

// E1RAMSort validates §3's RAM-sort claim: tree-insertion sorting does
// O(n log n) reads and O(n) writes, so for ω ≳ lg n its asymmetric cost
// beats the classical write-heavy sorts. The table reports per-element
// reads/writes for each algorithm across n, and the ω at which TreeSort's
// total cost overtakes quicksort's for the largest n.
func E1RAMSort(w io.Writer, cfg Config) {
	section(w, cfg, "E1", "Asymmetric RAM sorting",
		"TreeSort: O(n log n) reads, O(n) writes; baselines write Θ(n log n) (or selection: Θ(n²) reads)")
	ns := sizes(cfg, []int{1 << 10, 1 << 12}, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16})

	type algo struct {
		name string
		run  func(mem *aram.Memory, in []seq.Record)
	}
	algos := []algo{
		{"treesort", func(mem *aram.Memory, in []seq.Record) {
			_ = ramsort.TreeSort(aram.FromSlice(mem, in))
		}},
		{"quicksort", func(mem *aram.Memory, in []seq.Record) {
			ramsort.Quicksort(aram.FromSlice(mem, in), cfg.Seed)
		}},
		{"mergesort", func(mem *aram.Memory, in []seq.Record) {
			ramsort.Mergesort(aram.FromSlice(mem, in))
		}},
		{"heapsort", func(mem *aram.Memory, in []seq.Record) {
			ramsort.Heapsort(aram.FromSlice(mem, in))
		}},
	}

	tb := newTable("algorithm", "n", "reads/n", "reads/(n lg n)", "writes/n", "writes/(n lg n)")
	var treeWritesPerN []float64
	for _, a := range algos {
		for _, n := range ns {
			in := seq.Uniform(n, cfg.Seed+uint64(n))
			mem := aram.New(1)
			base := mem.Stats()
			a.run(mem, in)
			d := mem.Stats().Sub(base)
			lg := math.Log2(float64(n))
			tb.add(a.name, n,
				float64(d.Reads)/float64(n), float64(d.Reads)/(float64(n)*lg),
				float64(d.Writes)/float64(n), float64(d.Writes)/(float64(n)*lg))
			if a.name == "treesort" {
				treeWritesPerN = append(treeWritesPerN, float64(d.Writes)/float64(n))
			}
		}
	}
	tb.write(w, cfg)
	growth := geoMeanGrowth(treeWritesPerN)
	verdict(w, cfg, growth < 1.5,
		"treesort writes/n grew %.2fx across the sweep (O(n) ⇒ ~1.0)", growth)

	// Crossover: smallest ω where TreeSort's cost beats quicksort's.
	n := ns[len(ns)-1]
	in := seq.Uniform(n, cfg.Seed)
	memT := aram.New(1)
	baseT := memT.Stats()
	_ = ramsort.TreeSort(aram.FromSlice(memT, in))
	dT := memT.Stats().Sub(baseT)
	memQ := aram.New(1)
	baseQ := memQ.Stats()
	ramsort.Quicksort(aram.FromSlice(memQ, in), cfg.Seed)
	dQ := memQ.Stats().Sub(baseQ)
	cross := -1
	for omega := uint64(1); omega <= 4096; omega *= 2 {
		if dT.Cost(omega) < dQ.Cost(omega) {
			cross = int(omega)
			break
		}
	}
	fmt.Fprintf(w, "crossover: treesort beats quicksort from ω = %d at n = %d (lg n = %.1f)\n",
		cross, n, math.Log2(float64(n)))
}

// E2PRAMSort validates Theorem 3.2: Algorithm 1 sorts with O(n log n)
// reads, O(n) writes, and O(ω log n) depth w.h.p. (with step 6 enabled
// and the Cole-oracle sample sort; see prim.OracleColeSort).
func E2PRAMSort(w io.Writer, cfg Config) {
	section(w, cfg, "E2", "Asymmetric PRAM sample sort (Algorithm 1)",
		"O(n log n) reads, O(n) writes, O(ω log n) depth w.h.p.")
	ns := sizes(cfg, []int{1 << 12, 1 << 14}, []int{1 << 12, 1 << 14, 1 << 16, 1 << 18})
	omegas := []uint64{2, 8, 32}

	tb := newTable("ω", "n", "reads/(n lg n)", "writes/n", "depth/(ω lg n)", "Brent T(n,p=64)")
	var depthUnits []float64
	var writeUnits []float64
	for _, omega := range omegas {
		for _, n := range ns {
			in := seq.Uniform(n, cfg.Seed+uint64(n))
			c := wd.NewRoot(omega)
			arr := wd.NewArray[seq.Record](n)
			copy(arr.Unwrap(), in)
			out := pramsort.Sort(c, arr, pramsort.Options{Seed: cfg.Seed, DeepSplit: true})
			if !seq.IsSorted(out.Unwrap()) {
				panic("E2: sort failed")
			}
			lg := math.Log2(float64(n))
			work := c.Work()
			du := float64(c.Depth()) / (float64(omega) * lg)
			tb.add(omega, n,
				float64(work.Reads)/(float64(n)*lg),
				float64(work.Writes)/float64(n),
				du, c.BrentTime(64))
			if omega == omegas[len(omegas)-1] {
				depthUnits = append(depthUnits, du)
				writeUnits = append(writeUnits, float64(work.Writes)/float64(n))
			}
		}
	}
	tb.write(w, cfg)
	verdict(w, cfg, geoMeanGrowth(depthUnits) < 2,
		"depth/(ω lg n) grew %.2fx across the sweep (O(ω log n) ⇒ ~1.0)", geoMeanGrowth(depthUnits))
	verdict(w, cfg, geoMeanGrowth(writeUnits) < 1.5,
		"writes/n grew %.2fx across the sweep (O(n) ⇒ ~1.0)", geoMeanGrowth(writeUnits))
}
