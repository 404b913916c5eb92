package exp

import (
	"io"
	"math"

	"asymsort/internal/aem"
	"asymsort/internal/core/aemsort"
	"asymsort/internal/core/pramsort"
	"asymsort/internal/seq"
	"asymsort/internal/wd"
)

// E14Ablations measures the design choices the paper presents as optional
// or remarks on in passing, each against its alternative:
//
//   - Algorithm 1's step 6 (Lemma 3.1 deep splitting): claimed to reduce
//     depth from O(ω log² n)-ish to O(ω log n);
//   - the Cole-oracle vs the real O(ω log² n)-depth sample mergesort
//     (the prim.OracleColeSort substitution, quantified);
//   - Algorithm 2 with run pointers in primary vs secondary memory (the
//     paper's remark after Lemma 4.1: external pointers ≈ double writes).
func E14Ablations(w io.Writer, cfg Config) {
	section(w, cfg, "E14", "Ablations of optional design choices",
		"step 6 cuts PRAM depth; Cole oracle vs real sample sort; external pointers ≈ 2x writes")
	n := 1 << 16
	if cfg.Quick {
		n = 1 << 14
	}
	const omega = 16

	// PRAM sort variants.
	tb := newTable("pramsort variant", "reads/(n lg n)", "writes/n", "depth/(ω lg n)")
	variants := []struct {
		name string
		opt  pramsort.Options
	}{
		{"step6 on, Cole oracle (paper)", pramsort.Options{Seed: cfg.Seed, DeepSplit: true}},
		{"step6 off, Cole oracle", pramsort.Options{Seed: cfg.Seed}},
		{"step6 on, real mergesort", pramsort.Options{Seed: cfg.Seed, DeepSplit: true, RealSampleSort: true}},
		{"step6 off, real mergesort", pramsort.Options{Seed: cfg.Seed, RealSampleSort: true}},
	}
	in := seq.Uniform(n, cfg.Seed)
	lg := math.Log2(float64(n))
	var depths []float64
	for _, v := range variants {
		c := wd.NewRoot(omega)
		arr := wd.NewArray[seq.Record](n)
		copy(arr.Unwrap(), in)
		out := pramsort.Sort(c, arr, v.opt)
		if !seq.IsSorted(out.Unwrap()) {
			panic("E14: sort failed")
		}
		work := c.Work()
		d := float64(c.Depth()) / (omega * lg)
		depths = append(depths, d)
		tb.add(v.name, float64(work.Reads)/(float64(n)*lg), float64(work.Writes)/float64(n), d)
	}
	tb.write(w, cfg)
	verdict(w, cfg, depths[0] < depths[3],
		"the paper's configuration (step 6 + oracle) is the shallowest: %.1f vs %.1f ω·lg n units",
		depths[0], depths[3])

	// Mergesort pointer placement.
	const m, b = 256, 16
	tb2 := newTable("pointer placement", "reads", "writes", "W vs internal")
	var wInternal uint64
	ok := true
	for _, ext := range []bool{false, true} {
		ma := aem.New(m, b, omega, 4)
		f := ma.FileFrom(seq.Uniform(n, cfg.Seed+1))
		base := ma.Stats()
		aemsort.MergeSortOpt(ma, f, 8, aemsort.Options{ExternalPointers: ext})
		d := ma.Stats().Sub(base)
		name := "primary memory (Lemma 4.1)"
		ratio := 1.0
		if ext {
			name = "secondary memory (paper's remark)"
			ratio = float64(d.Writes) / float64(wInternal)
			if ratio > 2.0 {
				ok = false
			}
		} else {
			wInternal = d.Writes
		}
		tb2.add(name, d.Reads, d.Writes, ratio)
	}
	tb2.write(w, cfg)
	verdict(w, cfg, ok, "external pointers stay within the predicted ≤2x writes")
}
