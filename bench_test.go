package asymsort

// One benchmark per experiment table (B1..B12 ↔ E1..E12, the tables
// `asymbench -list` names), plus micro-benchmarks of each sorting
// algorithm's simulated execution.
// Experiment benchmarks run the harness in Quick mode against io.Discard;
// allocs/op in the output makes the "GC noise" reproduction note
// checkable (hot paths allocate only at phase boundaries).

import (
	"fmt"
	"io"
	"slices"
	"testing"

	"asymsort/internal/aem"
	"asymsort/internal/aram"
	"asymsort/internal/co"
	"asymsort/internal/core/aemsample"
	"asymsort/internal/core/aemsort"
	"asymsort/internal/core/buffertree"
	"asymsort/internal/core/cosort"
	"asymsort/internal/core/pramsort"
	"asymsort/internal/core/ramsort"
	"asymsort/internal/exp"
	"asymsort/internal/icache"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
	"asymsort/internal/wd"
)

// benchExp runs one experiment per iteration at Quick sizes.
func benchExp(b *testing.B, id string) {
	e, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := exp.Config{Quick: true, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Run(io.Discard, cfg)
	}
}

func BenchmarkE1_RAMSortTable(b *testing.B)     { benchExp(b, "E1") }
func BenchmarkE2_PRAMSortTable(b *testing.B)    { benchExp(b, "E2") }
func BenchmarkE3_MergeSortBounds(b *testing.B)  { benchExp(b, "E3") }
func BenchmarkE4_KSweepFigure(b *testing.B)     { benchExp(b, "E4") }
func BenchmarkE5_SampleSortTable(b *testing.B)  { benchExp(b, "E5") }
func BenchmarkE6_BufferTreeTable(b *testing.B)  { benchExp(b, "E6") }
func BenchmarkE7_Lemma42Exact(b *testing.B)     { benchExp(b, "E7") }
func BenchmarkE8_Lemma21Policy(b *testing.B)    { benchExp(b, "E8") }
func BenchmarkE9_COSortTable(b *testing.B)      { benchExp(b, "E9") }
func BenchmarkE10_COFFTTable(b *testing.B)      { benchExp(b, "E10") }
func BenchmarkE11_MatMulTable(b *testing.B)     { benchExp(b, "E11") }
func BenchmarkE12_SchedulerBounds(b *testing.B) { benchExp(b, "E12") }
func BenchmarkE13_ParallelSpeedup(b *testing.B) { benchExp(b, "E13") }
func BenchmarkE14_Ablations(b *testing.B)       { benchExp(b, "E14") }

// --- micro-benchmarks: simulated cost per sorted record -----------------

const microN = 1 << 14

func BenchmarkRAMTreeSort(b *testing.B) {
	in := seq.Uniform(microN, 1)
	b.ReportAllocs()
	b.SetBytes(microN * 16)
	for i := 0; i < b.N; i++ {
		mem := aram.New(8)
		_ = ramsort.TreeSort(aram.FromSlice(mem, in))
	}
}

func BenchmarkRAMQuicksort(b *testing.B) {
	in := seq.Uniform(microN, 1)
	b.ReportAllocs()
	b.SetBytes(microN * 16)
	for i := 0; i < b.N; i++ {
		mem := aram.New(8)
		ramsort.Quicksort(aram.FromSlice(mem, in), 1)
	}
}

func BenchmarkPRAMSampleSort(b *testing.B) {
	in := seq.Uniform(microN, 1)
	b.ReportAllocs()
	b.SetBytes(microN * 16)
	for i := 0; i < b.N; i++ {
		c := wd.NewRoot(8)
		arr := wd.NewArray[seq.Record](microN)
		copy(arr.Unwrap(), in)
		pramsort.Sort(c, arr, pramsort.Options{Seed: 1, DeepSplit: true})
	}
}

func BenchmarkAEMMergeSort(b *testing.B) {
	in := seq.Uniform(microN, 1)
	b.ReportAllocs()
	b.SetBytes(microN * 16)
	for i := 0; i < b.N; i++ {
		ma := aem.New(256, 16, 8, 4)
		aemsort.MergeSort(ma, ma.FileFrom(in), 8)
	}
}

func BenchmarkAEMSampleSort(b *testing.B) {
	in := seq.Uniform(microN, 1)
	b.ReportAllocs()
	b.SetBytes(microN * 16)
	for i := 0; i < b.N; i++ {
		ma := aem.New(256, 16, 8, 4)
		aemsample.Sort(ma, ma.FileFrom(in), 8, 1)
	}
}

func BenchmarkAEMHeapSort(b *testing.B) {
	in := seq.Uniform(microN, 1)
	b.ReportAllocs()
	b.SetBytes(microN * 16)
	for i := 0; i < b.N; i++ {
		ma := aem.New(128, 16, 8, 128/(4*16)+8)
		buffertree.HeapSort(ma, ma.FileFrom(in), 4)
	}
}

func BenchmarkCOSort(b *testing.B) {
	in := seq.Uniform(microN, 1)
	b.ReportAllocs()
	b.SetBytes(microN * 16)
	for i := 0; i < b.N; i++ {
		cache := icache.New(16, 64, 8, icache.PolicyRWLRU)
		c := co.NewCtx(cache)
		cosort.Sort(c, co.FromSlice(c, in), cosort.Options{Seed: 1})
	}
}

func BenchmarkCOSortClassic(b *testing.B) {
	in := seq.Uniform(microN, 1)
	b.ReportAllocs()
	b.SetBytes(microN * 16)
	for i := 0; i < b.N; i++ {
		cache := icache.New(16, 64, 8, icache.PolicyRWLRU)
		c := co.NewCtx(cache)
		cosort.Sort(c, co.FromSlice(c, in), cosort.Options{Seed: 1, Classic: true})
	}
}

// --- native backend: hardware wall-clock vs the stdlib ------------------

// nativeSizes are shared by the native and stdlib benchmarks so their
// ns/op columns compare directly.
var nativeSizes = []int{1 << 16, 1 << 20}

// benchNative times one native sort at each size, all workers.
func benchNative(b *testing.B, run func(p *rt.Pool, in []seq.Record) []seq.Record) {
	for _, n := range nativeSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := seq.Uniform(n, 1)
			pool := rt.NewPool(0)
			b.ReportAllocs()
			b.SetBytes(int64(n) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(pool, in)
			}
		})
	}
}

func BenchmarkNativeMergeSort(b *testing.B) {
	benchNative(b, func(p *rt.Pool, in []seq.Record) []seq.Record {
		out := append([]seq.Record(nil), in...)
		rt.SortRecords(p, out)
		return out
	})
}

func BenchmarkNativeCOSort(b *testing.B) {
	benchNative(b, func(p *rt.Pool, in []seq.Record) []seq.Record {
		return cosort.SortNative(p, in, 8, cosort.Options{Seed: 1})
	})
}

func BenchmarkNativePRAMSort(b *testing.B) {
	benchNative(b, func(p *rt.Pool, in []seq.Record) []seq.Record {
		return pramsort.SortNative(p, in, pramsort.Options{Seed: 1, DeepSplit: true})
	})
}

// --- span operations: bulk kernels vs per-element interface calls -------

// BenchmarkSpanCopy and BenchmarkPerElementCopy measure the same copy on
// the native backend through rt.CopySpan (bulk sub-slice kernels) and
// through the per-element Get/Set loop the span ops replaced — the
// interface-dispatch overhead the tentpole removes, in isolation.
func BenchmarkSpanCopy(b *testing.B) {
	const n = 1 << 20
	c := rt.NewNative(rt.NewPool(0), 8)
	src := rt.FromSlice(c, seq.Uniform(n, 1))
	dst := rt.NewArr[seq.Record](c, n)
	b.ReportAllocs()
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.CopySpan(c, dst, src)
	}
}

func BenchmarkPerElementCopy(b *testing.B) {
	const n = 1 << 20
	c := rt.NewNative(rt.NewPool(0), 8)
	src := rt.FromSlice(c, seq.Uniform(n, 1))
	dst := rt.NewArr[seq.Record](c, n)
	b.ReportAllocs()
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ParFor(n, func(c rt.Ctx, j int) { dst.Set(c, j, src.Get(c, j)) })
	}
}

func BenchmarkSlicesSort(b *testing.B) {
	for _, n := range nativeSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := seq.Uniform(n, 1)
			b.ReportAllocs()
			b.SetBytes(int64(n) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := append([]seq.Record(nil), in...)
				slices.SortFunc(out, seq.ByKey)
			}
		})
	}
}
