package rt

import (
	"slices"
	"testing"

	"asymsort/internal/co"
	"asymsort/internal/icache"
	"asymsort/internal/seq"
	"asymsort/internal/wd"
)

// The span operations promise charge-for-charge equivalence with the
// per-element loops they replace: on the metered backends, same
// accesses, same order, same fork-join shape. These tests run each span
// op and its hand-written per-element equivalent side by side on both
// sim backends and compare every meter (cache stats, work, depth).

// spanProgram runs every span operation once over shared arrays.
func spanProgram(c Ctx, in []seq.Record) {
	a := FromSlice(c, in)
	b := NewArr[seq.Record](c, a.Len())
	ks := NewArr[uint64](c, a.Len())

	CopySpan(c, b, a)
	FillSpan(c, ks, 7)
	MapSpan(c, ks, a, func(r seq.Record) uint64 { return r.Key % 97 })
	ForSpan(c, ks, 0, ks.Len(),
		func(span []uint64, base int) {
			for k := range span {
				span[k] += uint64(base + k)
			}
		},
		func(c Ctx, i int) { ks.Set(c, i, ks.Get(c, i)+uint64(i)) })
	CopySpanSeq(c, a.Slice(0, 16), b.Slice(16, 32))
	buf := make([]seq.Record, 24)
	a.ReadSpan(c, 8, buf)
	b.WriteSpan(c, 40, buf)
}

// perElementProgram is spanProgram with every span op written out as
// the per-element loop it documents.
func perElementProgram(c Ctx, in []seq.Record) {
	a := FromSlice(c, in)
	b := NewArr[seq.Record](c, a.Len())
	ks := NewArr[uint64](c, a.Len())

	c.ParFor(b.Len(), func(c Ctx, i int) { b.Set(c, i, a.Get(c, i)) })
	c.ParFor(ks.Len(), func(c Ctx, i int) { ks.Set(c, i, 7) })
	c.ParFor(ks.Len(), func(c Ctx, i int) { ks.Set(c, i, a.Get(c, i).Key%97) })
	c.ParFor(ks.Len(), func(c Ctx, i int) { ks.Set(c, i, ks.Get(c, i)+uint64(i)) })
	av, bv := a.Slice(0, 16), b.Slice(16, 32)
	for i := 0; i < av.Len(); i++ {
		av.Set(c, i, bv.Get(c, i))
	}
	buf := make([]seq.Record, 24)
	for k := range buf {
		buf[k] = a.Get(c, 8+k)
	}
	for k := range buf {
		b.Set(c, 40+k, buf[k])
	}
}

func TestSpanOpsChargeLikePerElementLoopsSimCO(t *testing.T) {
	in := seq.Uniform(300, 11)
	mk := func() (*icache.Sim, *co.Ctx) {
		cache := icache.New(16, 64, 8, icache.PolicyRWLRU)
		return cache, co.NewCtx(cache)
	}
	cache1, c1 := mk()
	spanProgram(NewSimCO(c1), in)
	cache1.Flush()
	cache2, c2 := mk()
	perElementProgram(NewSimCO(c2), in)
	cache2.Flush()

	if cache1.Stats() != cache2.Stats() {
		t.Errorf("cache stats diverge: span %+v, per-element %+v", cache1.Stats(), cache2.Stats())
	}
	if c1.WD.Work() != c2.WD.Work() || c1.WD.Depth() != c2.WD.Depth() {
		t.Errorf("work-depth diverges: span %+v/%d, per-element %+v/%d",
			c1.WD.Work(), c1.WD.Depth(), c2.WD.Work(), c2.WD.Depth())
	}
}

func TestSpanOpsChargeLikePerElementLoopsSimWD(t *testing.T) {
	in := seq.Uniform(300, 11)
	t1 := wd.NewRoot(8)
	spanProgram(NewSimWD(t1), in)
	t2 := wd.NewRoot(8)
	perElementProgram(NewSimWD(t2), in)

	if t1.Work() != t2.Work() || t1.Depth() != t2.Depth() {
		t.Errorf("work-depth diverges: span %+v/%d, per-element %+v/%d",
			t1.Work(), t1.Depth(), t2.Work(), t2.Depth())
	}
}

// TestSpanOpsNativeCorrect runs the native kernels across sizes that
// straddle the grain (so single-chunk, multi-chunk, and remainder
// paths all execute) and checks results element by element.
func TestSpanOpsNativeCorrect(t *testing.T) {
	for _, procs := range []int{1, 4} {
		pool := NewPool(procs)
		c := NewNative(pool, 8)
		for _, n := range []int{0, 1, 100, 511, 512, 513, 5000} {
			in := seq.Uniform(n, uint64(n)+1)
			a := FromSlice(c, in)
			b := NewArr[seq.Record](c, n)
			CopySpan(c, b, a)
			if !slices.Equal(b.Unwrap(), in) {
				t.Fatalf("procs=%d n=%d: CopySpan wrong", procs, n)
			}
			ks := NewArr[uint64](c, n)
			FillSpan(c, ks, 3)
			MapSpan(c, ks, a, func(r seq.Record) uint64 { return r.Key })
			ForSpan(c, ks, 0, n,
				func(span []uint64, base int) {
					for k := range span {
						span[k] += uint64(base + k)
					}
				},
				nil)
			for i, v := range ks.Unwrap() {
				if v != in[i].Key+uint64(i) {
					t.Fatalf("procs=%d n=%d: Map/ForSpan wrong at %d", procs, n, i)
				}
			}
			if n >= 100 {
				CopySpanSeq(c, b.Slice(0, 50), a.Slice(50, 100))
				if !slices.Equal(b.Unwrap()[:50], in[50:100]) {
					t.Fatalf("procs=%d n=%d: CopySpanSeq wrong", procs, n)
				}
				buf := make([]seq.Record, 30)
				a.ReadSpan(c, 10, buf)
				if !slices.Equal(buf, in[10:40]) {
					t.Fatalf("procs=%d n=%d: ReadSpan wrong", procs, n)
				}
				b.WriteSpan(c, 60, buf)
				if !slices.Equal(b.Unwrap()[60:90], in[10:40]) {
					t.Fatalf("procs=%d n=%d: WriteSpan wrong", procs, n)
				}
			}
		}
	}
}

// TestSliceCapsCapacity is the regression test for the view-escape bug:
// Slice(lo, hi) must clip capacity to hi on every backend, so Unwrap on
// a view cannot reach storage past the view's end.
func TestSliceCapsCapacity(t *testing.T) {
	nat := NewNative(NewPool(1), 1)
	cache := icache.New(16, 64, 8, icache.PolicyRWLRU)
	sim := NewSimCO(co.NewCtx(cache))
	pram := NewSimWD(wd.NewRoot(8))
	for name, c := range map[string]Ctx{"native": nat, "simco": sim, "simwd": pram} {
		a := NewArr[seq.Record](c, 10)
		v := a.Slice(2, 5).Unwrap()
		if len(v) != 3 {
			t.Errorf("%s: view length = %d, want 3", name, len(v))
		}
		if cap(v) != 3 {
			t.Errorf("%s: view capacity = %d, want 3 (Unwrap escapes past the view)", name, cap(v))
		}
	}
}
