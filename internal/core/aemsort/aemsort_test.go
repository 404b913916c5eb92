package aemsort

import (
	"testing"
	"testing/quick"

	"asymsort/internal/aem"
	"asymsort/internal/seq"
)

// newMachine builds a machine with the slack Algorithm 2 needs (load +
// store blocks; the Q reservation is inside M).
func newMachine(m, b int, omega uint64) *aem.Machine {
	return aem.New(m, b, omega, 4)
}

func TestSelectionSortCorrectness(t *testing.T) {
	ma := newMachine(64, 8, 4)
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 200, 512} {
		in := seq.Uniform(n, uint64(n)+1)
		src := ma.FileFrom(in)
		dst := ma.NewFile(n)
		SelectionSortFile(ma, src, dst)
		if !seq.IsSorted(dst.Unwrap()) || !seq.IsPermutation(dst.Unwrap(), in) {
			t.Fatalf("n=%d: bad selection sort", n)
		}
	}
}

func TestSelectionSortDuplicates(t *testing.T) {
	// 192 records of 10 exact (Key, Val) pairs take three passes at
	// M = 64, so copies of one pair straddle the pass boundaries.
	exact := seq.FewDistinct(192, 10, 9)
	for i := range exact {
		exact[i].Val = 7
	}
	for _, tc := range []struct {
		name string
		m, b int
		in   []seq.Record
	}{
		{"repeated-keys", 32, 4, seq.FewDistinct(200, 3, 5)},
		{"exact-pairs", 64, 8, exact},
	} {
		ma := newMachine(tc.m, tc.b, 2)
		src := ma.FileFrom(tc.in)
		dst := ma.NewFile(len(tc.in))
		base := ma.Stats()
		SelectionSortFile(ma, src, dst)
		if !seq.IsSorted(dst.Unwrap()) || !seq.IsPermutation(dst.Unwrap(), tc.in) {
			t.Fatalf("%s: selection sort broke on duplicates", tc.name)
		}
		if w, want := ma.Stats().Sub(base).Writes, uint64((len(tc.in)+tc.b-1)/tc.b); w != want {
			t.Fatalf("%s: writes = %d, want exactly ⌈n/B⌉ = %d", tc.name, w, want)
		}
	}
}

// Lemma 4.2 is an exact bound, not asymptotic: n ≤ kM records sort in at
// most k⌈n/B⌉ reads and exactly ⌈n/B⌉ writes. This is experiment E7.
func TestLemma42ExactBounds(t *testing.T) {
	const m, b = 64, 8
	for _, k := range []int{1, 2, 3, 5, 8, 16, 32} {
		n := k * m // the worst case the lemma covers
		ma := newMachine(m, b, 4)
		src := ma.FileFrom(seq.Uniform(n, uint64(k)))
		dst := ma.NewFile(n)
		base := ma.Stats()
		SelectionSortFile(ma, src, dst)
		d := ma.Stats().Sub(base)
		nb := uint64((n + b - 1) / b)
		if d.Reads > uint64(k)*nb {
			t.Errorf("k=%d: reads = %d > k⌈n/B⌉ = %d", k, d.Reads, uint64(k)*nb)
		}
		if d.Writes != nb {
			t.Errorf("k=%d: writes = %d, want exactly ⌈n/B⌉ = %d", k, d.Writes, nb)
		}
		if !seq.IsSorted(dst.Unwrap()) {
			t.Errorf("k=%d: unsorted", k)
		}
	}
}

func TestMergeSortCorrectness(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 100, 1000, 5000, 20000} {
			ma := newMachine(64, 8, 8)
			in := seq.Uniform(n, uint64(n)*uint64(k)+7)
			f := ma.FileFrom(in)
			out := MergeSort(ma, f, k)
			if !seq.IsSorted(out.Unwrap()) {
				t.Fatalf("k=%d n=%d: not sorted", k, n)
			}
			if !seq.IsPermutation(out.Unwrap(), in) {
				t.Fatalf("k=%d n=%d: not a permutation", k, n)
			}
		}
	}
}

func TestMergeSortAdversarial(t *testing.T) {
	gens := map[string][]seq.Record{
		"sorted":      seq.Sorted(8000),
		"reversed":    seq.Reversed(8000),
		"fewdistinct": seq.FewDistinct(8000, 2, 3),
		"zipf":        seq.Zipf(8000, 40, 1.5, 4),
	}
	for name, in := range gens {
		ma := newMachine(64, 8, 8)
		out := MergeSort(ma, ma.FileFrom(in), 4)
		if !seq.IsSorted(out.Unwrap()) || !seq.IsPermutation(out.Unwrap(), in) {
			t.Errorf("%s: bad merge sort", name)
		}
	}
}

func TestMergeSortProperty(t *testing.T) {
	f := func(seed uint64, szRaw uint16, kRaw uint8) bool {
		n := int(szRaw % 6000)
		k := int(kRaw%8) + 1
		ma := newMachine(32, 4, 4)
		in := seq.Uniform(n, seed)
		out := MergeSort(ma, ma.FileFrom(in), k)
		return seq.IsSorted(out.Unwrap()) && seq.IsPermutation(out.Unwrap(), in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Theorem 4.3: measured reads and writes respect the stated bounds.
func TestTheorem43Bounds(t *testing.T) {
	const m, b = 256, 16
	const n = 1 << 16
	for _, k := range []int{1, 2, 4, 8, 16} {
		ma := newMachine(m, b, 8)
		in := seq.Uniform(n, uint64(k)+9)
		f := ma.FileFrom(in)
		base := ma.Stats()
		out := MergeSort(ma, f, k)
		d := ma.Stats().Sub(base)
		if !seq.IsSorted(out.Unwrap()) {
			t.Fatalf("k=%d: unsorted", k)
		}
		rBound := TheoreticalReads(n, m, b, k)
		wBound := TheoreticalWrites(n, m, b, k)
		if d.Reads > rBound {
			t.Errorf("k=%d: reads %d exceed Theorem 4.3 bound %d", k, d.Reads, rBound)
		}
		if d.Writes > wBound {
			t.Errorf("k=%d: writes %d exceed Theorem 4.3 bound %d", k, d.Writes, wBound)
		}
	}
}

// Raising k must reduce writes (fewer levels) while raising reads.
func TestKTradeoff(t *testing.T) {
	const m, b = 256, 16
	const n = 1 << 17
	measure := func(k int) (reads, writes uint64) {
		ma := newMachine(m, b, 8)
		f := ma.FileFrom(seq.Uniform(n, 3))
		base := ma.Stats()
		MergeSort(ma, f, k)
		d := ma.Stats().Sub(base)
		return d.Reads, d.Writes
	}
	r1, w1 := measure(1)
	r8, w8 := measure(8)
	if w8 >= w1 {
		t.Errorf("writes did not drop: k=1 %d vs k=8 %d", w1, w8)
	}
	if r8 <= r1 {
		t.Errorf("reads did not grow: k=1 %d vs k=8 %d", r1, r8)
	}
}

// Corollary 4.4: for ω = 16 and k within the predicted range, total I/O
// cost (reads + ω·writes) beats the classic k=1 mergesort.
func TestCorollary44Improvement(t *testing.T) {
	const m, b = 256, 16
	const n = 1 << 17
	const omega = 16
	cost := func(k int) uint64 {
		ma := aem.New(m, b, omega, 4)
		f := ma.FileFrom(seq.Uniform(n, 5))
		base := ma.Stats()
		MergeSort(ma, f, k)
		d := ma.Stats().Sub(base)
		return d.Cost(omega)
	}
	classic := cost(1)
	// k = 4 ≈ 0.3ω/… — well inside the k/log k < ω/log(M/B) region here:
	// log2(M/B) = 4, ω/log(M/B) = 4, and k=4 has k/log k = 2 < 4.
	improved := cost(4)
	if improved >= classic {
		t.Errorf("k=4 cost %d did not beat classic %d at ω=%d", improved, classic, omega)
	}
}

// The merge must respect primary memory: peak arena usage stays within
// capacity (the Alloc guard would panic otherwise — this asserts we also
// stay under it across the whole run).
func TestPeakMemoryWithinCapacity(t *testing.T) {
	ma := newMachine(128, 16, 4)
	f := ma.FileFrom(seq.Uniform(1<<14, 6))
	MergeSort(ma, f, 4)
	if ma.PeakMemUsed() > ma.Capacity() {
		t.Errorf("peak %d exceeds capacity %d", ma.PeakMemUsed(), ma.Capacity())
	}
	if ma.MemUsed() != 0 {
		t.Errorf("leaked %d records of arena", ma.MemUsed())
	}
}

func TestLogBase(t *testing.T) {
	cases := []struct{ base, x, want int }{
		{2, 1, 1}, {2, 2, 1}, {2, 3, 2}, {2, 4, 2}, {2, 1024, 10},
		{16, 16, 1}, {16, 17, 2}, {16, 256, 2}, {10, 1000, 3},
	}
	for _, tc := range cases {
		if got := LogBase(tc.base, tc.x); got != tc.want {
			t.Errorf("LogBase(%d,%d) = %d, want %d", tc.base, tc.x, got, tc.want)
		}
	}
}

func TestMergeSortInvalidK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	ma := newMachine(32, 4, 2)
	MergeSort(ma, ma.NewFile(10), 0)
}

// The paper's remark after Lemma 4.1: keeping the run pointers in
// secondary memory at most doubles the writes and barely adds reads.
func TestExternalPointersVariant(t *testing.T) {
	const m, b = 256, 16
	const n = 1 << 16
	in := seq.Uniform(n, 4)
	run := func(opt Options) (r, w uint64, out *aem.File) {
		ma := newMachine(m, b, 8)
		f := ma.FileFrom(in)
		base := ma.Stats()
		out = MergeSortOpt(ma, f, 8, opt)
		d := ma.Stats().Sub(base)
		return d.Reads, d.Writes, out
	}
	rIn, wIn, _ := run(Options{})
	rEx, wEx, out := run(Options{ExternalPointers: true})
	if !seq.IsSorted(out.Unwrap()) {
		t.Fatal("external-pointer variant unsorted")
	}
	if wEx > 2*wIn {
		t.Errorf("external pointers more than doubled writes: %d vs %d", wEx, wIn)
	}
	if wEx <= wIn {
		t.Errorf("external pointers did not add writes: %d vs %d", wEx, wIn)
	}
	if float64(rEx) > 1.2*float64(rIn) {
		t.Errorf("external pointers increased reads by more than 20%%: %d vs %d", rEx, rIn)
	}
}
