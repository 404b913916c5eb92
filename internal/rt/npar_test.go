package rt

import (
	"slices"
	"testing"

	"asymsort/internal/seq"
	"asymsort/internal/xrand"
)

// inputFamilies generates the input classes every native sort is
// checked on: random, sorted, reverse, all-equal keys, and the zero/one
// element edge cases (the sizes list supplies 0 and 1).
func inputFamilies(n int, seed uint64) map[string][]seq.Record {
	return map[string][]seq.Record{
		"random":    seq.Uniform(n, seed),
		"sorted":    seq.Sorted(n),
		"reversed":  seq.Reversed(n),
		"all-equal": seq.FewDistinct(n, 1, seed),
		"few-keys":  seq.FewDistinct(n, 3, seed),
	}
}

// reference returns the expected output: the input sorted by the strict
// total order every sort in the repository uses.
func reference(in []seq.Record) []seq.Record {
	out := slices.Clone(in)
	slices.SortFunc(out, seq.TotalCompare)
	return out
}

// TestSortRecordsMatchesSlicesSort is the native-backend property test:
// across input families, sizes (including 0 and 1), and worker counts,
// SortRecords must agree element-for-element with the stdlib sort. Each
// runs with no scratch, a third of the slice (a merge buffer is
// allocated; the leaf's buckets that fit go out of place) and the
// slice's length (the merge buffer, or the leaf's scratch throughout).
func TestSortRecordsMatchesSlicesSort(t *testing.T) {
	for _, procs := range []int{1, 4} {
		p := NewPool(procs)
		for _, n := range []int{0, 1, 2, 3, 100, sortLeaf, sortLeaf + 1, 3*sortLeaf + 17, 1 << 16} {
			for name, in := range inputFamilies(n, uint64(n)+77) {
				want := reference(in)
				for _, s := range []int{0, n / 3, n} {
					got := slices.Clone(in)
					SortRecords(p, got, make([]seq.Record, s)...)
					if !slices.Equal(got, want) {
						t.Fatalf("procs=%d n=%d %s scratch=%d: SortRecords disagrees with slices.Sort", procs, n, name, s)
					}
				}
			}
		}
	}
}

// TestScanSliceMatchesSequential checks the parallel exclusive scan
// against the obvious sequential one, across the parallel threshold.
func TestScanSliceMatchesSequential(t *testing.T) {
	r := xrand.New(9)
	for _, procs := range []int{1, 4} {
		p := NewPool(procs)
		for _, n := range []int{0, 1, 5, scanParallelMin - 1, scanParallelMin, scanParallelMin * 3} {
			a := make([]uint64, n)
			for i := range a {
				a[i] = r.Uint64n(1000)
			}
			want := slices.Clone(a)
			wantTotal := exclScanSeq(want, 0)
			got := slices.Clone(a)
			gotTotal := scanSlice(p, got)
			if gotTotal != wantTotal || !slices.Equal(got, want) {
				t.Fatalf("procs=%d n=%d: scanSlice diverges (total %d vs %d)", procs, n, gotTotal, wantTotal)
			}
		}
	}
}

// TestPackSliceMatchesSequential checks parallel pack output and order.
func TestPackSliceMatchesSequential(t *testing.T) {
	for _, procs := range []int{1, 4} {
		p := NewPool(procs)
		for _, n := range []int{0, 10, scanParallelMin * 2} {
			in := seq.Uniform(n, 5)
			keep := func(i int) bool { return in[i].Key%3 == 0 }
			var want []seq.Record
			for i := range in {
				if keep(i) {
					want = append(want, in[i])
				}
			}
			got := packSlice(p, in, keep)
			if !slices.Equal(got, want) {
				t.Fatalf("procs=%d n=%d: packSlice diverges", procs, n)
			}
		}
	}
}

// TestCountingSortSliceStable checks bucket grouping, bounds, and
// stability within buckets.
func TestCountingSortSliceStable(t *testing.T) {
	for _, procs := range []int{1, 4} {
		p := NewPool(procs)
		const n, buckets = 50000, 37
		in := seq.Uniform(n, 11)
		key := func(r seq.Record) int { return int(r.Key % buckets) }
		out, bounds := countingSortSlice(p, in, buckets, key)
		if len(bounds) != buckets+1 || bounds[0] != 0 || bounds[buckets] != n {
			t.Fatalf("bad bounds %v", bounds[:min(len(bounds), 5)])
		}
		if !seq.IsPermutation(out, in) {
			t.Fatal("countingSortSlice lost records")
		}
		// Within a bucket the original order must be preserved (stability):
		// payloads are the original indices for Uniform workloads... but
		// Uniform packs the index into Val, so check Vals increase within
		// each bucket.
		for b := 0; b < buckets; b++ {
			for i := bounds[b]; i < bounds[b+1]; i++ {
				if key(out[i]) != b {
					t.Fatalf("record at %d in bucket %d has key %d", i, b, key(out[i]))
				}
				if i > bounds[b] && out[i].Val <= out[i-1].Val {
					t.Fatalf("bucket %d not stable at %d", b, i)
				}
			}
		}
	}
}

// TestMergeSortDispatch checks the MergeSort primitive end to end on the
// native backend through the Arr surface.
func TestMergeSortDispatch(t *testing.T) {
	c := NewNative(NewPool(4), 1)
	in := seq.Uniform(10000, 3)
	arr := FromSlice(c, in)
	out := MergeSort(c, arr)
	if want := reference(in); !slices.Equal(out.Unwrap(), want) {
		t.Fatal("native MergeSort dispatch wrong")
	}
	// FromSlice copied: the input array must be untouched.
	if !slices.Equal(arr.Unwrap(), in) {
		t.Fatal("MergeSort mutated its input")
	}
}
