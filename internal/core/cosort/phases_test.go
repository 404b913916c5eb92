package cosort

// Phase-level tests for the Figure 1 steps: each of
// the algorithm's internal stages is validated against a brute-force
// reference independently of the end-to-end sort tests.

import (
	"sort"
	"testing"
	"testing/quick"

	"asymsort/internal/co"
	"asymsort/internal/icache"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
	"asymsort/internal/xrand"
)

func phaseCtx() *co.Ctx {
	return co.NewCtx(icache.New(16, 64, 4, icache.PolicyRWLRU))
}

// buildRows constructs numSub sorted rows in one workspace array.
func buildRows(c *co.Ctx, n, numSub int, seed uint64) (*co.Arr[seq.Record], []int) {
	in := seq.Uniform(n, seed)
	bounds := evenBounds(n, numSub)
	for s := 0; s < numSub; s++ {
		row := in[bounds[s]:bounds[s+1]]
		sort.Slice(row, func(i, j int) bool { return seq.TotalLess(row[i], row[j]) })
	}
	return co.FromSlice(c, in), bounds
}

// Step (b) reference: pos[j][s] must equal the number of records in row s
// strictly below splitter j.
func TestSplitterPositionsBruteForce(t *testing.T) {
	f := func(seed uint64, subRaw, splRaw uint8) bool {
		numSub := int(subRaw%6) + 2
		nSpl := int(splRaw % 10)
		n := numSub * (20 + int(seed%30))
		c := phaseCtx()
		work, bounds := buildRows(c, n, numSub, seed)

		// Splitters: sorted random records.
		r := xrand.New(seed ^ 0xf00d)
		spl := make([]seq.Record, nSpl)
		for i := range spl {
			spl[i] = seq.Record{Key: r.Uint64n(1 << 40), Val: r.Next()}
		}
		sort.Slice(spl, func(i, j int) bool { return seq.TotalLess(spl[i], spl[j]) })
		splitters := co.FromSlice(c, spl)

		rc := rt.NewSimCO(c)
		pos := splitterPositions(rc, rt.WrapCO(work), bounds, rt.WrapCO(splitters), numSub)
		for j := 0; j < nSpl; j++ {
			for s := 0; s < numSub; s++ {
				want := 0
				for p := bounds[s]; p < bounds[s+1]; p++ {
					if seq.TotalLess(work.Unwrap()[p], spl[j]) {
						want++
					}
				}
				if got := int(pos.Unwrap()[j*numSub+s]); got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Step (c) reference: the count matrix sums to n per the partition and
// after scanning + scattering the output is bucket-contiguous.
func TestCountsAndScatter(t *testing.T) {
	const n, numSub = 600, 8
	c := phaseCtx()
	work, bounds := buildRows(c, n, numSub, 77)

	spl := []seq.Record{{Key: 1 << 38, Val: 0}, {Key: 1 << 39, Val: 0}, {Key: 3 << 38, Val: 0}}
	splitters := co.FromSlice(c, spl)
	numBuckets := len(spl) + 1

	rc := rt.NewSimCO(c)
	pos := splitterPositions(rc, rt.WrapCO(work), bounds, rt.WrapCO(splitters), numSub)
	ct := countsFromPositions(rc, pos, bounds, numSub, numBuckets)
	total := uint64(0)
	for _, v := range ct.Unwrap() {
		total += v
	}
	if total != n {
		t.Fatalf("counts sum to %d, want %d", total, n)
	}

	rt.Scan(rc, ct)
	out := rt.NewArr[seq.Record](rc, n)
	scatterSegments(rc, rt.WrapCO(work), out, bounds, pos, ct, numSub, numBuckets)

	// Every record lands in its bucket's contiguous range, ranges in
	// splitter order.
	bStart := make([]int, numBuckets+1)
	for b := 0; b < numBuckets; b++ {
		bStart[b] = int(ct.Unwrap()[b*numSub])
	}
	bStart[numBuckets] = n
	for b := 0; b < numBuckets; b++ {
		for i := bStart[b]; i < bStart[b+1]; i++ {
			r := out.Unwrap()[i]
			if b > 0 && seq.TotalLess(r, spl[b-1]) {
				t.Fatalf("bucket %d holds %+v below its lower splitter", b, r)
			}
			if b < len(spl) && !seq.TotalLess(r, spl[b]) {
				t.Fatalf("bucket %d holds %+v at/above its upper splitter", b, r)
			}
		}
	}
	if !seq.IsPermutation(out.Unwrap(), work.Unwrap()) {
		t.Fatal("scatter lost records")
	}
}

// Step (d) reference: refineBucket leaves the segment fully sorted and a
// permutation of itself, for every ω.
func TestRefineBucketSorts(t *testing.T) {
	for _, omega := range []int{2, 4, 8, 16} {
		cache := icache.New(16, 64, uint64(omega), icache.PolicyRWLRU)
		c := co.NewCtx(cache)
		in := seq.Uniform(900, uint64(omega)*13)
		seg := co.FromSlice(c, in)
		refineBucket(rt.NewSimCO(c), rt.WrapCO(seg), omega, Options{Seed: 3})
		if !seq.IsSorted(seg.Unwrap()) {
			t.Errorf("ω=%d: refineBucket left segment unsorted", omega)
		}
		if !seq.IsPermutation(seg.Unwrap(), in) {
			t.Errorf("ω=%d: refineBucket lost records", omega)
		}
	}
}

// Step (a) boundary arithmetic.
func TestEvenBounds(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{{10, 3}, {0, 2}, {7, 7}, {100, 1}, {5, 10}} {
		b := evenBounds(tc.n, tc.parts)
		if len(b) != tc.parts+1 || b[0] != 0 || b[tc.parts] != tc.n {
			t.Fatalf("evenBounds(%d,%d) = %v", tc.n, tc.parts, b)
		}
		for i := 1; i <= tc.parts; i++ {
			if b[i] < b[i-1] {
				t.Fatalf("evenBounds(%d,%d) not monotone: %v", tc.n, tc.parts, b)
			}
			if d := b[i] - b[i-1]; d > tc.n/tc.parts+1 {
				t.Fatalf("part %d size %d too uneven", i, d)
			}
		}
	}
}

// choosePivots must return sorted pivots drawn from the segment.
func TestChoosePivots(t *testing.T) {
	c := phaseCtx()
	in := seq.Uniform(500, 21)
	seg := co.FromSlice(c, in)
	pivots := choosePivots(rt.NewSimCO(c), rt.WrapCO(seg), 8, Options{Seed: 4})
	if pivots.Len() != 7 {
		t.Fatalf("got %d pivots, want ω-1 = 7", pivots.Len())
	}
	present := make(map[seq.Record]bool, len(in))
	for _, r := range in {
		present[r] = true
	}
	prev := seq.Record{}
	for i, p := range pivots.Unwrap() {
		if !present[p] {
			t.Errorf("pivot %d not drawn from the segment", i)
		}
		if i > 0 && seq.TotalLess(p, prev) {
			t.Errorf("pivots not sorted at %d", i)
		}
		prev = p
	}
}
