package extmem

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"asymsort/internal/seq"
	"asymsort/internal/xrand"
)

// mergeViaLoserTree lays the given runs back-to-back in one BlockFile,
// merges them through runReaders + a loserTree with the given refill
// buffer size, and returns the merged sequence.
func mergeViaLoserTree(t *testing.T, runs [][]seq.Record, bufRecs int) []seq.Record {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.bin")
	bf, err := CreateBlockFile(path, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	rdrs := make([]recStream, len(runs))
	off := 0
	for i, run := range runs {
		if err := bf.WriteAt(off, run); err != nil {
			t.Fatal(err)
		}
		rdrs[i] = newRunReader(bf, off, off+len(run), make([]seq.Record, bufRecs))
		off += len(run)
	}
	lt, err := newLoserTree(rdrs)
	if err != nil {
		t.Fatal(err)
	}
	var out []seq.Record
	for {
		rec, ok, err := lt.pop()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// checkMerge asserts the loser-tree merge of runs equals slices.Sort of
// their concatenation.
func checkMerge(t *testing.T, runs [][]seq.Record, bufRecs int) {
	t.Helper()
	var want []seq.Record
	for _, run := range runs {
		want = append(want, run...)
	}
	want = slices.Clone(want)
	slices.SortFunc(want, seq.TotalCompare)
	got := mergeViaLoserTree(t, runs, bufRecs)
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// sortedRun returns n records with deterministic pseudo-random keys,
// sorted — one merge input.
func sortedRun(n int, seed uint64) []seq.Record {
	r := xrand.New(seed)
	out := make([]seq.Record, n)
	for i := range out {
		out[i] = seq.Record{Key: r.Next(), Val: seed<<32 | uint64(i)}
	}
	slices.SortFunc(out, seq.TotalCompare)
	return out
}

func TestLoserTreeSingleRun(t *testing.T) {
	// k = 1: the tree degenerates to a pass-through of the lone reader.
	checkMerge(t, [][]seq.Record{sortedRun(100, 1)}, 7)
	checkMerge(t, [][]seq.Record{sortedRun(1, 2)}, 1)
}

func TestLoserTreeEmptyRuns(t *testing.T) {
	checkMerge(t, [][]seq.Record{{}, {}}, 3)
	checkMerge(t, [][]seq.Record{{}, sortedRun(50, 3), {}, sortedRun(7, 4), {}}, 3)
	checkMerge(t, [][]seq.Record{{}}, 3)
}

func TestLoserTreeAllEqualKeys(t *testing.T) {
	// All keys equal: order falls to the payload tiebreak of
	// seq.TotalLess, and the merge must still be a sorted permutation.
	runs := make([][]seq.Record, 5)
	val := uint64(0)
	for i := range runs {
		run := make([]seq.Record, 40)
		for j := range run {
			run[j] = seq.Record{Key: 42, Val: val}
			val++
		}
		runs[i] = run
	}
	checkMerge(t, runs, 5)
}

func TestLoserTreeDuplicateRecords(t *testing.T) {
	// Exact duplicates (same key AND payload) across runs: the merge
	// stage must emit every copy.
	dup := []seq.Record{{Key: 7, Val: 7}, {Key: 7, Val: 7}, {Key: 9, Val: 1}}
	checkMerge(t, [][]seq.Record{dup, dup, dup}, 2)
}

func TestLoserTreeNonPowerOfTwoRunCounts(t *testing.T) {
	// Run counts that are not a power of the implicit binary tree
	// fan-out exercise the padding slots.
	for _, k := range []int{2, 3, 5, 6, 7, 9, 13, 17, 31, 33} {
		runs := make([][]seq.Record, k)
		for i := range runs {
			runs[i] = sortedRun(10+i*3, uint64(k*100+i))
		}
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			checkMerge(t, runs, 3)
		})
	}
}

func TestLoserTreeRandomProperty(t *testing.T) {
	// Property sweep: random run counts, lengths (including empty), and
	// refill buffer sizes — including buffers smaller than a block.
	r := xrand.New(99)
	for trial := 0; trial < 60; trial++ {
		k := 1 + int(r.Uint64n(20))
		runs := make([][]seq.Record, k)
		for i := range runs {
			runs[i] = sortedRun(int(r.Uint64n(60)), uint64(trial*100+i))
		}
		bufRecs := 1 + int(r.Uint64n(16))
		checkMerge(t, runs, bufRecs)
	}
}

func TestLoserTreeAllOnesRecords(t *testing.T) {
	// The +∞ sentinel is Key = Val = MaxUint64 with the run index offset
	// past every real run, so a real all-ones record must still come out
	// — alone, duplicated across runs, beside empty runs, and in the last
	// real slot before the padding at fan-ins that are not powers of two.
	top := seq.Record{Key: math.MaxUint64, Val: math.MaxUint64}
	nearTop := []seq.Record{{Key: math.MaxUint64, Val: math.MaxUint64 - 1}, top}
	cases := map[string][][]seq.Record{
		"alone":           {{top}},
		"duplicated":      {{top}, {top}, {top, top}},
		"beside-empty":    {{}, {top}, {}, {{Key: 1, Val: 2}, top}, {}},
		"near-top":        {nearTop, {top}, {{Key: math.MaxUint64 - 1, Val: math.MaxUint64}, top}},
		"only-empty-tail": {{top}, {}, {}},
	}
	for _, k := range []int{3, 5, 6, 7, 9, 33} {
		runs := make([][]seq.Record, k)
		for i := range runs {
			runs[i] = append(sortedRun(i, uint64(k*10+i)), top)
		}
		runs[k-1] = []seq.Record{top} // the last real leaf, next to the padding
		cases[fmt.Sprintf("k=%d", k)] = runs
	}
	for name, runs := range cases {
		t.Run(name, func(t *testing.T) {
			for _, bufRecs := range []int{1, 2, 64} {
				checkMerge(t, runs, bufRecs)
			}
		})
	}
}

// memStream is an in-memory recStream: it hands out a sorted run in
// spans of at most n records.
type memStream struct {
	recs []seq.Record
	n    int
}

func (m *memStream) span() ([]seq.Record, error) {
	s := m.recs[:min(m.n, len(m.recs))]
	m.recs = m.recs[len(s):]
	return s, nil
}

// BenchmarkLoserTree times the merge kernel alone: 2¹⁸ uniform records
// split into f sorted in-memory runs, handed over in spans of 64
// records, popped to exhaustion. ns/rec is the per-record cost of one
// pass through the tree (build included) at each fan-in.
func BenchmarkLoserTree(b *testing.B) {
	const n = 1 << 18
	for _, f := range []int{2, 64, 256, 4096} {
		runs := make([][]seq.Record, f)
		for i := range runs {
			runs[i] = sortedRun(n/f, uint64(f*7919+i))
		}
		b.Run(fmt.Sprintf("fanin=%d", f), func(b *testing.B) {
			rdrs := make([]recStream, f)
			for b.Loop() {
				for i, run := range runs {
					rdrs[i] = &memStream{recs: run, n: 64}
				}
				lt, err := newLoserTree(rdrs)
				if err != nil {
					b.Fatal(err)
				}
				for {
					_, ok, _ := lt.pop()
					if !ok {
						break
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})
	}
}
