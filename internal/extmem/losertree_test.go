package extmem

import (
	"errors"
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
// buffer size, popping blocks of blk records, and returns the merged
// sequence.
func mergeViaLoserTree(t *testing.T, runs [][]seq.Record, bufRecs, blk int) []seq.Record {
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
	return drainTree(t, lt, blk)
}

// drainTree pops lt to exhaustion in blocks of blk records. Every block
// but the last must come back full, and a pop after the end must return
// nothing.
func drainTree(t testing.TB, lt *loserTree, blk int) []seq.Record {
	t.Helper()
	var out []seq.Record
	buf := make([]seq.Record, blk)
	for {
		n, err := lt.popInto(buf)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf[:n]...)
		if n < blk {
			if n, err := lt.popInto(buf); n != 0 || err != nil {
				t.Fatalf("pop after the end: %d records, err %v", n, err)
			}
			return out
		}
	}
}

// sortedConcat returns the runs' records in one slice, sorted — the
// reference every merge is held to.
func sortedConcat(runs [][]seq.Record) []seq.Record {
	var want []seq.Record
	for _, run := range runs {
		want = append(want, run...)
	}
	slices.SortFunc(want, seq.TotalCompare)
	return want
}

// sameRecords fails t unless got equals want record for record.
func sameRecords(t testing.TB, got, want []seq.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// checkMerge asserts the loser-tree merge of runs equals slices.Sort of
// their concatenation, popped in blocks of 1, 7 and 64 records.
func checkMerge(t *testing.T, runs [][]seq.Record, bufRecs int) {
	t.Helper()
	want := sortedConcat(runs)
	for _, blk := range []int{1, 7, 64} {
		sameRecords(t, mergeViaLoserTree(t, runs, bufRecs, blk), want)
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
// spans of at most len(buf) records, each copied into buf as runReader
// refills do. The buffer stays in cache, as a refill buffer does, and a
// tree that read a span after the next call would see it overwritten.
type memStream struct {
	recs, buf []seq.Record
}

func (m *memStream) span() ([]seq.Record, error) {
	s := m.buf[:copy(m.buf, m.recs)]
	m.recs = m.recs[len(s):]
	return s, nil
}

// memTree builds a loser tree over the runs, each handed over in spans
// of at most spanN records.
func memTree(t testing.TB, runs [][]seq.Record, spanN int) *loserTree {
	t.Helper()
	rdrs := make([]recStream, len(runs))
	for i, run := range runs {
		rdrs[i] = &memStream{recs: run, buf: make([]seq.Record, spanN)}
	}
	lt, err := newLoserTree(rdrs)
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

func TestLoserTreeModeSwitch(t *testing.T) {
	// Each run holds distinct keys, then keys from a 4-key alphabet,
	// then distinct keys again, so the merged stream's duplicate rate
	// rises and falls: the tree must enter full mode and leave it, and
	// both replays must keep the order.
	const k, part = 8, 200
	r := xrand.New(5)
	runs := make([][]seq.Record, k)
	for i := range runs {
		run := make([]seq.Record, 0, 3*part)
		for j := range 3 * part {
			key := r.Uint64n(1 << 40)
			if j/part == 1 {
				key = 1<<41 + r.Uint64n(4)
			} else if j/part == 2 {
				key += 1 << 42
			}
			run = append(run, seq.Record{Key: key, Val: r.Uint64n(16)})
		}
		slices.SortFunc(run, seq.TotalCompare)
		runs[i] = run
	}
	lt := memTree(t, runs, 16)
	var got []seq.Record
	var modes []bool
	buf := make([]seq.Record, 64)
	for {
		modes = append(modes, lt.full)
		n, err := lt.popInto(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
		if n < len(buf) {
			break
		}
	}
	sameRecords(t, got, sortedConcat(runs))
	switches := 0
	for i := 1; i < len(modes); i++ {
		if modes[i] != modes[i-1] {
			switches++
		}
	}
	if modes[0] || !slices.Contains(modes, true) || modes[len(modes)-1] || switches != 2 {
		t.Fatalf("modes per block %v: want key mode, then full mode, then key mode again", modes)
	}
}

func TestLoserTreeRunsEndInsideBlock(t *testing.T) {
	// Runs of 3, 5, 9 and 70 records with interleaved keys: the short
	// runs run out inside the first 64-record block while the long one
	// continues, and the last block comes back short.
	lens := []int{3, 5, 9, 70}
	runs := make([][]seq.Record, len(lens))
	for i, n := range lens {
		for j := range n {
			runs[i] = append(runs[i], seq.Record{Key: uint64(j*len(lens) + i), Val: uint64(i)})
		}
	}
	lt := memTree(t, runs, 4)
	buf := make([]seq.Record, 64)
	var counts []int
	var got []seq.Record
	for {
		n, err := lt.popInto(buf)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, n)
		got = append(got, buf[:n]...)
		if n == 0 {
			break
		}
	}
	if want := []int{64, 23, 0}; !slices.Equal(counts, want) {
		t.Fatalf("block counts %v, want %v", counts, want)
	}
	sameRecords(t, got, sortedConcat(runs))
}

// failStream hands out its run in spans of len(buf) records and fails its
// fail-th span call (counting from 1).
type failStream struct {
	memStream
	calls, fail int
}

var errSpan = errors.New("span failed")

func (f *failStream) span() ([]seq.Record, error) {
	if f.calls++; f.calls == f.fail {
		return nil, errSpan
	}
	return f.memStream.span()
}

func TestLoserTreeReaderErrorMidBlock(t *testing.T) {
	// Two runs with alternating keys in spans of 4: run 0's third span
	// fails when key 14 leaves the tree, 15 records into a 64-record
	// block.
	runs := make([][]seq.Record, 2)
	for j := range 40 {
		runs[j%2] = append(runs[j%2], seq.Record{Key: uint64(j)})
	}
	rdrs := []recStream{
		&failStream{memStream: memStream{recs: runs[0], buf: make([]seq.Record, 4)}, fail: 3},
		&memStream{recs: runs[1], buf: make([]seq.Record, 4)},
	}
	lt, err := newLoserTree(rdrs)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]seq.Record, 64)
	n, err := lt.popInto(buf)
	if !errors.Is(err, errSpan) {
		t.Fatalf("popInto: %d records, err %v; want %v", n, err, errSpan)
	}
	if n != 14 {
		t.Fatalf("popInto returned %d records before the error, want 14", n)
	}
	sameRecords(t, buf[:n], sortedConcat(runs)[:n])
}

// FuzzLoserTree checks the tree against slices.SortFunc over fuzzed run
// counts, run lengths, span sizes, block sizes and key alphabets; a
// small alphabet makes duplicate keys, and exact duplicate records,
// common enough to switch the replay mode.
func FuzzLoserTree(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(40), uint8(3), uint8(64), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(100), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(17), uint8(60), uint8(4), uint8(7), uint8(2))
	f.Add(uint64(4), uint8(64), uint8(30), uint8(16), uint8(64), uint8(12))
	f.Add(uint64(5), uint8(33), uint8(80), uint8(2), uint8(9), uint8(64))
	f.Add(uint64(6), uint8(3), uint8(200), uint8(7), uint8(200), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, k, maxLen, spanN, blk, keyBits uint8) {
		if k == 0 || spanN == 0 || blk == 0 {
			return
		}
		r := xrand.New(seed)
		// keyBits mod 65 is the key width; 0 and 64 draw full-width
		// keys. Narrow keys are flipped to the top of the range one
		// time in 8, where they meet the +∞ sentinel.
		key := func() uint64 {
			v := r.Next()
			if b := keyBits % 65; b > 0 && b < 64 {
				v &= 1<<b - 1
				if r.Uint64n(8) == 0 {
					v = math.MaxUint64 - v
				}
			}
			return v
		}
		runs := make([][]seq.Record, int(k))
		for i := range runs {
			run := make([]seq.Record, r.Uint64n(uint64(maxLen)+1))
			for j := range run {
				run[j] = seq.Record{Key: key(), Val: r.Uint64n(4)}
			}
			slices.SortFunc(run, seq.TotalCompare)
			runs[i] = run
		}
		sameRecords(t, drainTree(t, memTree(t, runs, int(spanN)), int(blk)), sortedConcat(runs))
	})
}

// BenchmarkLoserTree times the merge kernel alone: 2¹⁸ records split
// into f sorted in-memory runs, handed over in spans of 64 records
// copied into one reused buffer per run (as the engine's refills are)
// and popped to exhaustion in blocks of 64. ns/rec is the per-record
// cost of one pass through the tree (build and copies included) at
// each fan-in. The
// distinct rows draw uniform keys, the shape of ext-classic-p1; the
// mod4096 rows draw keys from 4 096 values, the shape of serve-mixed's
// semisort, and run mostly in full mode.
func BenchmarkLoserTree(b *testing.B) {
	const n = 1 << 18
	for _, shape := range []struct {
		name string
		mask uint64
	}{{"distinct", math.MaxUint64}, {"mod4096", 4095}} {
		for _, f := range []int{2, 16, 64, 256, 4096} {
			runs := make([][]seq.Record, f)
			for i := range runs {
				runs[i] = sortedRun(n/f, uint64(f*7919+i))
				for j := range runs[i] {
					runs[i][j].Key &= shape.mask
				}
				slices.SortFunc(runs[i], seq.TotalCompare)
			}
			b.Run(fmt.Sprintf("keys=%s/fanin=%d", shape.name, f), func(b *testing.B) {
				buf := make([]seq.Record, 64)
				for b.Loop() {
					lt := memTree(b, runs, 64)
					for {
						if m, _ := lt.popInto(buf); m < len(buf) {
							break
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
			})
		}
	}
}
