package aemsort

// Regression test for the Algorithm 2 deviation documented in the package
// comment: without the round ceiling, the literal
// pseudocode emits unsorted output on this input. The construction makes
// phase 1 reject run B's records while run A's marker drains the queue,
// so phase 2 loads A's next block into a non-full queue; the ceiling must
// hold those larger records back until the next round.

import (
	"testing"

	"asymsort/internal/aem"
	"asymsort/internal/seq"
)

func TestRoundCeilingCounterexample(t *testing.T) {
	// Geometry: M = 2 records in the queue, B = 2 records per block.
	ma := aem.New(2, 2, 2, 4)
	mk := func(keys ...uint64) *aem.File {
		rs := make([]seq.Record, len(keys))
		for i, k := range keys {
			rs[i] = seq.Record{Key: k, Val: k}
		}
		return ma.FileFrom(rs)
	}
	// Run A's first block [1,2] fills the queue; B's [3,7] is rejected
	// wholesale; A's marker (2) pops and loads [8,9] while the queue is
	// non-full. Without the ceiling the round would emit 8,9 before 3,7.
	runs := []*aem.File{
		mk(1, 2, 8, 9),
		mk(3, 7),
	}
	out := mergeRuns(ma, runs, 6, Options{})
	want := []uint64{1, 2, 3, 7, 8, 9}
	for i, r := range out.Unwrap() {
		if r.Key != want[i] {
			t.Fatalf("merge output[%d] = %d, want %d (full: %v)",
				i, r.Key, want[i], seq.Keys(out.Unwrap()))
		}
	}
}

// The same shape at a larger scale with many runs, confirming the ceiling
// generalizes (every record rejected in some round is emitted before any
// larger record).
func TestRoundCeilingManyRuns(t *testing.T) {
	ma := aem.New(4, 2, 2, 4)
	var runs []*aem.File
	var all []seq.Record
	for r := 0; r < 6; r++ {
		rs := make([]seq.Record, 8)
		for i := range rs {
			// Interleaved key ranges across runs force constant rejections.
			rs[i] = seq.Record{Key: uint64(i*6 + r), Val: uint64(r*100 + i)}
		}
		runs = append(runs, ma.FileFrom(rs))
		all = append(all, rs...)
	}
	out := mergeRuns(ma, runs, len(all), Options{})
	if !seq.IsSorted(out.Unwrap()) {
		t.Fatalf("unsorted: %v", seq.Keys(out.Unwrap()))
	}
	if !seq.IsPermutation(out.Unwrap(), all) {
		t.Fatal("records lost")
	}
}
