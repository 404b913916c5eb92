// Package seq defines the record type sorted throughout this repository,
// its byte codec (codec.go), and the workload generators used by tests,
// examples, and the experiment harness.
//
// The paper sorts "n records each containing a key" with unique keys
// (Section 2, Sorting). Record carries a 64-bit key plus a 64-bit payload;
// the payload lets tests verify that sorts permute whole records rather
// than just keys, and gives records a realistic 16-byte footprint so the
// block-size parameter B of the external-memory simulators is meaningful.
package seq

import (
	"math"

	"asymsort/internal/xrand"
)

// Record is the unit of sorting: a key with an opaque payload. Keys are
// compared as unsigned integers. The paper assumes unique keys; generators
// below produce unique keys unless documented otherwise.
type Record struct {
	Key uint64
	Val uint64
}

// Less reports whether r orders strictly before other.
func (r Record) Less(other Record) bool { return r.Key < other.Key }

// TotalLess is the strict total order on records: by key, then payload.
// The paper assumes unique keys; breaking ties by payload extends every
// algorithmic guarantee to duplicate-key workloads, since (Key, Val) pairs
// are unique in all generated workloads.
func TotalLess(a, b Record) bool {
	return a.Key < b.Key || (a.Key == b.Key && a.Val < b.Val)
}

// TotalCompare is the cmp-style form of TotalLess, for
// slices.SortFunc-style callers. Every sort in the repository —
// simulated or native — orders records by exactly this comparison, so
// outputs are comparable across backends.
func TotalCompare(a, b Record) int {
	switch {
	case TotalLess(a, b):
		return -1
	case TotalLess(b, a):
		return 1
	default:
		return 0
	}
}

// ByKey is a convenience comparison for sort.Slice-style callers.
func ByKey(a, b Record) int {
	switch {
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return 1
	default:
		return 0
	}
}

// Uniform returns n records with distinct pseudo-random keys drawn from the
// full 64-bit space and payload equal to the original index. Distinctness
// is achieved by embedding the index in the low bits, preserving uniform
// high-order behaviour while guaranteeing uniqueness for n ≤ 2^24.
func Uniform(n int, seed uint64) []Record {
	if n < 0 {
		panic("seq: negative n")
	}
	r := xrand.New(seed)
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Key: (r.Next() << 24) | uint64(i)&0xffffff, Val: uint64(i)}
	}
	return out
}

// Sorted returns n records with keys 0..n-1 in increasing order.
func Sorted(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Key: uint64(i), Val: uint64(i)}
	}
	return out
}

// Reversed returns n records with strictly decreasing keys.
func Reversed(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Key: uint64(n - i), Val: uint64(i)}
	}
	return out
}

// AlmostSorted returns a sorted sequence with swaps random transpositions
// applied, modelling nearly-in-order inputs.
func AlmostSorted(n, swaps int, seed uint64) []Record {
	out := Sorted(n)
	r := xrand.New(seed)
	for s := 0; s < swaps && n > 1; s++ {
		i, j := r.Intn(n), r.Intn(n)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// FewDistinct returns n records whose keys are drawn from only d distinct
// values (duplicate-heavy input). Payloads remain the original index so
// permutation checks still work.
func FewDistinct(n, d int, seed uint64) []Record {
	if d <= 0 {
		panic("seq: FewDistinct needs d > 0")
	}
	r := xrand.New(seed)
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Key: r.Uint64n(uint64(d)), Val: uint64(i)}
	}
	return out
}

// Zipf returns n records with keys drawn from a Zipf(s) distribution over
// [0, universe), approximated by inverse-CDF sampling on a precomputed
// table. Heavily skewed inputs exercise sample-sort splitter selection.
func Zipf(n int, universe int, s float64, seed uint64) []Record {
	if universe <= 0 {
		panic("seq: Zipf needs universe > 0")
	}
	// Precompute cumulative weights 1/k^s.
	cum := make([]float64, universe)
	total := 0.0
	for k := 0; k < universe; k++ {
		total += 1.0 / math.Pow(float64(k+1), s)
		cum[k] = total
	}
	r := xrand.New(seed)
	out := make([]Record, n)
	for i := range out {
		target := r.Float64() * total
		// Binary search the CDF.
		lo, hi := 0, universe-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = Record{Key: uint64(lo), Val: uint64(i)}
	}
	return out
}

// IsSorted reports whether records are in non-decreasing key order.
func IsSorted(rs []Record) bool {
	for i := 1; i < len(rs); i++ {
		if rs[i].Key < rs[i-1].Key {
			return false
		}
	}
	return true
}

// IsPermutation reports whether got is a permutation of want, comparing
// whole records (key and payload). It runs in O(n) time and O(n) space
// using a multiset of packed records.
func IsPermutation(got, want []Record) bool {
	if len(got) != len(want) {
		return false
	}
	counts := make(map[Record]int, len(want))
	for _, r := range want {
		counts[r]++
	}
	for _, r := range got {
		counts[r]--
		if counts[r] < 0 {
			return false
		}
	}
	return true
}

// Keys extracts the keys of rs into a new slice; handy for test diffs.
func Keys(rs []Record) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.Key
	}
	return out
}
