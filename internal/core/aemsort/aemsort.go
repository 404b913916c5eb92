// Package aemsort implements Section 4.1 of the paper: AEM-MERGESORT
// (Algorithm 2), the l-way external mergesort with branching factor
// l = kM/B that trades a factor k = O(ω) extra reads for a shallower
// recursion and hence fewer writes, together with the Lemma 4.2 selection
// sort used as its base case. Setting k = 1 recovers the classical EM
// mergesort, which is the baseline in experiments E3/E4.
//
// Bounds (Theorem 4.3): R(n) ≤ (k+1)⌈n/B⌉⌈log_{kM/B}(n/B)⌉ block reads and
// W(n) ≤ ⌈n/B⌉⌈log_{kM/B}(n/B)⌉ block writes.
//
// One deviation from the paper's pseudocode:
// Algorithm 2 filters phase-2 insertions only by "e.key < Q.max" with
// Q.max = +∞ when Q is not full. Taken literally this lets a round output
// records larger than a record rejected earlier in the same round (reject
// r while Q is full; Q later drains below M; a newly loaded block inserts
// and emits v > r), producing unsorted output. We therefore maintain the
// round's ceiling — the minimum record rejected or ejected this round —
// and admit e only if e < ceiling as well. Every record the original
// filter admits below a full queue's max is still admitted, each round
// still outputs at least M records when available (everything resident in
// a full Q at the first rejection is below the ceiling), so Lemma 4.1's
// accounting is unchanged.
package aemsort

import (
	"fmt"

	"asymsort/internal/aem"
	"asymsort/internal/inmem"
	"asymsort/internal/seq"
)

// recLess is the strict total order on records (see seq.TotalLess).
func recLess(a, b seq.Record) bool { return seq.TotalLess(a, b) }

// SelectionSortFile sorts src into dst (same length) using the k-pass
// selection sort of Lemma 4.2: each pass scans the input keeping the M
// smallest records above the previous pass's watermark in memory, then
// writes them out in order. For n ≤ kM this costs at most ⌈n/M⌉·⌈n/B⌉ ≤
// k⌈n/B⌉ reads and ⌈n/B⌉ writes, with primary memory M + B.
func SelectionSortFile(ma *aem.Machine, src, dst *aem.File) {
	n := src.Len()
	if dst.Len() != n {
		panic("aemsort: SelectionSortFile length mismatch")
	}
	if n == 0 {
		return
	}
	m, b := ma.M(), ma.B()
	if m%b != 0 {
		panic("aemsort: M must be a multiple of B")
	}
	bufM := ma.Alloc(m)
	bufB := ma.Alloc(b)
	defer bufM.Free()
	defer bufB.Free()

	// The in-memory candidate set lives in the bufM reservation; the treap
	// is its (free) access structure. A pass starts past the watermark
	// last: records below it, and the dups copies of it that earlier
	// passes wrote, are skipped, so exact duplicate records that straddle
	// a pass boundary are neither lost nor written twice. The zero
	// watermark admits every record.
	q := inmem.NewTreap(recLess, m)
	var last seq.Record
	dups := 0
	outOff := 0
	for outOff < n {
		q.Clear()
		skip := dups
		for blk := 0; blk < src.Blocks(); blk++ {
			cnt := src.ReadBlock(blk, bufB, 0)
			for i := 0; i < cnt; i++ {
				r := bufB.Get(i)
				if recLess(r, last) {
					continue // already written in an earlier pass
				}
				if r == last && skip > 0 {
					skip-- // a copy an earlier pass wrote
					continue
				}
				if q.Len() < m {
					q.Insert(r)
				} else if mx, _ := q.Max(); recLess(r, mx) {
					q.DeleteMax()
					q.Insert(r)
				}
			}
		}
		cnt := q.Len()
		if cnt == 0 {
			panic("aemsort: selection pass found no records (ledger bug)")
		}
		i := 0
		q.Ascend(func(r seq.Record) bool {
			bufM.Set(i, r)
			i++
			return true
		})
		dst.WriteRange(outOff, cnt, bufM, 0)
		// Advance the watermark: count the batch's trailing copies of its
		// last record, plus the earlier ones when the batch is all copies
		// of the old watermark.
		next, c := bufM.Get(cnt-1), 1
		for c < cnt && bufM.Get(cnt-1-c) == next {
			c++
		}
		if c == cnt && next == last {
			c += dups
		}
		last, dups = next, c
		outOff += cnt
	}
}

// Options configures MergeSortOpt.
type Options struct {
	// ExternalPointers keeps the run-pointer array I₁..I_l in secondary
	// memory instead of primary (the paper's remark after Lemma 4.1):
	// each pointer increment then reads and rewrites the pointer block,
	// roughly doubling the writes while barely increasing reads. Useful
	// when primary memory cannot spare the 2αkM/B pointer words.
	ExternalPointers bool
}

// MergeSort sorts in into a fresh file with AEM-MERGESORT (Algorithm 2)
// using branching factor l = kM/B and base case n ≤ kM. k = 1 is the
// classical EM mergesort. The machine needs slack for one load and one
// store block beyond M (construct it with slackBlocks ≥ 2).
func MergeSort(ma *aem.Machine, in *aem.File, k int) *aem.File {
	return MergeSortOpt(ma, in, k, Options{})
}

// MergeSortOpt is MergeSort with explicit Options.
func MergeSortOpt(ma *aem.Machine, in *aem.File, k int, opt Options) *aem.File {
	if k < 1 {
		panic("aemsort: k must be >= 1")
	}
	if ma.M()%ma.B() != 0 {
		panic("aemsort: M must be a multiple of B")
	}
	return mergeSortRec(ma, in, k, opt)
}

func mergeSortRec(ma *aem.Machine, in *aem.File, k int, opt Options) *aem.File {
	n := in.Len()
	if n <= k*ma.M() {
		dst := ma.NewFile(n)
		SelectionSortFile(ma, in, dst)
		return dst
	}
	l := k * ma.M() / ma.B()
	if l < 2 {
		l = 2
	}
	// Partition into at most l subarrays at block granularity.
	blocks := in.Blocks()
	per := (blocks + l - 1) / l
	runs := make([]*aem.File, 0, l)
	for b0 := 0; b0 < blocks; b0 += per {
		lo := b0 * ma.B()
		hi := (b0 + per) * ma.B()
		if hi > n {
			hi = n
		}
		runs = append(runs, mergeSortRec(ma, in.Slice(lo, hi), k, opt))
	}
	if len(runs) == 1 {
		return runs[0]
	}
	return mergeRuns(ma, runs, n, opt)
}

// entry is a queue element of the merge: the record, whether it is the
// last record of its block, its source run and its position there.
type entry struct {
	rec  seq.Record
	last bool
	sub  int32
	off  int
}

// entryLess orders entries by record, then by run and position, so
// exact duplicate records are distinct entries: the "already output"
// and round-ceiling tests never mistake an unmerged copy for a merged
// one. On distinct records it is recLess.
func entryLess(a, b entry) bool {
	if a.rec != b.rec {
		return recLess(a.rec, b.rec)
	}
	if a.sub != b.sub {
		return a.sub < b.sub
	}
	return a.off < b.off
}

// mergeRuns implements one l-way merge of Algorithm 2 (the while loop of
// lines 5–15) with the round-ceiling correction described in the package
// comment.
func mergeRuns(ma *aem.Machine, runs []*aem.File, n int, opt Options) *aem.File {
	m, b := ma.M(), ma.B()
	out := ma.NewFile(n)
	bufQ := ma.Alloc(m) // arena reservation for the in-memory queue
	load := ma.Alloc(b)
	store := ma.Alloc(b)
	defer bufQ.Free()
	defer load.Free()
	defer store.Free()
	_ = bufQ // the treap below is the access structure over this reservation

	q := inmem.NewTreap(entryLess, m)
	ptr := make([]int, len(runs)) // I_1..I_l: current block per run

	var lastE entry
	haveLast := false
	var ceiling entry
	haveCeiling := false

	lowerCeiling := func(e entry) {
		if !haveCeiling || entryLess(e, ceiling) {
			ceiling, haveCeiling = e, true
		}
	}

	processBlock := func(i int) {
		if ptr[i] >= runs[i].Blocks() {
			return
		}
		cnt := runs[i].ReadBlock(ptr[i], load, 0)
		for j := 0; j < cnt; j++ {
			e := entry{rec: load.Get(j), last: j == cnt-1, sub: int32(i), off: ptr[i]*b + j}
			if haveLast && !entryLess(lastE, e) {
				continue // already output
			}
			if haveCeiling && !entryLess(e, ceiling) {
				continue // above a record skipped this round; wait for next
			}
			if q.Len() >= m {
				mx, _ := q.Max()
				if entryLess(e, mx) {
					q.DeleteMax()
					lowerCeiling(mx)
					q.Insert(e)
				} else {
					lowerCeiling(e)
				}
			} else {
				q.Insert(e)
			}
		}
	}

	written := 0
	storeN := 0
	for written < n {
		// Phase 1: refill from every run's current block.
		haveCeiling = false
		for i := range runs {
			processBlock(i)
		}
		if q.Len() == 0 {
			panic(fmt.Sprintf("aemsort: merge stalled at %d/%d records", written, n))
		}
		// Phase 2: drain the queue, flushing full store blocks and
		// advancing run pointers at block boundaries.
		for q.Len() > 0 {
			e, _ := q.DeleteMin()
			store.Set(storeN, e.rec)
			storeN++
			written++
			lastE, haveLast = e, true
			if storeN == b {
				out.WriteRange(written-storeN, storeN, store, 0)
				storeN = 0
			}
			if e.last {
				i := int(e.sub)
				ptr[i]++
				if opt.ExternalPointers {
					// The pointer array lives in secondary memory: read
					// its block, update I_i, write it back.
					ma.ChargeRead(1)
					ma.ChargeWrite(1)
				}
				processBlock(i)
			}
		}
	}
	if storeN > 0 {
		out.WriteRange(written-storeN, storeN, store, 0)
	}
	return out
}

// LogBase returns ⌈log_base(x)⌉ computed by integer multiplication: the
// smallest t ≥ 1 with base^t ≥ x. Used by the Theorem 4.3 bound formulas.
func LogBase(base, x int) int {
	if base < 2 {
		panic("aemsort: LogBase needs base >= 2")
	}
	if x <= 1 {
		return 1
	}
	t := 0
	v := 1
	for v < x {
		// Guard overflow: once v exceeds x/base, one more multiply ends it.
		if v > (1<<62)/base {
			return t + 1
		}
		v *= base
		t++
	}
	return t
}

// TheoreticalReads returns the Theorem 4.3 read bound
// (k+1)·⌈n/B⌉·⌈log_{kM/B}(n/B)⌉.
func TheoreticalReads(n, m, b, k int) uint64 {
	nb := (n + b - 1) / b
	levels := LogBase(k*m/b, nb)
	return uint64(k+1) * uint64(nb) * uint64(levels)
}

// TheoreticalWrites returns the Theorem 4.3 write bound
// ⌈n/B⌉·⌈log_{kM/B}(n/B)⌉.
func TheoreticalWrites(n, m, b, k int) uint64 {
	nb := (n + b - 1) / b
	levels := LogBase(k*m/b, nb)
	return uint64(nb) * uint64(levels)
}
