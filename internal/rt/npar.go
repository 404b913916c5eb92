package rt

import (
	"math/bits"

	"asymsort/internal/seq"
)

// This file implements the native backend's slice-level parallel
// primitives: the executable counterparts of the metered subroutines in
// packages co and prim. They operate on raw slices under a Pool and are
// what the prims dispatchers (prims.go) route to off the simulators.

// sortLeaf is the sequential base-case size of the native mergesort.
const sortLeaf = 1 << 12

// SortRecords sorts recs in place: parallel mergesort with merge-path
// parallel merges and SeqSortRecords (radix) leaves. Slices of at most
// sortLeaf records, and every slice on a one-worker pool, go straight
// to the in-place leaf and allocate nothing. The order is the strict
// total order seq.TotalLess, matching every metered sort in the
// repository, so native and simulated runs produce identical outputs.
func SortRecords(p *Pool, recs []seq.Record) {
	if len(recs) <= sortLeaf || p.tokens == nil {
		SeqSortRecords(recs)
		return
	}
	buf := make([]seq.Record, len(recs))
	msort(p, recs, buf, false)
}

// radixCutoff is the bucket size below which SeqSortRecords finishes
// with insertion sort: a 256-bucket digit pass costs more than the few
// inversions of a tiny bucket.
const radixCutoff = 32

// SeqSortRecords sorts a in place by the repository's total record
// order — the sequential leaf sort of the native backend. It is an
// in-place MSD radix sort (American flag sort) on 8-bit digits of the
// 128-bit (Key, Val) composite, whose unsigned digit order is exactly
// seq.TotalLess. Each bucket starts at the highest bit where its keys
// differ, read from the OR and AND of the keys, and moves on to Val
// digits once every Key bit agrees; a bucket whose records all agree is
// done. Every digit consumes at least 8 of the 128 bits, so recursion
// is at most 16 digits deep, and buckets under radixCutoff records
// finish with insertion sort.
func SeqSortRecords(a []seq.Record) {
	if len(a) < radixCutoff {
		insertionRecs(a)
		return
	}
	or, and := a[0].Key, a[0].Key
	for _, r := range a[1:] {
		or |= r.Key
		and &= r.Key
	}
	if d := or ^ and; d != 0 {
		flagSort(a, ^uint64(0), d)
		return
	}
	or, and = a[0].Val, a[0].Val
	for _, r := range a[1:] {
		or |= r.Val
		and &= r.Val
	}
	if d := or ^ and; d != 0 {
		flagSort(a, 0, d)
	}
}

// flagSort permutes a into 256 buckets by the 8-bit digit whose top bit
// is the highest set bit of diff, then sorts every bucket. The digit is
// read from Key when keyMask is all ones and from Val when it is zero;
// bits above diff's top bit agree across a, so they never split it.
func flagSort(a []seq.Record, keyMask, diff uint64) {
	valMask := ^keyMask
	shift := max(bits.Len64(diff)-8, 0)
	digit := func(r seq.Record) uint8 { return uint8((r.Key&keyMask | r.Val&valMask) >> shift) }
	var head, end [256]int
	for i := range a {
		end[digit(a[i])]++
	}
	off := 0
	for b, c := range end {
		head[b] = off
		off += c
		end[b] = off
	}
	// Cycle leader: take the first unplaced record of bucket b and swap
	// it into its own bucket's next free slot until one belonging to b
	// comes back.
	for b := range head {
		for h := head[b]; h < end[b]; h = head[b] {
			v := a[h]
			for d := digit(v); int(d) != b; d = digit(v) {
				j := head[d]
				head[d]++
				v, a[j] = a[j], v
			}
			a[h] = v
			head[b]++
		}
	}
	lo := 0
	for _, hi := range end {
		if hi-lo > 1 {
			SeqSortRecords(a[lo:hi])
		}
		lo = hi
	}
}

// insertionRecs sorts a small a in place under seq.TotalLess.
func insertionRecs(a []seq.Record) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && seq.TotalLess(v, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// msort sorts a, leaving the result in b when toBuf is set and in a
// otherwise. a and b have equal length and may not alias.
func msort(p *Pool, a, b []seq.Record, toBuf bool) {
	n := len(a)
	if n <= sortLeaf {
		if toBuf {
			copy(b, a)
			SeqSortRecords(b)
		} else {
			SeqSortRecords(a)
		}
		return
	}
	mid := n / 2
	p.Run(
		func() { msort(p, a[:mid], b[:mid], !toBuf) },
		func() { msort(p, a[mid:], b[mid:], !toBuf) },
	)
	if toBuf {
		mergeInto(p, a[:mid], a[mid:], b)
	} else {
		mergeInto(p, b[:mid], b[mid:], a)
	}
}

// mergeInto merges sorted x and y into out (len(x)+len(y) == len(out))
// by cutting the output into per-worker chunks located with diagonal
// searches — the merge-path scheme of prim.Merge, natively.
func mergeInto(p *Pool, x, y, out []seq.Record) {
	total := len(x) + len(y)
	if p.tokens == nil || total <= 2*sortLeaf {
		seqMergeInto(x, y, out)
		return
	}
	chunks := 4 * p.procs
	L := (total + chunks - 1) / chunks
	p.ForGrain(chunks, 1, func(t int) {
		k0 := t * L
		if k0 >= total {
			return
		}
		k1 := k0 + L
		if k1 > total {
			k1 = total
		}
		i0 := diagRecords(x, y, k0)
		i1 := diagRecords(x, y, k1)
		seqMergeInto(x[i0:i1], y[k0-i0:k1-i1], out[k0:k1])
	})
}

// diagRecords returns how many elements of x fall among the first k of
// the merge of x and y, ties favouring x (stable left priority).
func diagRecords(x, y []seq.Record, k int) int {
	lo := 0
	if k > len(y) {
		lo = k - len(y)
	}
	hi := k
	if hi > len(x) {
		hi = len(x)
	}
	for lo < hi {
		i := int(uint(lo+hi) >> 1)
		j := k - i - 1
		if !seq.TotalLess(y[j], x[i]) {
			lo = i + 1
		} else {
			hi = i
		}
	}
	return lo
}

// seqMergeInto sequentially merges sorted x and y into out.
func seqMergeInto(x, y, out []seq.Record) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if !seq.TotalLess(y[j], x[i]) {
			out[k] = x[i]
			i++
		} else {
			out[k] = y[j]
			j++
		}
		k++
	}
	k += copy(out[k:], x[i:])
	copy(out[k:], y[j:])
}

// scanParallelMin is the size below which the native scan runs
// sequentially — a memory-bound pass gains nothing from forking under
// this.
const scanParallelMin = 1 << 14

// scanSlice computes the exclusive prefix sum of a in place and returns
// the total: per-block sums in parallel, a sequential scan of the block
// sums, then a parallel per-block downsweep.
func scanSlice(p *Pool, a []uint64) uint64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	if p.tokens == nil || n < scanParallelMin {
		return exclScanSeq(a, 0)
	}
	blocks := 4 * p.procs
	bl := (n + blocks - 1) / blocks
	sums := make([]uint64, blocks)
	p.ForGrain(blocks, 1, func(t int) {
		lo, hi := t*bl, (t+1)*bl
		if lo >= n {
			return
		}
		if hi > n {
			hi = n
		}
		var s uint64
		for _, v := range a[lo:hi] {
			s += v
		}
		sums[t] = s
	})
	total := exclScanSeq(sums, 0)
	p.ForGrain(blocks, 1, func(t int) {
		lo, hi := t*bl, (t+1)*bl
		if lo >= n {
			return
		}
		if hi > n {
			hi = n
		}
		exclScanSeq(a[lo:hi], sums[t])
	})
	return total
}

// exclScanSeq exclusive-scans a in place starting from acc, returning
// the final accumulated total.
func exclScanSeq(a []uint64, acc uint64) uint64 {
	for i := range a {
		v := a[i]
		a[i] = acc
		acc += v
	}
	return acc
}

// packSlice returns the records of in whose index satisfies keep, in
// order: per-block counts, a scan, and a parallel scatter.
func packSlice(p *Pool, in []seq.Record, keep func(int) bool) []seq.Record {
	n := len(in)
	if p.tokens == nil || n < scanParallelMin {
		var out []seq.Record
		for i := 0; i < n; i++ {
			if keep(i) {
				out = append(out, in[i])
			}
		}
		return out
	}
	blocks := 4 * p.procs
	bl := (n + blocks - 1) / blocks
	offs := make([]uint64, blocks)
	p.ForGrain(blocks, 1, func(t int) {
		lo, hi := t*bl, (t+1)*bl
		if lo >= n {
			return
		}
		if hi > n {
			hi = n
		}
		var cnt uint64
		for i := lo; i < hi; i++ {
			if keep(i) {
				cnt++
			}
		}
		offs[t] = cnt
	})
	total := exclScanSeq(offs, 0)
	out := make([]seq.Record, total)
	p.ForGrain(blocks, 1, func(t int) {
		lo, hi := t*bl, (t+1)*bl
		if lo >= n {
			return
		}
		if hi > n {
			hi = n
		}
		w := offs[t]
		for i := lo; i < hi; i++ {
			if keep(i) {
				out[w] = in[i]
				w++
			}
		}
	})
	return out
}

// countingSortSlice stably sorts in by key(r) ∈ [0, buckets), returning
// the sorted copy and the bucket boundaries — the native counterpart of
// prim.CountingSort, with the same group/histogram/scan/scatter shape.
func countingSortSlice(p *Pool, in []seq.Record, buckets int, key func(seq.Record) int) ([]seq.Record, []int) {
	n := len(in)
	if buckets <= 0 {
		panic("rt: countingSortSlice needs buckets > 0")
	}
	groupSize := 1 + CeilLog2(n+1)*4
	if groupSize < buckets {
		groupSize = buckets
	}
	groups := (n + groupSize - 1) / groupSize
	if groups == 0 {
		groups = 1
	}
	// hist[k*groups + g]: bucket-major so one scan yields stable offsets.
	hist := make([]uint64, buckets*groups)
	p.ForGrain(groups, 1, func(g int) {
		lo, hi := g*groupSize, (g+1)*groupSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			k := key(in[i])
			if k < 0 || k >= buckets {
				panic("rt: countingSortSlice key out of range")
			}
			hist[k*groups+g]++
		}
	})
	scanSlice(p, hist)
	bounds := make([]int, buckets+1)
	for k := 0; k < buckets; k++ {
		bounds[k] = int(hist[k*groups])
	}
	bounds[buckets] = n
	out := make([]seq.Record, n)
	p.ForGrain(groups, 1, func(g int) {
		lo, hi := g*groupSize, (g+1)*groupSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			r := in[i]
			slot := key(r)*groups + g
			out[hist[slot]] = r
			hist[slot]++
		}
	})
	return out, bounds
}
