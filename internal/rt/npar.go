package rt

import (
	"math"
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
// to the leaf with scratch. A longer slice uses scratch as its merge
// buffer when it holds len(recs) records, and allocates one otherwise.
// scratch is SeqSortSmallest's optional working space, clobbered and
// not overlapping recs; it is variadic so that a caller with none
// writes SortRecords(p, recs). The order is the strict total order
// seq.TotalLess, matching every metered sort in the repository, so
// native and simulated runs produce identical outputs.
func SortRecords(p *Pool, recs []seq.Record, scratch ...seq.Record) {
	if len(recs) <= sortLeaf || p.tokens == nil {
		SeqSortRecords(recs, scratch)
		return
	}
	if len(scratch) < len(recs) {
		scratch = make([]seq.Record, len(recs))
	}
	msort(p, recs, scratch[:len(recs)], false)
}

// radixCutoff is the bucket size below which the leaf sort finishes
// with insertion sort: a digit pass costs more than the few inversions
// of a tiny bucket.
const radixCutoff = 32

// scatterBits caps the digit of an out-of-place pass: up to 2 048
// records it takes about one bucket per record, and its counts stay on
// the stack.
const scatterBits = 11

// SeqSortRecords sorts a by the repository's total record order — the
// sequential leaf sort of the native backend — with scratch as
// SeqSortSmallest's.
func SeqSortRecords(a, scratch []seq.Record) { SeqSortSmallest(a, len(a), scratch) }

// SeqSortSmallest leaves the m smallest records of a, sorted, in a[:m]
// and the rest of a, in no particular order, in a[m:]. It is an MSD
// radix sort on the 128-bit (Key, Val) composite, whose unsigned digit
// order is exactly seq.TotalLess. Each pass digits a bucket by its keys
// from the top bit where they differ, and by its payloads once every
// key is the same; a bucket whose records all agree is done, and a
// bucket under radixCutoff records finishes with insertion sort. A
// pass that recurses consumes at least 6 of a component's bits or all
// that still differ, so recursion is at most 23 passes deep. Buckets
// that start at or past m are not sorted.
//
// scratch is optional working space whose contents the sort clobbers;
// it must not overlap a, and the sort allocates nothing. A slice, or a
// bucket, that fits in scratch is sorted out of place (scatterSort):
// one count, one branch-free scatter into scratch, and one insertion
// pass that brings each run of small buckets back. A slice that does
// not fit takes an in-place American flag pass on an 8-bit digit
// (flagSort) and recurses into its buckets with the same scratch, so
// with no scratch the whole sort is in place.
func SeqSortSmallest(a []seq.Record, m int, scratch []seq.Record) {
	// scatterSort counts in 32 bits.
	if len(scratch) >= len(a) && uint64(len(a)) <= math.MaxUint32 {
		radixSort(a, scratch[:len(a)], m, false)
		return
	}
	if len(a) < radixCutoff {
		insertInto(a, a)
		return
	}
	keyMask, or, and := ^uint64(0), a[0].Key, a[0].Key
	for _, r := range a[1:] {
		or |= r.Key
		and &= r.Key
	}
	if or == and {
		keyMask, or, and = 0, a[0].Val, a[0].Val
		for _, r := range a[1:] {
			or |= r.Val
			and &= r.Val
		}
		if or == and {
			return
		}
	}
	// The buckets are finished here, not in flagSort: with scratch live
	// across the cycle leader's loop, the in-place sort of 1 024
	// records ran about 3% slower.
	var end [256]int
	flagSort(a, m, keyMask, or^and, &end)
	lo := 0
	for _, hi := range end {
		if lo >= m {
			break
		}
		if hi-lo < radixCutoff {
			insertInto(a[lo:hi], a[lo:hi])
		} else {
			SeqSortSmallest(a[lo:hi], m-lo, scratch)
		}
		lo = hi
	}
}

// radixSort sorts the records of x as far as its m smallest, leaving
// them in y when toY is set and in x otherwise; the other slice is
// clobbered. x and y have equal lengths and do not overlap.
func radixSort(x, y []seq.Record, m int, toY bool) {
	if len(x) < radixCutoff {
		if toY {
			insertInto(y, x)
		} else {
			insertInto(x, x)
		}
		return
	}
	keyMask, base, span := digitRange(x)
	if span == 0 {
		if toY {
			copy(y, x)
		}
		return
	}
	scatterSort(x, y, m, toY, keyMask, base, span)
}

// digitRange returns the smallest key of a non-empty a and the span
// up to its largest, with an all-ones keyMask, or, when every key is
// the same, the smallest payload and the payloads' span, with a zero
// keyMask. A zero span means every record of a is the same.
func digitRange(a []seq.Record) (keyMask, lo, span uint64) {
	lo, hi := a[0].Key, a[0].Key
	for _, r := range a[1:] {
		lo, hi = min(lo, r.Key), max(hi, r.Key)
	}
	if lo != hi {
		return ^uint64(0), lo, hi - lo
	}
	lo, hi = a[0].Val, a[0].Val
	for _, r := range a[1:] {
		lo, hi = min(lo, r.Val), max(hi, r.Val)
	}
	return 0, lo, hi - lo
}

// scatterSort is radixSort's pass: it counts x by a digit of up to
// scatterBits bits (about one bucket per record) of each record's
// distance from base, whose top bit is span's, scatters x into y by
// that count, and finishes every bucket that starts below m. A run of
// consecutive buckets of at most radixCutoff records takes one
// insertion pass — records never cross a bucket boundary, so it costs
// only the inversions inside each bucket — and a larger bucket recurses
// with x and y swapped. The digit is read from Key when keyMask is all
// ones and from Val when it is zero.
func scatterSort(x, y []seq.Record, m int, toY bool, keyMask, base, span uint64) {
	width := bits.Len64(span)
	nb := min(bits.Len(uint(len(x)-1)), scatterBits, width)
	shift := uint(width - nb)
	valMask := ^keyMask
	out := x
	if toY {
		out = y
	}
	var end [1 << scatterBits]uint32
	for _, r := range x {
		end[((r.Key&keyMask|r.Val&valMask)-base)>>shift&(1<<scatterBits-1)]++
	}
	var off uint32
	for d, c := range end[:1<<nb] {
		end[d] = off
		off += c
	}
	for _, r := range x {
		d := ((r.Key&keyMask | r.Val&valMask) - base) >> shift & (1<<scatterBits - 1)
		y[end[d]] = r
		end[d]++
	}
	run, lo := 0, 0 // y[run:lo] is the pending run of small buckets
	for _, e := range end[:1<<nb] {
		if lo >= m {
			break
		}
		hi := int(e)
		if hi-lo > radixCutoff {
			insertInto(out[run:lo], y[run:lo])
			radixSort(y[lo:hi], x[lo:hi], m-lo, !toY)
			run = hi
		}
		lo = hi
	}
	insertInto(out[run:lo], y[run:lo])
	if !toY {
		copy(x[lo:], y[lo:]) // the buckets past m, unsorted
	}
}

// flagSort permutes a in place into 256 buckets by the 8-bit digit
// whose top bit is the highest set bit of diff, and leaves in end[b]
// the offset where bucket b ends; end must be zero on entry. Buckets
// that start at or past m keep their records in no particular order.
// The digit is read from Key when keyMask is all ones and from Val when
// it is zero; bits above diff's top bit agree across a, so they never
// split it. Unlike scatterSort's, the digit takes no subtraction: it
// sits on the cycle leader's chain of dependent loads.
func flagSort(a []seq.Record, m int, keyMask, diff uint64, end *[256]int) {
	valMask := ^keyMask
	shift := max(bits.Len64(diff)-8, 0)
	digit := func(r seq.Record) uint8 { return uint8((r.Key&keyMask | r.Val&valMask) >> shift) }
	var head [256]int
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
	// comes back. Once the buckets below m are full, the records left
	// over all belong past them.
	for b := range head {
		if b > 0 && end[b-1] >= m {
			break
		}
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
}

// insertInto insertion-sorts src into dst, of the same length, under
// seq.TotalLess. dst may be src itself: record i is read before any
// shift reaches it, and insertInto(a, a) is the in-place insertion
// sort. It stays small enough to inline into the bucket loops.
func insertInto(dst, src []seq.Record) {
	for i, v := range src {
		j := i
		for ; j > 0 && seq.TotalLess(v, dst[j-1]); j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = v
	}
}

// msort sorts a, leaving the result in b when toBuf is set and in a
// otherwise. a and b have equal length and may not alias. A leaf sorts
// out of place between its halves of a and b.
func msort(p *Pool, a, b []seq.Record, toBuf bool) {
	n := len(a)
	if n <= sortLeaf {
		radixSort(a, b, n, toBuf)
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
