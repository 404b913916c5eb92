// Package prim provides the parallel building blocks the paper's PRAM and
// cache-oblivious algorithms are assembled from: prefix sums, packing,
// merging, parallel mergesort, stable counting sort (the "integer sort"
// of Lemma 3.1), matrix transpose, and binary search — all instrumented on
// the work-depth model of package wd with the bounds Section 5.1 quotes:
//
//	prefix sums:  O(n) reads/writes, O(ω log n) depth
//	merge:        O(n+m) reads/writes, O(ω log(n+m)) depth
//	mergesort:    O(n log n) reads/writes, O(ω log² n) depth
//	transpose:    O(nm) reads/writes, O(ω log(n+m)) depth
package prim

import (
	"math/bits"
	"sort"

	"asymsort/internal/seq"
	"asymsort/internal/wd"
)

// ceilLog2 returns ⌈log₂ n⌉ for n ≥ 1, and 0 for n ≤ 1.
func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Scan computes the exclusive prefix sum of a in place and returns the
// total. Work O(n) reads and writes; depth O(ω log n) — the classic
// two-phase (upsweep/downsweep) parallel scan. Non-power-of-two lengths
// are zero-padded into a scratch array (O(n) extra work, same depth).
func Scan(c *wd.T, a *wd.Array[uint64]) uint64 {
	n := a.Len()
	if n == 0 {
		return 0
	}
	if n&(n-1) == 0 {
		return scanPow2(c, a)
	}
	p := 1 << bits.Len(uint(n))
	pad := wd.NewArray[uint64](p)
	c.ParFor(n, func(c *wd.T, i int) { pad.Set(c, i, a.Get(c, i)) })
	total := scanPow2(c, pad)
	c.ParFor(n, func(c *wd.T, i int) { a.Set(c, i, pad.Get(c, i)) })
	return total
}

// scanPow2 runs the full two-phase scan on a power-of-two-length array.
func scanPow2(c *wd.T, a *wd.Array[uint64]) uint64 {
	n := a.Len()
	for d := 1; d < n; d *= 2 {
		stride := 2 * d
		c.ParFor(n/stride, func(c *wd.T, i int) {
			lo := i*stride + d - 1
			hi := i*stride + stride - 1
			a.Set(c, hi, a.Get(c, hi)+a.Get(c, lo))
		})
	}
	return downsweep(c, a)
}

// downsweep completes an exclusive scan whose upsweep has been performed,
// returning the total. n must be a power of two.
func downsweep(c *wd.T, a *wd.Array[uint64]) uint64 {
	n := a.Len()
	total := a.Get(c, n-1)
	a.Set(c, n-1, 0)
	for d := n / 2; d >= 1; d /= 2 {
		stride := 2 * d
		c.ParFor(n/stride, func(c *wd.T, i int) {
			lo := i*stride + d - 1
			hi := i*stride + stride - 1
			t := a.Get(c, lo)
			a.Set(c, lo, a.Get(c, hi))
			a.Set(c, hi, a.Get(c, hi)+t)
		})
	}
	return total
}

// Reduce returns the sum of a. O(n) reads, O(n) writes for the reduction
// tree internal nodes, O(ω log n) depth. (A PRAM reduction writes its
// partial sums; the sequential simulator materializes the same tree.)
func Reduce(c *wd.T, a *wd.Array[uint64]) uint64 {
	n := a.Len()
	if n == 0 {
		return 0
	}
	cur := a
	for cur.Len() > 1 {
		m := cur.Len()
		next := wd.NewArray[uint64]((m + 1) / 2)
		c.ParFor(next.Len(), func(c *wd.T, i int) {
			v := cur.Get(c, 2*i)
			if 2*i+1 < m {
				v += cur.Get(c, 2*i+1)
			}
			next.Set(c, i, v)
		})
		cur = next
	}
	return cur.Get(c, 0)
}

// Pack copies the records of in whose index satisfies keep into a fresh
// dense array, preserving order. O(n) reads/writes, O(ω log n) depth.
// keep is consulted once per index and must be cheap (register compute);
// any memory reads it performs should go through instrumented containers.
func Pack(c *wd.T, in *wd.Array[seq.Record], keep func(c *wd.T, i int) bool) *wd.Array[seq.Record] {
	n := in.Len()
	flags := wd.NewArray[uint64](n)
	c.ParFor(n, func(c *wd.T, i int) {
		v := uint64(0)
		if keep(c, i) {
			v = 1
		}
		flags.Set(c, i, v)
	})
	total := Scan(c, flags)
	out := wd.NewArray[seq.Record](int(total))
	c.ParFor(n, func(c *wd.T, i int) {
		pos := flags.Get(c, i)
		// Re-evaluate keep: the flag array now holds offsets, so the
		// predicate result must be recomputed (one extra read at most).
		if keep(c, i) {
			out.Set(c, int(pos), in.Get(c, i))
		}
	})
	return out
}

// mergeChunkLen is the sequential chunk length of the merge-path merge.
// Θ(log(n+m)) keeps the per-chunk sequential cost within the O(ω log(n+m))
// depth budget.
func mergeChunkLen(total int) int {
	l := ceilLog2(total)
	if l < 8 {
		l = 8
	}
	return l
}

// diagSearch returns how many elements of a appear among the first k
// elements of the merge of a and b, with ties resolved in favour of a
// (stable left-priority). Charges O(log min(k, n)) reads.
func diagSearch(c *wd.T, a, b *wd.Array[seq.Record], k int) int {
	n, m := a.Len(), b.Len()
	lo := 0
	if k > m {
		lo = k - m
	}
	hi := k
	if hi > n {
		hi = n
	}
	for lo < hi {
		i := int(uint(lo+hi) >> 1)
		j := k - i - 1
		if a.Get(c, i).Key <= b.Get(c, j).Key {
			lo = i + 1
		} else {
			hi = i
		}
	}
	return lo
}

// Merge merges sorted arrays a and b into a fresh sorted array using the
// merge-path technique: the output is cut into Θ((n+m)/log(n+m)) chunks,
// each chunk's source ranges are located with a diagonal binary search,
// and chunks merge sequentially in parallel with each other.
// O(n+m) reads/writes, O(ω log(n+m)) depth.
func Merge(c *wd.T, a, b *wd.Array[seq.Record]) *wd.Array[seq.Record] {
	n, m := a.Len(), b.Len()
	total := n + m
	out := wd.NewArray[seq.Record](total)
	if total == 0 {
		return out
	}
	L := mergeChunkLen(total)
	chunks := (total + L - 1) / L
	c.ParFor(chunks, func(c *wd.T, t int) {
		k0 := t * L
		k1 := k0 + L
		if k1 > total {
			k1 = total
		}
		i0 := diagSearch(c, a, b, k0)
		i1 := diagSearch(c, a, b, k1)
		j0, j1 := k0-i0, k1-i1
		// Sequential merge of a[i0:i1] and b[j0:j1] into out[k0:k1].
		i, j, k := i0, j0, k0
		for i < i1 && j < j1 {
			av, bv := a.Get(c, i), b.Get(c, j)
			if av.Key <= bv.Key {
				out.Set(c, k, av)
				i++
			} else {
				out.Set(c, k, bv)
				j++
			}
			k++
		}
		for i < i1 {
			out.Set(c, k, a.Get(c, i))
			i++
			k++
		}
		for j < j1 {
			out.Set(c, k, b.Get(c, j))
			j++
			k++
		}
	})
	return out
}

// mergeSortBase is the size below which MergeSort switches to a sequential
// binary-insertion sort.
const mergeSortBase = 16

// MergeSort sorts in into a fresh array with parallel mergesort:
// O(n log n) reads/writes and O(ω log² n) depth. This is the stand-in for
// Cole's mergesort used when measuring real (rather than oracle) costs;
// see OracleColeSort for the depth-O(ω log n) cost oracle.
func MergeSort(c *wd.T, in *wd.Array[seq.Record]) *wd.Array[seq.Record] {
	n := in.Len()
	if n <= mergeSortBase {
		out := wd.NewArray[seq.Record](n)
		seqSortInto(c, in, out)
		return out
	}
	mid := n / 2
	var left, right *wd.Array[seq.Record]
	c.Parallel(
		func(c *wd.T) { left = MergeSort(c, in.Slice(0, mid)) },
		func(c *wd.T) { right = MergeSort(c, in.Slice(mid, n)) },
	)
	return Merge(c, left, right)
}

// seqSortInto sorts in into out (same length) with a sequential binary
// insertion sort charged per access.
func seqSortInto(c *wd.T, in, out *wd.Array[seq.Record]) {
	n := in.Len()
	for i := 0; i < n; i++ {
		v := in.Get(c, i)
		// Binary search insertion point among out[0:i].
		lo, hi := 0, i
		for lo < hi {
			mid := (lo + hi) / 2
			if out.Get(c, mid).Key <= v.Key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		// Shift and insert.
		for j := i; j > lo; j-- {
			out.Set(c, j, out.Get(c, j-1))
		}
		out.Set(c, lo, v)
	}
}

// OracleColeSort sorts in into a fresh array, charging the published cost
// of Cole's parallel mergesort [Cole '88] instead of executing its
// intricate pipelined structure: O(n log n) reads and writes (n⌈lg n⌉ of
// each) and O(ω log n) depth. The paper invokes Cole's algorithm as a
// black box for sorting o(n)-size samples (Section 3, step 1); this oracle
// is the substitution that keeps the end-to-end measured depth of
// Algorithm 1 at the theorem's O(ω log n).
func OracleColeSort(c *wd.T, in *wd.Array[seq.Record]) *wd.Array[seq.Record] {
	n := in.Len()
	out := wd.NewArray[seq.Record](n)
	src := in.Unwrap()
	dst := out.Unwrap()
	copy(dst, src)
	sort.Slice(dst, func(i, j int) bool { return dst[i].Key < dst[j].Key })
	lg := uint64(ceilLog2(n))
	if lg == 0 {
		lg = 1
	}
	c.ChargeSpan(uint64(n)*lg, uint64(n)*lg, c.Omega()*lg)
	return out
}

// Transpose returns the transpose of the rows×cols row-major matrix a as a
// cols×rows row-major matrix. O(rows·cols) reads/writes, O(ω) depth on the
// flat PRAM formulation (within the O(ω log) bound the paper quotes).
func Transpose[V any](c *wd.T, a *wd.Array[V], rows, cols int) *wd.Array[V] {
	if rows*cols != a.Len() {
		panic("prim: Transpose dimensions disagree with array length")
	}
	out := wd.NewArray[V](rows * cols)
	c.ParFor(rows*cols, func(c *wd.T, idx int) {
		r := idx / cols
		col := idx % cols
		out.Set(c, col*rows+r, a.Get(c, idx))
	})
	return out
}

// CountingSort stably sorts in by key(r) ∈ [0, buckets) — the "integer
// sort on the bucket number" of Lemma 3.1. It splits the input into groups,
// builds per-group histograms in parallel, scans the histogram matrix in
// bucket-major order for stable offsets, and scatters. O(n + G·buckets)
// reads/writes; depth O(ω(n/G + buckets + log n)) for G groups.
// It returns the sorted array and the bucket boundary offsets (length
// buckets+1).
func CountingSort(c *wd.T, in *wd.Array[seq.Record], buckets int, key func(seq.Record) int) (*wd.Array[seq.Record], []int) {
	n := in.Len()
	if buckets <= 0 {
		panic("prim: CountingSort needs buckets > 0")
	}
	groupSize := 1 + ceilLog2(n+1)*4
	if groupSize < buckets {
		groupSize = buckets
	}
	groups := (n + groupSize - 1) / groupSize
	if groups == 0 {
		groups = 1
	}
	// hist[k*groups + g] = count of key k in group g (bucket-major so a
	// single scan yields stable offsets).
	hist := wd.NewArray[uint64](buckets * groups)
	c.ParFor(groups, func(c *wd.T, g int) {
		lo, hi := g*groupSize, (g+1)*groupSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			k := key(in.Get(c, i))
			if k < 0 || k >= buckets {
				panic("prim: CountingSort key out of range")
			}
			slot := k*groups + g
			hist.Set(c, slot, hist.Get(c, slot)+1)
		}
	})
	Scan(c, hist)
	// Bucket boundaries: offset of bucket k is hist[k*groups + 0] read
	// after the scan; gather before scattering mutates nothing.
	bounds := make([]int, buckets+1)
	for k := 0; k < buckets; k++ {
		bounds[k] = int(hist.Get(c, k*groups))
	}
	bounds[buckets] = n
	c.Write(uint64(buckets) + 1) // materializing the boundary table
	out := wd.NewArray[seq.Record](n)
	c.ParFor(groups, func(c *wd.T, g int) {
		lo, hi := g*groupSize, (g+1)*groupSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			r := in.Get(c, i)
			k := key(r)
			slot := k*groups + g
			pos := hist.Get(c, slot)
			out.Set(c, int(pos), r)
			hist.Set(c, slot, pos+1)
		}
	})
	return out, bounds
}

// SearchSplitters returns the index of the bucket record r falls into
// given sorted splitter keys: the number of splitters with key ≤ r.Key.
// Charges O(log(len(splitters))) reads.
func SearchSplitters(c *wd.T, splitters *wd.Array[uint64], rKey uint64) int {
	lo, hi := 0, splitters.Len()
	for lo < hi {
		mid := (lo + hi) / 2
		if splitters.Get(c, mid) <= rKey {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
