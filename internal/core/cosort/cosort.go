// Package cosort implements Section 5.1 of the paper: the low-depth,
// cache-oblivious sorting algorithm with asymmetric read and write costs,
// adapted from Blelloch–Gibbons–Simhadri (SPAA'10). Figure 1's steps map
// to the functions here:
//
//	(a) split into √(nω) subarrays of size √(n/ω), sort recursively
//	    — sortSubarrays
//	(b) sample every (log n)-th element per sorted subarray, mergesort the
//	    samples, pick √(n/ω)−1 splitters, locate per-row bucket boundaries
//	    by merging splitters with each row — sampleSplitters, countBuckets
//	(c) prefix sums over the transposed count matrix place every bucket's
//	    pieces contiguously — scatterToBuckets
//	(d) ω−1 extra pivots per bucket; ω scan rounds partition each bucket
//	    into ω sub-buckets, each sorted recursively — refineBucket
//
// The variant with Classic=true is the symmetric original (ω treated as 1
// for the structure: √n subarrays, √n buckets, no step (d)) — the E9
// baseline. Theorem 5.1's bounds: O((ωn/B)·log_{ωM}(ωn)) reads,
// O((n/B)·log_{ωM}(ωn)) writes.
//
// The algorithm is written against the dual-backend runtime of package
// rt: Sort runs it on the metered cache-oblivious substrate (identical
// charges to the pre-rt implementation), SortOn runs it on any backend,
// and SortNative runs it at hardware speed on real slices with parallel
// goroutine execution. The hot inner loops — copy-in/copy-out, the
// sample gather, splitter merge-path scans, the bucket transpose
// scatter, and step (d)'s partition passes — go through the rt span
// operations (rt.CopySpan, rt.ForSpan, …) and raw-slice kernels: the
// metered backends charge exactly the per-element loops they replace,
// while the native backend runs them with zero interface dispatch
// (leaf sorts and sample sorts additionally take slice-level fast
// paths; the fork-join structure is shared).
//
// One deviation: the ω partition rounds of step
// (d) are implemented as count/scan/scatter passes whose depth is
// O(ω log n) each, so a level's measured depth carries an O(ω² log n)
// term where the paper claims the mergesort's O(ω log²(n/ω)) dominates;
// for the ω ≤ log n regimes the experiments sweep, the claimed term still
// dominates.
package cosort

import (
	"asymsort/internal/co"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
)

// Options configures Sort.
type Options struct {
	// Seed drives pivot sampling in step (d).
	Seed uint64
	// Classic selects the symmetric (ω=1 structure) baseline.
	Classic bool
}

// smallCutoff is the leaf size: below it a selection sort (write-light:
// O(n²) reads, O(n) writes) finishes the job.
const smallCutoff = 32

// nativeLeaf is the native backend's leaf size: below it the recursive
// √(nω)-way structure — which exists to economize writes and cache
// misses in the cost models — buys nothing on hardware, so the leaf is
// one sequential slice sort. The total order makes the output identical
// to the metered recursion's; cross-leaf parallelism comes from the
// enclosing ParFor.
const nativeLeaf = 1 << 12

// Sort sorts in into a fresh array on the metered cache-oblivious
// substrate, charging cache misses and work/depth to c.
func Sort(c *co.Ctx, in *co.Arr[seq.Record], opt Options) *co.Arr[seq.Record] {
	return rt.UnwrapCO(SortOn(rt.NewSimCO(c), rt.WrapCO(in), opt))
}

// SortNative sorts recs into a fresh slice at hardware speed on pool.
// omega is the structural write-cost parameter (it shapes the recursion
// exactly as on the metered backends; 1 gives the classic structure).
// recs is read but not modified.
func SortNative(pool *rt.Pool, recs []seq.Record, omega uint64, opt Options) []seq.Record {
	c := rt.NewNative(pool, omega)
	return SortOn(c, rt.WrapSlice(c, recs), opt).Unwrap()
}

// SortOn sorts in into a fresh array on any rt backend.
func SortOn(c rt.Ctx, in rt.Arr[seq.Record], opt Options) rt.Arr[seq.Record] {
	out := rt.NewArr[seq.Record](c, in.Len())
	sortInto(c, in, out, opt)
	return out
}

// sortInto sorts in into out (equal lengths).
func sortInto(c rt.Ctx, in, out rt.Arr[seq.Record], opt Options) {
	n := in.Len()
	if n != out.Len() {
		panic("cosort: length mismatch")
	}
	if rawOut := rt.Raw(out); rawOut != nil && n <= nativeLeaf {
		copy(rawOut, rt.Raw(in))
		rt.SeqSortRecords(rawOut, nil)
		return
	}
	if n <= smallCutoff {
		selectionSortInto(c, in, out)
		return
	}
	omega := int(c.Omega())
	if opt.Classic {
		omega = 1
	}

	// (a) √(nω) subarrays sorted recursively into a workspace.
	numSub := isqrtCeil(n * omega)
	if numSub > n {
		numSub = n
	}
	if numSub < 2 {
		numSub = 2
	}
	work := rt.NewArr[seq.Record](c, n)
	bounds := evenBounds(n, numSub)
	c.ParFor(numSub, func(c rt.Ctx, s int) {
		lo, hi := bounds[s], bounds[s+1]
		sortInto(c, in.Slice(lo, hi), work.Slice(lo, hi), opt)
	})

	// (b) splitters from per-row samples.
	splitters := sampleSplitters(c, work, bounds, n, omega)
	numBuckets := splitters.Len() + 1
	if numBuckets == 1 {
		// Degenerate sample (tiny n): the rows are sorted; finish with a
		// mergesort of the whole workspace.
		ms := rt.MergeSort(c, work)
		rt.CopySpan(c, out, ms)
		return
	}

	// Per-row splitter positions by chunked merge path (depth O(ω log n)),
	// then the bucket-major count matrix CT[b·numSub + s] and its scan.
	pos := splitterPositions(c, work, bounds, splitters, numSub)
	ct := countsFromPositions(c, pos, bounds, numSub, numBuckets)
	rt.Scan(c, ct)

	// (c) scatter row segments into buckets of out.
	scatterSegments(c, work, out, bounds, pos, ct, numSub, numBuckets)

	// Bucket boundary b starts at CT[b·numSub] (post-scan).
	bStart := make([]int, numBuckets+1)
	for b := 0; b < numBuckets; b++ {
		bStart[b] = int(ct.Get(c, b*numSub))
	}
	bStart[numBuckets] = n
	c.Write(uint64(numBuckets) + 1)

	// (d) refine and recurse per bucket (in place within out's segments).
	c.ParFor(numBuckets, func(c rt.Ctx, b int) {
		seg := out.Slice(bStart[b], bStart[b+1])
		refineBucket(c, seg, omega, opt)
	})
}

// selectionSortInto copies in to out and selection-sorts it there:
// O(n²) reads, O(n) writes — the write-efficient leaf. It only runs on
// the metered backends: native execution short-circuits at nativeLeaf
// (≥ smallCutoff) in sortInto and refineBucket before reaching it.
func selectionSortInto(c rt.Ctx, in, out rt.Arr[seq.Record]) {
	n := in.Len()
	rt.CopySpanSeq(c, out, in)
	for i := 0; i < n-1; i++ {
		minI := i
		minV := out.Get(c, i)
		for j := i + 1; j < n; j++ {
			if v := out.Get(c, j); seq.TotalLess(v, minV) {
				minI, minV = j, v
			}
		}
		if minI != i {
			prev := out.Get(c, i)
			out.Set(c, i, minV)
			out.Set(c, minI, prev)
		}
	}
}

// evenBounds splits [0, n) into parts nearly equal parts.
func evenBounds(n, parts int) []int {
	b := make([]int, parts+1)
	for i := 0; i <= parts; i++ {
		b[i] = i * n / parts
	}
	return b
}

// sampleSplitters gathers every (log n)-th element of each sorted row,
// mergesorts the sample, and picks √(n/ω)−1 evenly spaced splitters.
func sampleSplitters(c rt.Ctx, work rt.Arr[seq.Record], bounds []int, n, omega int) rt.Arr[seq.Record] {
	logn := rt.CeilLog2(n)
	if logn < 1 {
		logn = 1
	}
	numSub := len(bounds) - 1
	// Count and gather sample positions (deterministic striding).
	total := 0
	for s := 0; s < numSub; s++ {
		total += (bounds[s+1] - bounds[s] + logn - 1) / logn
	}
	sample := rt.NewArr[seq.Record](c, total)
	srcPos := make([]int, 0, total)
	for s := 0; s < numSub; s++ {
		for p := bounds[s]; p < bounds[s+1]; p += logn {
			srcPos = append(srcPos, p)
		}
	}
	rawWork := rt.Raw(work)
	rt.ForSpan(c, sample, 0, total,
		func(span []seq.Record, base int) {
			for k := range span {
				span[k] = rawWork[srcPos[base+k]]
			}
		},
		func(c rt.Ctx, w int) { sample.Set(c, w, work.Get(c, srcPos[w])) })
	sorted := rt.MergeSort(c, sample)

	want := isqrtCeil(n / maxInt(1, omega))
	numSplitters := want - 1
	if numSplitters > sorted.Len() {
		numSplitters = sorted.Len()
	}
	if numSplitters < 0 {
		numSplitters = 0
	}
	splitters := rt.NewArr[seq.Record](c, numSplitters)
	c.ParFor(numSplitters, func(c rt.Ctx, j int) {
		pos := (j + 1) * sorted.Len() / (numSplitters + 1)
		if pos >= sorted.Len() {
			pos = sorted.Len() - 1
		}
		splitters.Set(c, j, sorted.Get(c, pos))
	})
	return splitters
}

// splitterPositions merges the splitters with each sorted row (the
// paper's "merging the splitters with each row") by merge-path chunking:
// pos[j·numSub + s] = number of records of row s strictly below splitter
// j. Work O(n), depth O(ω log n); in sequential order consecutive chunks
// revisit just-walked blocks, so cache misses stay O(n/B).
func splitterPositions(c rt.Ctx, work rt.Arr[seq.Record], bounds []int, splitters rt.Arr[seq.Record], numSub int) rt.Arr[uint64] {
	nSpl := splitters.Len()
	pos := rt.NewArr[uint64](c, maxInt(1, nSpl*numSub))
	L := maxInt(16, rt.CeilLog2(bounds[len(bounds)-1]+1))
	// Flatten (row, chunk) pairs for one ParFor.
	type rc struct{ s, k0, k1 int }
	var tasks []rc
	for s := 0; s < numSub; s++ {
		rowLen := bounds[s+1] - bounds[s]
		total := rowLen + nSpl
		for k0 := 0; k0 < total; k0 += L {
			k1 := k0 + L
			if k1 > total {
				k1 = total
			}
			tasks = append(tasks, rc{s, k0, k1})
		}
	}
	rawWork, rawSpl, rawPos := rt.Raw(work), rt.Raw(splitters), rt.Raw(pos)
	c.ParFor(len(tasks), func(c rt.Ctx, t int) {
		task := tasks[t]
		s := task.s
		if rawWork != nil {
			// Native kernel: the same walk on raw sub-slices.
			row := rawWork[bounds[s]:bounds[s+1]]
			i0 := diagSplittersRaw(rawSpl, row, task.k0)
			i1 := diagSplittersRaw(rawSpl, row, task.k1)
			j := task.k0 - i0
			for i := i0; i < i1; {
				if j < len(row) && seq.TotalLess(row[j], rawSpl[i]) {
					j++
					continue
				}
				rawPos[i*numSub+s] = uint64(j)
				i++
			}
			return
		}
		row := work.Slice(bounds[s], bounds[s+1])
		// diagSearch with splitters as the tie-priority side: i = number
		// of splitters among the first k of the merge.
		i0 := diagSplitters(c, splitters, row, task.k0)
		i1 := diagSplitters(c, splitters, row, task.k1)
		j := task.k0 - i0
		i := i0
		for i < i1 {
			if j < row.Len() && seq.TotalLess(row.Get(c, j), splitters.Get(c, i)) {
				j++
				continue
			}
			// Splitter i is emitted at row offset j.
			pos.Set(c, i*numSub+s, uint64(j))
			i++
		}
	})
	return pos
}

// diagSplittersRaw is diagSplitters on raw slices — the native kernel's
// uncharged counterpart.
func diagSplittersRaw(splitters, row []seq.Record, k int) int {
	n, m := len(splitters), len(row)
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
		if !seq.TotalLess(row[j], splitters[i]) {
			lo = i + 1
		} else {
			hi = i
		}
	}
	return lo
}

// diagSplitters returns the number of splitters among the first k merged
// elements of (splitters, row) with splitter priority on ties.
func diagSplitters(c rt.Ctx, splitters, row rt.Arr[seq.Record], k int) int {
	n, m := splitters.Len(), row.Len()
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
		// Splitter i precedes row j unless row j < splitter i.
		if !seq.TotalLess(row.Get(c, j), splitters.Get(c, i)) {
			lo = i + 1
		} else {
			hi = i
		}
	}
	return lo
}

// countsFromPositions converts the position matrix into bucket-major
// counts CT[b·numSub + s].
func countsFromPositions(c rt.Ctx, pos rt.Arr[uint64], bounds []int, numSub, numBuckets int) rt.Arr[uint64] {
	ct := rt.NewArr[uint64](c, numBuckets*numSub)
	nSpl := numBuckets - 1
	rawPos := rt.Raw(pos)
	rt.ForSpan(c, ct, 0, numBuckets*numSub,
		func(span []uint64, base int) {
			for k := range span {
				idx := base + k
				b := idx / numSub
				s := idx % numSub
				var start, end uint64
				if b > 0 {
					start = rawPos[(b-1)*numSub+s]
				}
				if b < nSpl {
					end = rawPos[b*numSub+s]
				} else {
					end = uint64(bounds[s+1] - bounds[s])
				}
				span[k] = end - start
			}
		},
		func(c rt.Ctx, idx int) {
			b := idx / numSub
			s := idx % numSub
			rowLen := uint64(bounds[s+1] - bounds[s])
			var start, end uint64
			if b > 0 {
				start = pos.Get(c, (b-1)*numSub+s)
			}
			if b < nSpl {
				end = pos.Get(c, b*numSub+s)
			} else {
				end = rowLen
			}
			ct.Set(c, idx, end-start)
		})
	return ct
}

// scatterSegments copies each (row, bucket) segment to its scanned offset
// in out: every record read and written exactly once; depth bounded by
// the largest single segment (O(polylog) w.h.p. for random inputs).
func scatterSegments(c rt.Ctx, work, out rt.Arr[seq.Record], bounds []int, pos, offsets rt.Arr[uint64], numSub, numBuckets int) {
	nSpl := numBuckets - 1
	rawWork, rawOut := rt.Raw(work), rt.Raw(out)
	rawPos, rawOff := rt.Raw(pos), rt.Raw(offsets)
	c.ParFor(numBuckets*numSub, func(c rt.Ctx, idx int) {
		b := idx / numSub
		s := idx % numSub
		rowLo := bounds[s]
		rowLen := uint64(bounds[s+1] - bounds[s])
		if rawOut != nil {
			// Native kernel: each (row, bucket) segment is one contiguous
			// bulk copy.
			var start, end uint64
			if b > 0 {
				start = rawPos[(b-1)*numSub+s]
			}
			if b < nSpl {
				end = rawPos[b*numSub+s]
			} else {
				end = rowLen
			}
			w := rawOff[idx]
			copy(rawOut[w:w+(end-start)], rawWork[rowLo+int(start):rowLo+int(end)])
			return
		}
		var start, end uint64
		if b > 0 {
			start = pos.Get(c, (b-1)*numSub+s)
		}
		if b < nSpl {
			end = pos.Get(c, b*numSub+s)
		} else {
			end = rowLen
		}
		w := int(offsets.Get(c, idx))
		for p := start; p < end; p++ {
			out.Set(c, w, work.Get(c, rowLo+int(p)))
			w++
		}
	})
}

// refineBucket is step (d): choose ω−1 pivots and partition the bucket
// into ω sub-buckets with ω scan rounds, then sort each recursively.
func refineBucket(c rt.Ctx, seg rt.Arr[seq.Record], omega int, opt Options) {
	m := seg.Len()
	if raw := rt.Raw(seg); raw != nil && m <= nativeLeaf {
		rt.SeqSortRecords(raw, nil)
		return
	}
	if m <= smallCutoff {
		tmp := rt.NewArr[seq.Record](c, m)
		rt.CopySpan(c, tmp, seg)
		selectionSortInto(c, tmp, seg)
		return
	}
	if omega <= 1 {
		// Classic variant: recurse directly on the bucket.
		tmp := rt.NewArr[seq.Record](c, m)
		sortInto(c, seg, tmp, opt)
		rt.CopySpan(c, seg, tmp)
		return
	}
	pivots := choosePivots(c, seg, omega, opt)
	nPiv := pivots.Len()
	if nPiv == 0 {
		tmp := rt.NewArr[seq.Record](c, m)
		sortInto(c, seg, tmp, opt)
		rt.CopySpan(c, seg, tmp)
		return
	}
	// ω rounds: round r packs the records of pivot-range r contiguously
	// into tmp. Each round is a chunked count/scan/scatter: elements are
	// written once overall; reads are ω passes.
	tmp := rt.NewArr[seq.Record](c, m)
	rounds := nPiv + 1
	subStart := make([]int, rounds+1)
	off := 0
	chunk := maxInt(64, omega)
	numChunks := (m + chunk - 1) / chunk
	counts := rt.NewArr[uint64](c, numChunks)
	inRange := func(c rt.Ctx, r seq.Record, round int) bool {
		if round > 0 && seq.TotalLess(r, pivots.Get(c, round-1)) {
			return false
		}
		if round < nPiv && !seq.TotalLess(r, pivots.Get(c, round)) {
			return false
		}
		return true
	}
	rawSeg, rawTmp := rt.Raw(seg), rt.Raw(tmp)
	rawPiv, rawCounts := rt.Raw(pivots), rt.Raw(counts)
	inRangeRaw := func(r seq.Record, round int) bool {
		if round > 0 && seq.TotalLess(r, rawPiv[round-1]) {
			return false
		}
		if round < nPiv && !seq.TotalLess(r, rawPiv[round]) {
			return false
		}
		return true
	}
	for round := 0; round < rounds; round++ {
		subStart[round] = off
		c.ParFor(numChunks, func(c rt.Ctx, t int) {
			lo, hi := t*chunk, (t+1)*chunk
			if hi > m {
				hi = m
			}
			if rawSeg != nil {
				cnt := uint64(0)
				for _, r := range rawSeg[lo:hi] {
					if inRangeRaw(r, round) {
						cnt++
					}
				}
				rawCounts[t] = cnt
				return
			}
			cnt := uint64(0)
			for p := lo; p < hi; p++ {
				if inRange(c, seg.Get(c, p), round) {
					cnt++
				}
			}
			counts.Set(c, t, cnt)
		})
		roundTotal := rt.Scan(c, counts)
		c.ParFor(numChunks, func(c rt.Ctx, t int) {
			lo, hi := t*chunk, (t+1)*chunk
			if hi > m {
				hi = m
			}
			if rawSeg != nil {
				w := off + int(rawCounts[t])
				for _, r := range rawSeg[lo:hi] {
					if inRangeRaw(r, round) {
						rawTmp[w] = r
						w++
					}
				}
				return
			}
			w := off + int(counts.Get(c, t))
			for p := lo; p < hi; p++ {
				if r := seg.Get(c, p); inRange(c, r, round) {
					tmp.Set(c, w, r)
					w++
				}
			}
		})
		off += int(roundTotal)
	}
	subStart[rounds] = off
	if off != m {
		panic("cosort: partition rounds lost records")
	}
	c.Write(uint64(rounds) + 1)
	// Recurse on sub-buckets, writing back into the segment.
	c.ParFor(rounds, func(c rt.Ctx, r int) {
		lo, hi := subStart[r], subStart[r+1]
		if lo < hi {
			sortInto(c, tmp.Slice(lo, hi), seg.Slice(lo, hi), opt)
		}
	})
}

// choosePivots samples max(ω, √(ωn)/log n) records of the bucket
// deterministically-pseudo-randomly, sorts them, and picks ω−1 evenly.
func choosePivots(c rt.Ctx, seg rt.Arr[seq.Record], omega int, opt Options) rt.Arr[seq.Record] {
	m := seg.Len()
	sCount := omega
	if v := isqrtCeil(omega*m) / maxInt(1, rt.CeilLog2(m)); v > sCount {
		sCount = v
	}
	if sCount > m {
		sCount = m
	}
	sample := rt.NewArr[seq.Record](c, sCount)
	c.ParFor(sCount, func(c rt.Ctx, i int) {
		pos := int(hash2(opt.Seed, uint64(i)) % uint64(m))
		sample.Set(c, i, seg.Get(c, pos))
	})
	sorted := rt.MergeSort(c, sample)
	nPiv := omega - 1
	if nPiv > sorted.Len() {
		nPiv = sorted.Len()
	}
	pivots := rt.NewArr[seq.Record](c, nPiv)
	c.ParFor(nPiv, func(c rt.Ctx, j int) {
		pos := (j + 1) * sorted.Len() / (nPiv + 1)
		if pos >= sorted.Len() {
			pos = sorted.Len() - 1
		}
		pivots.Set(c, j, sorted.Get(c, pos))
	})
	return pivots
}

// hash2 mixes a seed and index (splitmix64 finalizer).
func hash2(seed, i uint64) uint64 {
	x := seed ^ (i+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func isqrtCeil(n int) int {
	if n <= 0 {
		return 0
	}
	lo, hi := 1, 1
	for hi*hi < n {
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if mid*mid < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
