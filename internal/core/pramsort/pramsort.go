// Package pramsort implements Algorithm 1 of the paper: the Asymmetric
// CRCW PRAM sample sort achieving O(n log n) reads, O(n) writes, and
// O(ω log n) depth w.h.p. (Theorem 3.2).
//
// The algorithm, step by step (numbers match the paper's listing):
//
//  1. Sample records independently with probability 1/log n; sort the
//     sample (the paper uses Cole's mergesort — see Options.RealSampleSort
//     for the substitution policy).
//  2. Use every (log n)-th sample element as a splitter; allocate an array
//     of c·log² n slots per bucket.
//  3. Binary-search each record's bucket on the splitters.
//  4. Place records into their bucket arrays by repeatedly trying random
//     slots (the "placement problem"), sequential within groups of log n
//     records and parallel across groups.
//  5. Pack out the empty slots with a prefix sum and concatenate.
//  6. (Optional, for O(ω log n) depth) Two rounds of deterministic
//     sub-splitting inside each bucket — Lemma 3.1.
//  7. Sort each remaining bucket with the sequential asymmetric RAM sort
//     of Section 3 (red-black tree insertion).
//
// The algorithm is written against the dual-backend runtime of package
// rt. Sort runs it on the metered work-depth substrate, where the
// concurrent CRCW writes of step 4 are emulated by the sequential
// simulator (a write to an empty slot always succeeds and the per-record
// verification read the real algorithm needs is charged, so the
// read/write counts match the CRCW execution), and the Cole cost oracle
// charges published bounds. SortOn runs on any backend; SortNative runs
// at hardware speed, where step 4's slot claims become real compare-and-
// swap operations, the cost oracle becomes an actual sort, and the leaf
// tree sort becomes a slice sort. The per-element hot loops — the
// bucket binary searches of step 3, the empty-slot pack-out of step 5,
// and the copy passes — go through the rt span operations (rt.ForSpan,
// rt.MapSpan, rt.CopySpan, ReadSpan/WriteSpan): metered backends charge
// exactly the per-element loops they replace, the native backend runs
// raw-slice kernels with zero interface dispatch.
package pramsort

import (
	"math/bits"
	"sync/atomic"

	"asymsort/internal/aram"
	"asymsort/internal/core/ramsort"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
	"asymsort/internal/wd"
)

// Options configures Sort.
type Options struct {
	// Seed drives the sampling and placement randomness; runs with the
	// same seed are identical.
	Seed uint64
	// DeepSplit enables step 6 (two rounds of Lemma 3.1 splitting), the
	// paper's optional step that brings the depth to O(ω log n).
	DeepSplit bool
	// RealSampleSort sorts samples with the measured parallel mergesort
	// (O(ω log² s) depth) instead of the Cole cost oracle (O(ω log s)
	// depth, charged per its published bounds). The oracle is the default
	// so the end-to-end depth matches Theorem 3.2; see prim.OracleColeSort.
	// The native backend sorts samples for real either way.
	RealSampleSort bool
	// SlotFactor is c in the per-bucket array size c·log² n. Zero means
	// the default of 4 (≥2x expected occupancy w.h.p.). If a placement
	// round fails, the factor doubles and the work is re-charged, exactly
	// as a restarted w.h.p. algorithm would pay.
	SlotFactor int
}

// smallCutoff is the size below which Sort degenerates to the sequential
// RAM sort — below it log²n buckets are meaningless.
const smallCutoff = 256

// nativeLeaf is the native backend's leaf size: a bucket at or below it
// is sorted in one sequential pass instead of running step 6's Lemma 3.1
// sub-splitting, which exists purely to bound model depth — on hardware
// the cross-bucket ParFor already supplies the parallelism. The total
// order makes the output identical either way.
const nativeLeaf = 1 << 12

// ceilLog2 returns ⌈log₂ n⌉ for n ≥ 2, else 1.
func ceilLog2(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// hashAt gives the deterministic per-index random stream used by sampling
// and placement: position-keyed so that parallel strands need no shared
// PRNG state (register arithmetic, uncharged).
func hashAt(seed, i, round uint64) uint64 {
	x := seed ^ (i * 0x9e3779b97f4a7c15) ^ (round * 0xbf58476d1ce4e5b9)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// slot is one cell of a bucket array in step 4.
type slot struct {
	rec  seq.Record
	used bool
}

// Sort sorts in into a fresh array per Algorithm 1 on the metered PRAM
// substrate, charging all work and depth to c.
func Sort(c *wd.T, in *wd.Array[seq.Record], opt Options) *wd.Array[seq.Record] {
	return rt.UnwrapWD(SortOn(rt.NewSimWD(c), rt.WrapWD(in), opt))
}

// SortNative sorts recs into a fresh slice at hardware speed on pool.
// recs is read but not modified.
func SortNative(pool *rt.Pool, recs []seq.Record, opt Options) []seq.Record {
	c := rt.NewNative(pool, 1)
	return SortOn(c, rt.WrapSlice(c, recs), opt).Unwrap()
}

// SortOn sorts in into a fresh array per Algorithm 1 on any rt backend.
func SortOn(c rt.Ctx, in rt.Arr[seq.Record], opt Options) rt.Arr[seq.Record] {
	n := in.Len()
	out := rt.NewArr[seq.Record](c, n)
	if n == 0 {
		return out
	}
	if n <= smallCutoff {
		rt.CopySpanSeq(c, out, in)
		leafSort(c, out)
		return out
	}
	slotFactor := opt.SlotFactor
	if slotFactor <= 0 {
		slotFactor = 4
	}
	logn := ceilLog2(n)

	// Step 1: sample with probability 1/log n, then sort the sample.
	sample := rt.Pack(c, in, func(c rt.Ctx, i int) bool {
		return hashAt(opt.Seed, uint64(i), 0)%uint64(logn) == 0
	})
	sortedSample := sortSample(c, sample, opt)

	// Step 2: every (log n)-th sample element becomes a splitter.
	numSplitters := sortedSample.Len() / logn
	splitters := rt.NewArr[uint64](c, numSplitters)
	c.ParFor(numSplitters, func(c rt.Ctx, j int) {
		splitters.Set(c, j, sortedSample.Get(c, (j+1)*logn-1).Key)
	})
	buckets := numSplitters + 1

	// Step 3: locate each record's bucket by binary search.
	bucketID := rt.NewArr[uint64](c, n)
	rawIn, rawSpl := rt.Raw(in), rt.Raw(splitters)
	rt.ForSpan(c, bucketID, 0, n,
		func(span []uint64, base int) {
			for k := range span {
				span[k] = uint64(searchKeys(rawSpl, rawIn[base+k].Key))
			}
		},
		func(c rt.Ctx, i int) {
			r := in.Get(c, i)
			bucketID.Set(c, i, uint64(rt.SearchSplitters(c, splitters, r.Key)))
		})

	// Step 4: randomized placement into per-bucket slot arrays. On the
	// (w.h.p.-excluded) event that a record exhausts its tries, the whole
	// placement restarts with twice the slots, and is charged again.
	// Natively the slot array is a bare record array plus the CAS claim
	// vector (the claim already encodes occupancy, so no slot structs are
	// materialized or zeroed).
	var slots rt.Arr[slot]
	var natRecs []seq.Record
	var natClaim []uint32
	var slotsPerBucket int
	for attempt := 0; ; attempt++ {
		expected := (n + buckets - 1) / buckets
		minSlots := slotFactor * logn * logn
		if minSlots < slotFactor*expected {
			minSlots = slotFactor * expected
		}
		slotsPerBucket = minSlots
		seed := opt.Seed + uint64(attempt)*1e9
		if !c.Metered() {
			natRecs = make([]seq.Record, buckets*slotsPerBucket)
			natClaim = make([]uint32, buckets*slotsPerBucket)
			if placeNative(c, in, bucketID, natRecs, natClaim, slotsPerBucket, seed, logn) {
				break
			}
		} else {
			slots = rt.NewArr[slot](c, buckets*slotsPerBucket)
			if place(c, in, bucketID, slots, slotsPerBucket, seed, logn) {
				break
			}
		}
		slotFactor *= 2
	}

	// Step 5: pack out empty cells. The slot arrays are concatenated in
	// bucket order, so the packed result is grouped by bucket.
	var bounds []int
	if !c.Metered() {
		bounds = packSlotsNative(c, natRecs, natClaim, out, buckets, slotsPerBucket)
	} else {
		flags := rt.NewArr[uint64](c, slots.Len())
		rt.MapSpan(c, flags, slots, func(s slot) uint64 {
			if s.used {
				return 1
			}
			return 0
		})
		rt.Scan(c, flags)
		c.ParFor(slots.Len(), func(c rt.Ctx, i int) {
			s := slots.Get(c, i)
			if s.used {
				out.Set(c, int(flags.Get(c, i)), s.rec)
			}
		})
		// Bucket boundaries fall out of the scanned flags at bucket starts.
		bounds = make([]int, buckets+1)
		for b := 0; b < buckets; b++ {
			bounds[b] = int(flags.Get(c, b*slotsPerBucket))
		}
		bounds[buckets] = n
		c.Write(uint64(buckets) + 1)
	}

	// Steps 6+7: refine each bucket (optionally) and sort it.
	c.ParFor(buckets, func(c rt.Ctx, b int) {
		seg := out.Slice(bounds[b], bounds[b+1])
		if !opt.DeepSplit || (!c.Metered() && seg.Len() <= nativeLeaf) {
			leafSort(c, seg)
			return
		}
		// Two rounds of Lemma 3.1 splitting; the sub-buckets of each round
		// are sorted in parallel (sequentializing them would put the sum,
		// not the max, of the leaf depths on the critical path).
		round1 := lemma31Split(c, seg, opt)
		c.ParFor(len(round1), func(c rt.Ctx, i int) {
			s1 := round1[i]
			sub := seg.Slice(s1.lo, s1.hi)
			round2 := lemma31Split(c, sub, opt)
			c.ParFor(len(round2), func(c rt.Ctx, j int) {
				s2 := round2[j]
				leafSort(c, sub.Slice(s2.lo, s2.hi))
			})
		})
	})
	return out
}

// sortSample dispatches between the Cole oracle and the real mergesort.
// (Natively rt.OracleSort is an actual sort, so both paths execute.)
func sortSample(c rt.Ctx, s rt.Arr[seq.Record], opt Options) rt.Arr[seq.Record] {
	if opt.RealSampleSort {
		return rt.MergeSort(c, s)
	}
	return rt.OracleSort(c, s)
}

// place scatters every record into a random empty slot of its bucket's
// array: groups of log n records run sequentially inside, in parallel
// across groups (the paper's grouping that bounds the tries per group by
// O(log n) w.h.p.). Returns false if any record exceeded its try budget.
//
// place is the metered emulation: the sequential simulator provides the
// CRCW semantics (see the package comment). On the native backend the
// claims race for real — SortOn dispatches to placeNative, where they
// are compare-and-swap operations.
func place(c rt.Ctx, in rt.Arr[seq.Record], bucketID rt.Arr[uint64],
	slots rt.Arr[slot], slotsPerBucket int, seed uint64, logn int) bool {
	n := in.Len()
	groups := (n + logn - 1) / logn
	ok := true
	maxTries := 32 * logn
	c.ParFor(groups, func(c rt.Ctx, g int) {
		lo, hi := g*logn, (g+1)*logn
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			r := in.Get(c, i)
			b := int(bucketID.Get(c, i))
			base := b * slotsPerBucket
			placed := false
			for try := 0; try < maxTries; try++ {
				pos := base + int(hashAt(seed, uint64(i), uint64(try+1))%uint64(slotsPerBucket))
				s := slots.Get(c, pos)
				if s.used {
					continue
				}
				slots.Set(c, pos, slot{rec: r, used: true})
				// CRCW verification: read back to confirm this strand's
				// write took effect (arbitrary-write semantics).
				if v := slots.Get(c, pos); v.rec == r {
					placed = true
					break
				}
			}
			if !placed {
				ok = false
				return
			}
		}
	})
	return ok
}

// packSlotsNative is step 5 on hardware: instead of materializing a
// flag per slot and scanning all of them (the metered charge structure),
// it counts claimed slots per bucket through the 4-byte claim vector,
// prefix-sums the per-bucket counts, and compacts each bucket's slot
// range in one walk. The concatenation order — bucket-major, slot order
// within a bucket — is exactly the flags-and-scan order, so the packed
// array is identical.
func packSlotsNative(c rt.Ctx, recs []seq.Record, claim []uint32, out rt.Arr[seq.Record], buckets, slotsPerBucket int) []int {
	rawOut := out.Unwrap()
	cnts := make([]int, buckets)
	c.ParFor(buckets, func(_ rt.Ctx, b int) {
		n := 0
		for _, u := range claim[b*slotsPerBucket : (b+1)*slotsPerBucket] {
			if u != 0 {
				n++
			}
		}
		cnts[b] = n
	})
	bounds := make([]int, buckets+1)
	off := 0
	for b, n := range cnts {
		bounds[b] = off
		off += n
	}
	bounds[buckets] = off
	c.ParFor(buckets, func(_ rt.Ctx, b int) {
		w := bounds[b]
		base := b * slotsPerBucket
		for k, u := range claim[base : base+slotsPerBucket] {
			if u != 0 {
				rawOut[w] = recs[base+k]
				w++
			}
		}
	})
	return bounds
}

// placeNative is the hardware execution of step 4: slot claims are
// compare-and-swap operations on a claim vector, so concurrent groups
// contend exactly as the CRCW algorithm prescribes; the slot record is
// then written by its unique claimant and read only after the ParFor
// join. The claim vector doubles as the occupancy flags consumed by
// packSlotsNative.
func placeNative(c rt.Ctx, in rt.Arr[seq.Record], bucketID rt.Arr[uint64],
	recs []seq.Record, claim []uint32, slotsPerBucket int, seed uint64, logn int) bool {
	rawIn := in.Unwrap()
	rawBucket := bucketID.Unwrap()
	var failed atomic.Bool
	n := len(rawIn)
	groups := (n + logn - 1) / logn
	maxTries := 32 * logn
	c.ParFor(groups, func(_ rt.Ctx, g int) {
		lo, hi := g*logn, (g+1)*logn
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			base := int(rawBucket[i]) * slotsPerBucket
			placed := false
			for try := 0; try < maxTries; try++ {
				pos := base + int(hashAt(seed, uint64(i), uint64(try+1))%uint64(slotsPerBucket))
				if atomic.CompareAndSwapUint32(&claim[pos], 0, 1) {
					recs[pos] = rawIn[i]
					placed = true
					break
				}
			}
			if !placed {
				failed.Store(true)
				return
			}
		}
	})
	return !failed.Load()
}

// segBound is a half-open range within a parent segment.
type segBound struct{ lo, hi int }

// lemma31Split partitions the m-record segment into ~m^{1/3} buckets per
// Lemma 3.1: sort groups of m^{1/3} sequentially, sample every ⌈log m⌉-th
// element of each sorted group, sort the sample, pick m^{1/3}−1 splitters,
// and integer-sort records by bucket number. The segment is overwritten
// with the bucket-grouped order and the bucket ranges are returned.
// Cost: O(m log m) reads, O(m) writes, O(ω·m^{1/3} log m) depth.
func lemma31Split(c rt.Ctx, seg rt.Arr[seq.Record], opt Options) []segBound {
	m := seg.Len()
	if m <= 64 {
		return []segBound{{0, m}}
	}
	logm := ceilLog2(m)
	groupLen := icbrt(m)
	numGroups := (m + groupLen - 1) / groupLen

	// Sort each group sequentially (tree sort: O(g log g) reads, O(g) writes).
	c.ParFor(numGroups, func(c rt.Ctx, g int) {
		lo, hi := g*groupLen, (g+1)*groupLen
		if hi > m {
			hi = m
		}
		leafSort(c, seg.Slice(lo, hi))
	})

	// Sample every ⌈log m⌉-th record of each sorted group. At practical
	// sizes the lemma's regime m^{1/3} ≥ log m may not hold yet (it needs
	// n beyond ~2^20); clamp the stride to the group length so every group
	// still contributes a sample — a larger sample only strengthens the
	// splitter quality at lower-order extra cost.
	stride := logm
	if stride > groupLen {
		stride = groupLen
	}
	sample := rt.Pack(c, seg, func(c rt.Ctx, i int) bool {
		return (i%groupLen)%stride == stride-1
	})
	if sample.Len() == 0 {
		return []segBound{{0, m}}
	}
	sortedSample := sortSample(c, sample, opt)

	// m^{1/3} − 1 evenly spaced splitters from the sample.
	numSplitters := groupLen - 1
	if numSplitters > sortedSample.Len() {
		numSplitters = sortedSample.Len()
	}
	splitters := rt.NewArr[uint64](c, numSplitters)
	c.ParFor(numSplitters, func(c rt.Ctx, j int) {
		pos := (j + 1) * sortedSample.Len() / (numSplitters + 1)
		if pos >= sortedSample.Len() {
			pos = sortedSample.Len() - 1
		}
		splitters.Set(c, j, sortedSample.Get(c, pos).Key)
	})
	buckets := numSplitters + 1

	// Integer sort by bucket number (stable counting sort).
	sorted, bounds := rt.CountingSort(c, seg, buckets, func(r seq.Record) int {
		return searchKeys(splitters.Unwrap(), r.Key)
	})
	// The key function above reads splitters without charging; charge the
	// binary-search reads it performed: one ⌈log buckets⌉ read chain per
	// record, twice (histogram and scatter passes).
	c.ChargeSpan(2*uint64(m)*uint64(ceilLog2(buckets)+1), 0, uint64(ceilLog2(buckets)+1))

	// Copy the bucket-grouped order back into the segment.
	rt.CopySpan(c, seg, sorted)
	res := make([]segBound, 0, buckets)
	for b := 0; b < buckets; b++ {
		res = append(res, segBound{bounds[b], bounds[b+1]})
	}
	return res
}

// searchKeys is an uncharged binary search over raw splitter keys (the
// count of splitters ≤ key), used by the native step-3 kernel and inside
// CountingSort's key callback (whose reads are charged in bulk by the
// caller — see lemma31Split). The halving is written branch-free-style
// so the compiler can emit a conditional move: a random key makes the
// classic mid-branch a coin flip, and the mispredicts dominate the
// search at native speed.
func searchKeys(splitters []uint64, key uint64) int {
	base, n := 0, len(splitters)
	for n > 1 {
		half := n >> 1
		if splitters[base+half-1] <= key {
			base += half
		}
		n -= half
	}
	if n == 1 && splitters[base] <= key {
		base++
	}
	return base
}

// icbrt returns ⌈m^{1/3}⌉ via integer search.
func icbrt(m int) int {
	lo, hi := 1, 1
	for hi*hi*hi < m {
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if mid*mid*mid < m {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafSort sorts a segment in place. On the metered backends it runs the
// sequential RAM sort of Section 3 (red-black tree insertion) and folds
// in its ledger: O(m log m) reads, O(m) writes, depth = its sequential
// cost. Natively the same leaf is a plain in-place slice sort.
func leafSort(c rt.Ctx, seg rt.Arr[seq.Record]) {
	m := seg.Len()
	if m <= 1 {
		return
	}
	if !c.Metered() {
		rt.SeqSortRecords(seg.Unwrap(), nil)
		return
	}
	recs := make([]seq.Record, m)
	seg.ReadSpan(c, 0, recs)
	lm := aram.New(1)
	arr := aram.FromSlice(lm, recs)
	sorted := ramsort.TreeSort(arr).Unwrap()
	st := lm.Stats()
	c.ChargeSeq(st.Reads, st.Writes)
	seg.WriteSpan(c, 0, sorted)
}
