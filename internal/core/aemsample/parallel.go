package aemsample

import (
	"asymsort/internal/aem"
	"asymsort/internal/core/aemsort"
	"asymsort/internal/cost"
	"asymsort/internal/seq"
	"asymsort/internal/xrand"
)

// This file implements the "Extensions for the Private-Cache Model" of
// §4.2: the sample sort parallelized over p processors, each with its own
// primary memory of M records, sharing the secondary memory (the
// Asymmetric Private-Cache model of Section 2).
//
// Per level, the input is cut into chunks of kM records and the splitters
// into k rounds of M/B; all (chunk, round) tasks are independent and are
// distributed over the processors. To make every bucket's output
// contiguous, a counting pass plus prefix sums precedes the writing pass,
// exactly as the paper prescribes ("a pass over the input to count the
// size of each bucket for each chunk, followed by a prefix sum"). The
// paper's bound is linear speedup with p = n/M processors when
// M/B ≥ log² n.
//
// Simplifications (constant factors only):
// splitters are chosen by processor 0 (the paper uses a parallel
// mergesort over a log-factor-smaller sample; both are lower-order), and
// each base-case subproblem is sorted whole by one processor, assigned
// round-robin, rather than split k ways.

// ParallelResult reports a parallel sort's cost accounting.
type ParallelResult struct {
	Out      *aem.File
	PerProc  []cost.Snapshot // block I/O charged to each processor
	Makespan uint64          // max over processors of reads + ω·writes
	Total    cost.Snapshot   // sum over processors
}

// ParallelSort sorts in with p private-cache processors. Every machine in
// procs must share the block size of in's machine; each needs slackBlocks
// ≥ 3 beyond M. Determinism follows from seed.
func ParallelSort(procs []*aem.Machine, in *aem.File, k int, seed uint64) ParallelResult {
	p := len(procs)
	if p < 1 {
		panic("aemsample: need at least one processor")
	}
	if k < 1 {
		panic("aemsample: k must be >= 1")
	}
	for _, ma := range procs {
		if ma.M()%ma.B() != 0 {
			panic("aemsample: M must be a multiple of B")
		}
	}
	out := procs[0].NewFile(in.Len())
	ps := &parSorter{procs: procs, k: k, rng: xrand.New(seed), next: 0}
	ps.rec(in, out, in.Len())
	res := ParallelResult{Out: out, PerProc: make([]cost.Snapshot, p)}
	omega := procs[0].Omega()
	for i, ma := range procs {
		s := ma.Stats()
		res.PerProc[i] = s
		res.Total = res.Total.Add(s)
		if c := s.Cost(omega); c > res.Makespan {
			res.Makespan = c
		}
	}
	return res
}

type parSorter struct {
	procs []*aem.Machine
	k     int
	rng   *xrand.SplitMix64
	next  int // round-robin task assignment cursor
}

// proc returns the next processor in round-robin order.
func (ps *parSorter) proc() *aem.Machine {
	ma := ps.procs[ps.next%len(ps.procs)]
	ps.next++
	return ma
}

// rec sorts in into out (both length n), distributing tasks.
func (ps *parSorter) rec(in, out *aem.File, n int) {
	if n == 0 {
		return
	}
	ma0 := ps.procs[0]
	m, b := ma0.M(), ma0.B()
	k := ps.k
	if n <= k*m {
		// Base case on one processor (round-robin).
		worker := ps.proc()
		sortBase(worker, in, out)
		return
	}
	l := k * m / b
	if n <= k*k*m*m/b {
		l = (n + k*m - 1) / (k * m)
	}
	if l < 2 {
		l = 2
	}
	// Splitters on processor 0 (lower-order cost; see file comment).
	splitters := chooseSplitters(ma0, in.On(ma0), l, n, k, ps.rng)
	nBuckets := len(splitters) + 1

	chunkLen := k * m
	chunks := (n + chunkLen - 1) / chunkLen
	perRound := m / b
	if perRound < 1 {
		perRound = 1
	}
	rounds := (nBuckets + perRound - 1) / perRound

	// Pass A: counting. counts[chunk][bucket], each (chunk, round) task on
	// its own processor.
	counts := make([][]int, chunks)
	for c := range counts {
		counts[c] = make([]int, nBuckets)
	}
	for c := 0; c < chunks; c++ {
		for r := 0; r < rounds; r++ {
			worker := ps.proc()
			countTask(worker, in.On(worker), splitters, counts[c], c, chunkLen, r*perRound, min((r+1)*perRound, nBuckets))
		}
	}

	// Prefix sums (bucket-major, then chunk) to place every (bucket,
	// chunk) segment; O(chunks·buckets) metadata on processor 0 — the
	// paper's "lower-order term" pass.
	offsets := make([][]int, chunks)
	for c := range offsets {
		offsets[c] = make([]int, nBuckets)
	}
	bucketStart := make([]int, nBuckets+1)
	pos := 0
	for bkt := 0; bkt < nBuckets; bkt++ {
		bucketStart[bkt] = pos
		for c := 0; c < chunks; c++ {
			offsets[c][bkt] = pos
			pos += counts[c][bkt]
		}
	}
	bucketStart[nBuckets] = pos
	ma0.ChargeWrite(uint64((chunks*nBuckets + b - 1) / b))
	if pos != n {
		panic("aemsample: parallel counting lost records")
	}

	// Pass B: writing. Each (chunk, round) task re-reads its chunk and
	// writes its active buckets' records to their exact offsets in a
	// scratch file (in may alias out at recursive levels; the scratch
	// double-buffer keeps reads and writes disjoint).
	scratch := ma0.NewFile(n)
	for c := 0; c < chunks; c++ {
		for r := 0; r < rounds; r++ {
			worker := ps.proc()
			writeTask(worker, in.On(worker), scratch.On(worker), splitters, offsets[c], c, chunkLen, r*perRound, min((r+1)*perRound, nBuckets))
		}
	}

	// Recurse per bucket with the full processor pool (round-robin task
	// assignment stands in for the paper's proportional division).
	for bkt := 0; bkt < nBuckets; bkt++ {
		lo, hi := bucketStart[bkt], bucketStart[bkt+1]
		if hi > lo {
			ps.rec(scratch.Slice(lo, hi), out.Slice(lo, hi), hi-lo)
		}
	}
}

// countTask counts, for one chunk, how many records fall in each bucket
// of [bktLo, bktHi): one scan of the chunk.
func countTask(ma *aem.Machine, in *aem.File, splitters []seq.Record, counts []int, chunk, chunkLen, bktLo, bktHi int) {
	buf := ma.Alloc(ma.B())
	defer buf.Free()
	lo := chunk * chunkLen
	hi := lo + chunkLen
	if hi > in.Len() {
		hi = in.Len()
	}
	for blk := lo / ma.B(); blk*ma.B() < hi; blk++ {
		cnt := in.ReadBlock(blk, buf, 0)
		for i := 0; i < cnt; i++ {
			idx := blk*ma.B() + i
			if idx < lo || idx >= hi {
				continue
			}
			j := bucketOf(splitters, buf.Get(i))
			if j >= bktLo && j < bktHi {
				counts[j]++
			}
		}
	}
}

// writeTask re-reads the chunk and writes records of buckets [bktLo,
// bktHi) to their offsets, staging one block per active bucket.
func writeTask(ma *aem.Machine, in, out *aem.File, splitters []seq.Record, offsets []int, chunk, chunkLen, bktLo, bktHi int) {
	b := ma.B()
	active := bktHi - bktLo
	stage := ma.Alloc(active * b)
	loadBuf := ma.Alloc(b)
	defer stage.Free()
	defer loadBuf.Free()
	fills := make([]int, active)
	cursors := make([]int, active)
	for a := 0; a < active; a++ {
		cursors[a] = offsets[bktLo+a]
	}
	flush := func(a int) {
		if fills[a] > 0 {
			out.WriteRange(cursors[a], fills[a], stage, a*b)
			cursors[a] += fills[a]
			fills[a] = 0
		}
	}
	lo := chunk * chunkLen
	hi := lo + chunkLen
	if hi > in.Len() {
		hi = in.Len()
	}
	for blk := lo / b; blk*b < hi; blk++ {
		cnt := in.ReadBlock(blk, loadBuf, 0)
		for i := 0; i < cnt; i++ {
			idx := blk*b + i
			if idx < lo || idx >= hi {
				continue
			}
			r := loadBuf.Get(i)
			j := bucketOf(splitters, r)
			if j < bktLo || j >= bktHi {
				continue
			}
			a := j - bktLo
			stage.Set(a*b+fills[a], r)
			fills[a]++
			if fills[a] == b {
				flush(a)
			}
		}
	}
	for a := 0; a < active; a++ {
		flush(a)
	}
}

// sortBase sorts in into out on one processor, staging through a scratch
// file so aliased in/out views are safe.
func sortBase(ma *aem.Machine, in, out *aem.File) {
	src := in.On(ma)
	tmp := ma.NewFile(src.Len())
	aemsort.SelectionSortFile(ma, src, tmp)
	// Copy back through one block buffer.
	buf := ma.Alloc(ma.B())
	defer buf.Free()
	dst := out.On(ma)
	off := 0
	for blk := 0; blk < tmp.Blocks(); blk++ {
		cnt := tmp.ReadBlock(blk, buf, 0)
		dst.WriteRange(off, cnt, buf, 0)
		off += cnt
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
