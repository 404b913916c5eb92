package extmem

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"asymsort/internal/obs"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
)

// This file forms the leaf runs of the merge tree: the real counterpart
// of aemsort.SelectionSortFile (Lemma 4.2). A leaf holds at most kM
// records but a worker may hold only M in memory, so a leaf is formed
// in ⌈n/M⌉ ≤ k passes: each pass streams the leaf's range of the input
// file, keeps the M smallest records past the previous pass's
// watermark as a sorted candidate set (each read chunk's records that
// can still make the cut are radix-sorted in the chunk, only as far as
// the M smallest, and merged in), and writes it out once. Reads
// multiply by up to k; every record is written exactly once — the
// paper's trade. The first pass counts the leaf's keys into a fixed
// histogram span by span, and the count gives every pass an exact upper
// bound on the keys it keeps: the first pass bounds each span by the
// cut of the spans counted so far, the later passes by the cut of the
// whole count, so records above it never reach a sort. A record is
// kept without a branch when its key lies above the watermark's key,
// at or below the bound and, once the candidates are full, below their
// largest key; only keys equal to the watermark's key or the
// candidates' largest take the exact (Key, Val) test.
//
// Every sort borrows its scratch (rt.SeqSortSmallest's out-of-place
// path) from a buffer the worker already holds, so formation adds no
// memory. A one-pass leaf is read into the candidate buffer and sorted
// with the idle read chunk as scratch. A selection pass lends each read
// chunk's consumed tail, past its compacted survivors, to the survivor
// sorts and to the candidate sort when the candidates fill, and
// candidates that never fill take the whole last chunk. Only a slice
// longer than its scratch — a leaf longer than the chunk, survivors
// that overflow the tail — takes the sort's in-place pass, and then
// only at its top. A lone worker on a wider pool sorts its candidates
// with rt.SortRecords and the same scratch, which mergesorts a slice
// of more than 4 096 records through the scratch, or through a buffer
// it allocates when the scratch is shorter than the slice.
//
// Formation runs on min(P, leaves) workers, each one processor of the
// paper's parallel machine (§3) with a private memory of size M: a
// worker takes the next leaf from a shared counter and runs read →
// select → write on its own M-record candidate buffer, its own
// formChunk read chunk and its own key count. Worker 0 forms on the
// engine's arena (formBuf, readBuf), so the one-worker engine is one
// goroutine on one M-record buffer. Every pass issues the same
// ReadAt/WriteAt spans at any P — only their interleaving across
// leaves changes — so the IO ledger does not depend on the worker
// count.

// formChunk is the streaming read granularity of a selection pass, in
// records (clamped to a block minimum). Like the simulator's load
// block, it rides in the slack beyond M. Rounded down to whole blocks
// it is also the writers' stage (stageRecs).
const formChunk = 1 << 13

// stageRecs is the smallest flush of the engine's output writers:
// formChunk rounded down to whole blocks, at least one block. A
// 128 KiB stage reaches the device as one pwrite where a one-block
// flush would cost one syscall per block.
func stageRecs(block int) int {
	return max(formChunk-formChunk%block, block)
}

// mergeWriteRecs sizes a merge writer's flush buffer from the node's
// per-run share c = M/(f+1): c rounded down to whole blocks, raised to
// at least one stage. Flushes stay block-aligned, so a node of n
// records still costs ⌈n/B⌉ block writes whatever the buffer size.
func mergeWriteRecs(c, block int) int {
	return max(c-c%block, stageRecs(block))
}

// passSpan opens one selection-pass trace span under the formation
// span. The caller closes it with endPass once the pass's record count
// is known. Nil-safe like all span plumbing.
func (e *engine) passSpan(nd *planNode, off int) *obs.Span {
	sp := e.formSpan.Child("pass")
	sp.Set(obs.Attr{Key: "leaf", Val: int64(nd.lo)}, obs.Attr{Key: "off", Val: int64(off)})
	return sp
}

// endPass closes a pass span with the records the pass emitted and the
// records it handed to a sort.
func endPass(sp *obs.Span, recs, sorted int) {
	sp.Set(obs.Attr{Key: "recs", Val: int64(recs)}, obs.Attr{Key: "sorted", Val: int64(sorted)})
	sp.End()
}

// formRuns forms the plan's leaves into their spill files (the output
// file, for a root leaf). dst creates spill files lazily and is
// coordinator-only, so every leaf's destination and cut index are
// resolved here, before the workers start; the sink then writes each
// batch and fills the leaf's cut index from it.
func (e *engine) formRuns(leaves []*planNode) error {
	dsts := make([]*BlockFile, len(leaves))
	for i, nd := range leaves {
		dst, err := e.dst(nd)
		if err != nil {
			return err
		}
		dsts[i] = dst
		if e.captureIndex(nd) {
			nd.index = newIndex(nd, e.cfg.block)
		}
	}
	blk := e.cfg.block
	return e.formLeaves(leaves, func(i, off int, batch []seq.Record) error {
		if err := dsts[i].WriteAt(off, batch); err != nil {
			return err
		}
		if nd := leaves[i]; nd.index != nil {
			for j := (blk - (off-nd.lo)%blk) % blk; j < len(batch); j += blk {
				nd.index[(off+j-nd.lo)/blk] = batch[j]
			}
		}
		return nil
	})
}

// formLeaves forms every leaf on min(P, len(leaves)) workers. Leaf i's
// sorted batches reach sink in order, each holding the leaf's records
// at offsets [off, off+len(batch)); workers call sink concurrently for
// different leaves. Every sort takes the scratch its formLeaf lends: a
// lone worker sorts on the whole pool (rt.SortRecords), while several
// workers already fill it, so each runs the radix leaf sort. After the
// first failure the workers stop at their next leaf boundary, and
// formLeaves returns that error once all of them have joined.
func (e *engine) formLeaves(leaves []*planNode, sink func(i, off int, batch []seq.Record) error) error {
	P := min(e.cfg.procs, len(leaves))
	sortRecs := rt.SeqSortRecords
	if P == 1 {
		sortRecs = func(recs, scratch []seq.Record) { rt.SortRecords(e.cfg.pool, recs, scratch...) }
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		firstErr error // written only by the worker that sets failed
	)
	tasks := make([]func(), P)
	for w := range tasks {
		tasks[w] = func() {
			buf, chunk := e.formBuf, e.readBuf
			if w > 0 {
				buf, chunk = make([]seq.Record, e.cfg.mem), make([]seq.Record, 0, cap(e.readBuf))
			}
			var keys keyCount
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(leaves) {
					return
				}
				err := e.formLeaf(leaves[i], buf, chunk, &keys, sortRecs, func(off int, batch []seq.Record) error {
					return sink(i, off, batch)
				})
				if err != nil {
					if failed.CompareAndSwap(false, true) {
						firstErr = err
					}
					return
				}
			}
		}
	}
	e.cfg.pool.Run(tasks...)
	return firstErr
}

// formLeaf forms one leaf on a worker's candidate buffer buf (M
// records), read chunk and key count. A leaf that fits the budget
// (always, when k = 1) takes one read, one sort and one emit: it is read
// into buf and sorted with the idle read chunk as scratch. A larger
// leaf runs selection passes, each emitting the M smallest records past
// the previous pass's watermark, already sorted. Its first pass counts
// the leaf's keys span by span, and every pass keeps only keys at or
// below the count's cut: in the first pass, the cut of the spans
// counted so far.
func (e *engine) formLeaf(nd *planNode, buf, chunk []seq.Record, keys *keyCount, sortRecs func(recs, scratch []seq.Record), emit func(off int, batch []seq.Record) error) error {
	if err := e.canceled(); err != nil {
		return err
	}
	if n := nd.len(); n <= e.cfg.mem {
		sp := e.passSpan(nd, nd.lo)
		defer endPass(sp, n, n)
		cand := buf[:n]
		if err := e.in.ReadAt(nd.lo+e.cfg.inSkip, cand); err != nil {
			return err
		}
		sortRecs(cand, chunk[:cap(chunk)])
		return emit(nd.lo, cand)
	}
	// next streams the leaf's range through chunk from rd, one span per
	// call, with a cancellation check before each read, and hands each
	// span over with the pass's key bound. In the first pass it counts
	// each span's keys before selectSmallest compacts the span, and the
	// cut of all counted so far bounds this span and every later one.
	var (
		rd, off int
		bound   uint64
	)
	next := func() ([]seq.Record, uint64, error) {
		if rd == nd.hi {
			return nil, 0, nil
		}
		if err := e.canceled(); err != nil {
			return nil, 0, err
		}
		span := chunk[:min(nd.hi-rd, cap(chunk))]
		if err := e.in.ReadAt(rd+e.cfg.inSkip, span); err != nil {
			return nil, 0, err
		}
		if off == nd.lo {
			keys.count(span, rd == nd.lo)
			bound = keys.cut(0, e.cfg.mem)
		}
		rd += len(span)
		return span, bound, nil
	}
	var wm watermark
	for off = nd.lo; off < nd.hi; {
		sp := e.passSpan(nd, off)
		rd = nd.lo
		if off > nd.lo {
			bound = keys.cut(off-nd.lo, e.cfg.mem)
		}
		cand, sorted, err := selectSmallest(next, wm, buf[:0:e.cfg.mem], sortRecs)
		if err == nil && len(cand) == 0 {
			err = noProgressErr(nd, off)
		}
		if err == nil {
			err = emit(off, cand)
		}
		endPass(sp, len(cand), sorted)
		if err != nil {
			return err
		}
		off += len(cand)
		wm = wm.advance(cand)
	}
	return nil
}

// noProgressErr reports a selection pass that found nothing past the
// watermark, which only an input changed under the sort can cause.
func noProgressErr(nd *planNode, outOff int) error {
	return fmt.Errorf("extmem: selection pass at %d/%d found no records above the watermark (input changed during the sort?)",
		outOff-nd.lo, nd.len())
}

// watermark is where a selection pass starts: the last record the
// leaf's earlier passes emitted and how many copies of it they wrote,
// so copies straddling a pass boundary are skipped exactly as often as
// they were written. The zero watermark admits every record.
type watermark struct {
	rec  seq.Record
	dups int
}

// advance returns the watermark after a pass emitted the sorted batch.
// A batch made only of copies of the watermark's record adds to its
// count.
func (w watermark) advance(batch []seq.Record) watermark {
	last, n := batch[len(batch)-1], 1
	for n < len(batch) && batch[len(batch)-1-n] == last {
		n++
	}
	if n == len(batch) && last == w.rec {
		n += w.dups
	}
	return watermark{last, n}
}

// cutBuckets is the size of a leaf's key count. The table is O(1)
// metadata outside the M-record budget, like the merge's block index.
const cutBuckets = 1 << 10

// keyCount is a histogram of one leaf's keys, counted as the leaf's
// first selection pass streams it. Bucket b counts the keys in
// [lo + b<<shift, lo + (b+1)<<shift); keys below lo count in the first
// bucket and keys past the table in the last.
type keyCount struct {
	lo    uint64
	shift uint
	n     [cutBuckets]int
}

// count adds the keys of one span of the leaf. The leaf's first span
// maps the table: lo is its smallest key, and the shift lands its
// largest key inside the table.
func (c *keyCount) count(span []seq.Record, first bool) {
	if first {
		lo, hi := span[0].Key, span[0].Key
		for _, r := range span[1:] {
			lo, hi = min(lo, r.Key), max(hi, r.Key)
		}
		c.lo, c.shift = lo, uint(max(bits.Len64(hi-lo)-bits.Len(cutBuckets-1), 0))
		clear(c.n[:])
	}
	for _, r := range span {
		d := r.Key - c.lo
		if r.Key < c.lo {
			d = 0
		}
		c.n[min(d>>c.shift, cutBuckets-1)]++
	}
}

// cut returns an upper bound on the keys of the m smallest records past
// the leaf's first emitted records: the largest key of the first bucket
// whose running count reaches emitted + m. The last bucket, and an edge
// past 2⁶⁴, bound nothing. The bound is exact, not an estimate: every
// emitted record's key is at or below the watermark's, which is at or
// below the cut, so at least m records past the watermark have keys at
// or below it, and the m smallest of them are the pass's output. A
// count of only the leaf's first spans bounds the first pass the same
// way: at least m of the records it counted lie at or below the cut.
func (c *keyCount) cut(emitted, m int) uint64 {
	run := -emitted
	for b, k := range c.n[:cutBuckets-1] {
		if run += k; run >= m {
			edge, carry := bits.Add64(c.lo, uint64(b+1)<<c.shift, 0)
			if carry != 0 {
				break
			}
			return edge - 1
		}
	}
	return math.MaxUint64
}

// selectSmallest runs one Lemma 4.2 selection pass over the spans next
// returns, up to the first empty one, each with a key bound. It returns
// cand holding the cap(cand) ≥ 1 smallest records past the watermark
// whose keys are at or below their span's bound, sorted, and how many
// records it handed to a sort. Each span is also its work area: the
// span's records that can still make the cut — past the watermark, at
// or below the bound and, once cand is full, below cand's largest —
// are compacted into the span's prefix: keepBand keeps the keys in that
// band without a branch, and only a key equal to the watermark's or
// cand's largest takes the exact (Key, Val) test. When the survivors
// overflow an empty cand, the span is radix-sorted only as far as its
// cap(cand) smallest, which become cand. Otherwise they top cand up,
// and cand is sorted with sortRecs the moment it fills; survivors
// after that are radix-sorted, again only as far as cap(cand), and
// merged into cand from the back. Every sort takes the span's consumed
// tail, past the survivors, as its scratch, and a cand that never
// fills takes the whole last span.
func selectSmallest(next func() ([]seq.Record, uint64, error), wm watermark, cand []seq.Record, sortRecs func(recs, scratch []seq.Record)) (_ []seq.Record, sorted int, err error) {
	m, skip := cap(cand), wm.dups
	var last []seq.Record // the latest span, all consumed once its turn ends
	span, bound, err := next()
	for ; err == nil && len(span) > 0; span, bound, err = next() {
		last = span
		full := len(cand) == m
		lo, edge, w := wm.rec.Key, wm.rec.Key, uint64(0)
		if bound > lo {
			w = bound - lo
		}
		if full {
			edge = cand[m-1].Key
			w = min(w, edge-lo) // keepBand stops at edge itself
		}
		k, i := keepBand(span, 0, 0, lo, w, edge)
		for ; i < len(span); k, i = keepBand(span, k, i+1, lo, w, edge) {
			r := span[i]
			if r == wm.rec && skip > 0 {
				skip-- // a copy an earlier pass emitted
				continue
			}
			if !seq.TotalLess(r, wm.rec) && r.Key <= bound && (!full || seq.TotalLess(r, cand[m-1])) {
				span[k] = r
				k++
			}
		}
		surv, tail := span[:k], span[k:]
		if len(cand) == 0 && len(surv) > m {
			rt.SeqSortSmallest(surv, m, tail)
			sorted += len(surv)
			cand = append(cand, surv[:m]...)
			continue
		}
		if !full {
			t := min(m-len(cand), len(surv))
			cand, surv = append(cand, surv[:t]...), surv[t:]
			if len(cand) < m {
				continue
			}
			sortRecs(cand, tail)
			sorted += m
		}
		if len(surv) > 0 {
			rt.SeqSortSmallest(surv, m, tail)
			sorted += len(surv)
			mergeSmallest(cand, surv[:min(len(surv), m)])
		}
	}
	if err == nil && len(cand) < m {
		sortRecs(cand, last) // the pass never filled cand
		sorted += len(cand)
	}
	return cand, sorted, err
}

// keepBand compacts span[i:] into span[k:], keeping the records whose
// keys lie in (lo, lo+w], until the first record whose key is lo or
// edge. It returns the new k and that record's index, or len(span). A
// record is kept by one unsigned compare added to k, with no branch;
// kept apart from selectSmallest, the loop's state stays in registers.
func keepBand(span []seq.Record, k, i int, lo, w, edge uint64) (int, int) {
	for ; i < len(span); i++ {
		r := span[i]
		if r.Key == lo || r.Key == edge {
			break
		}
		span[k] = r
		if r.Key-lo-1 < w {
			k++
		}
	}
	return k, i
}

// mergeSmallest merges the sorted s, no longer than cand, into the
// sorted cand in place, keeping the len(cand) smallest of the union: it
// drops the union's len(s) largest, then merges the rest from the back.
func mergeSmallest(cand, s []seq.Record) {
	i, j := len(cand)-1, len(s)-1
	for range s {
		if seq.TotalLess(s[j], cand[i]) {
			i--
		} else {
			j--
		}
	}
	for w := len(cand) - 1; j >= 0; w-- {
		if i >= 0 && seq.TotalLess(s[j], cand[i]) {
			cand[w] = cand[i]
			i--
		} else {
			cand[w] = s[j]
			j--
		}
	}
}
