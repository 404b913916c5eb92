package extmem

import (
	"fmt"
	"sort"

	"asymsort/internal/rt"
	"asymsort/internal/seq"
)

// This file is the merge of one plan node on P ≥ 1 workers: the node's
// k-way merge cut into P disjoint key ranges, each merged by one
// worker through a private loser tree over synchronous run readers
// into a private output extent — workers never share a device block.
// At P = 1 the one range is the whole node and its cuts are trivial.
// For P > 1, splitter records are sampled from the children's
// in-memory block indexes, and each run is cut at the exact lower
// bound of every splitter (binary search over the block index, then
// inside the one straddling block, read once). Because every run cut
// is exact, worker i's extent is precisely the output ranks
// [T[i], T[i+1]) and the concatenated extents equal the one-range
// merge's output byte-for-byte (ties still break by run index inside
// each worker, and records equal under seq.TotalLess never straddle a
// splitter).
//
// The write ledger is preserved exactly: each worker writes the whole
// aligned blocks of its extent through a synchronous block-aligned
// writer, while the ≤B-record fragments at an extent boundary inside a
// block are kept in memory and stitched into their shared device block
// by the coordinator after the join — one WriteAt per block, so the
// node costs ⌈len/B⌉ block writes at every P, the same as the
// simulated AEM ledger. Reads gain only the splitter probes (at most
// P-1 block reads per run) plus the blocks straddling the per-run cut
// points; the refill span itself stays at the one-range carve, because
// every worker owns a full private M — the paper's P-processor
// parallel machine (§3).

// parMergeProcs returns how many workers a node's merge fans out over:
// the pool width, clamped so every worker averages at least two output
// blocks; 1 means one range.
func (e *engine) parMergeProcs(nd *planNode) int {
	p := e.cfg.procs
	if p <= 1 || len(nd.kids) < 2 {
		return 1
	}
	if nd == e.plan.root && e.cfg.post != nil {
		// A streamed root is a stateful fold over the whole sorted
		// stream; the splitter-partitioned extents cannot host it.
		return 1
	}
	if m := nd.len() / (2 * e.cfg.block); p > m {
		p = m
	}
	for _, kid := range nd.kids {
		if len(kid.index) == 0 {
			return 1 // no cut index (defensive; captured whenever procs > 1)
		}
	}
	if p < 2 {
		return 1
	}
	return p
}

// parOut is one merge worker's result: the boundary fragments it held
// back for stitching.
type parOut struct {
	headPos int
	head    []seq.Record
	tailPos int
	tail    []seq.Record
	err     error
}

// mergeNode merges the node's children — their outputs live in the
// parity-(level-1) spill file (or, for leaf children, were formed
// there) — into the node's own destination on parMergeProcs(nd)
// workers. Each worker's memory budget M splits evenly across the
// fan-in's refill buffers plus one write buffer, c = ⌊M/(f+1)⌋ records
// each. A refill of c records at an arbitrary offset touches
// 1 + (c−1)/B blocks on average, so the ledger charges B/c + 1 − 1/c
// reads per device block per level: with the canonical fan-in kM/B,
// c ≈ B/k and that is ≈ k + 1, since almost every sub-block refill
// straddles a block boundary (exactly 2 at k = 1 and 5.2 at k = 4 for
// M = 4096, B = 64). This is the read amplification AEM-MERGESORT
// trades for its shallower tree.
func (e *engine) mergeNode(nd *planNode) error {
	f := len(nd.kids)
	B := e.cfg.block
	srcs := make([]*BlockFile, f)
	for i, kid := range nd.kids {
		src, err := e.dst(kid)
		if err != nil {
			return err
		}
		srcs[i] = src
	}
	dst, err := e.dst(nd)
	if err != nil {
		return err
	}

	// Worker i consumes [cuts[r][i], cuts[r][i+1]) of every run r,
	// positions relative to the run.
	P := e.parMergeProcs(nd)
	var cuts [][]int
	if P == 1 {
		cuts = make([][]int, f)
		for r, kid := range nd.kids {
			cuts[r] = []int{0, kid.len()}
		}
	} else if cuts, err = e.cutRuns(nd, srcs, P); err != nil {
		return err
	}

	// Output extents: worker i writes ranks [T[i], T[i+1]).
	T := make([]int, P+1)
	T[0] = nd.lo
	for i := 1; i <= P; i++ {
		s := 0
		for r := range cuts {
			s += cuts[r][i] - cuts[r][i-1]
		}
		T[i] = T[i-1] + s
	}
	if T[P] != nd.hi {
		return fmt.Errorf("extmem: internal: merge cuts of [%d,%d) cover %d records, want %d",
			nd.lo, nd.hi, T[P]-nd.lo, nd.len())
	}

	// Every worker gets the full carve M/(f+1) — the paper's parallel
	// machine (§3) grants each of the P processors a private memory of
	// size M, so the engine's aggregate merge residency of ≤ P·M
	// realizes exactly that machine (P·levelMem when a lease resized
	// the grant). Keeping the per-run refill span at the one-range size
	// also keeps the read amplification at B/c + 1 − 1/c reads per
	// block instead of multiplying it by P. The write buffer is the
	// write share raised to one stage (mergeWriteRecs).
	c := max(e.levelMem/(f+1), 1)
	wLen := mergeWriteRecs(c, B)
	var idx []seq.Record
	if e.captureIndex(nd) {
		idx = newIndex(nd, B)
	}
	// The root of a streamed run folds the merged stream through the
	// post-pass hook, whose emitted records flow into the same
	// block-aligned writer, so the root level costs ⌈emitted/B⌉ block
	// writes. parMergeProcs keeps that node to one range.
	var post Streamer
	if nd == e.plan.root {
		post = e.cfg.post
	}
	outs := make([]parOut, P)
	tasks := make([]func(), P)
	for wi := range tasks {
		arena, stage := e.mergeArena(wi, f*c, wLen)
		tasks[wi] = func() {
			outs[wi] = e.mergeRange(nd, srcs, cuts, T, wi, dst, idx, post, c, arena, stage)
		}
	}
	e.cfg.pool.Run(tasks...)
	for i := range outs {
		if outs[i].err != nil {
			return outs[i].err
		}
	}

	// Stitch the extent-boundary fragments into their shared blocks:
	// every block holding a cut in its interior is written here exactly
	// once, completing the ⌈len/B⌉ write count. One range leaves none.
	type frag struct {
		pos  int
		recs []seq.Record
	}
	var frags []frag
	for i := range outs {
		if len(outs[i].head) > 0 {
			frags = append(frags, frag{outs[i].headPos, outs[i].head})
		}
		if len(outs[i].tail) > 0 {
			frags = append(frags, frag{outs[i].tailPos, outs[i].tail})
		}
	}
	sort.Slice(frags, func(a, b int) bool { return frags[a].pos < frags[b].pos })
	var buf []seq.Record
	for fi := 0; fi < len(frags); {
		start := frags[fi].pos
		if start%B != 0 {
			return fmt.Errorf("extmem: internal: stitch fragment at %d is not block-aligned", start)
		}
		end := start
		buf = buf[:0]
		for fi < len(frags) && frags[fi].pos == end && end < start+B {
			buf = append(buf, frags[fi].recs...)
			end += len(frags[fi].recs)
			fi++
		}
		if want := min(start+B, nd.hi); end != want {
			return fmt.Errorf("extmem: internal: stitched block [%d,%d) covers only [%d,%d)",
				start, want, start, end)
		}
		if err := dst.WriteAt(start, buf); err != nil {
			return err
		}
		if idx != nil {
			idx[(start-nd.lo)/B] = buf[0]
		}
	}
	nd.index = idx
	return nil
}

// cutRuns cuts every run of nd for P > 1 workers. The splitters are
// P-1 quantiles of the children's pooled block-first records — free of
// IO, and within one block of the exact record quantiles per run,
// which is all the load balance needs. cuts[r][i] is the first
// position of run r whose record is ≥ splitter i-1.
func (e *engine) cutRuns(nd *planNode, srcs []*BlockFile, P int) ([][]int, error) {
	B := e.cfg.block
	sample := make([]seq.Record, 0, (nd.len()+B-1)/B)
	for _, kid := range nd.kids {
		sample = append(sample, kid.index...)
	}
	rt.SortRecords(e.cfg.pool, sample)
	splitters := Splitters(sample, P)

	cuts := make([][]int, len(nd.kids))
	probe := make([]seq.Record, B)
	for r, kid := range nd.kids {
		cr := make([]int, P+1)
		cr[P] = kid.len()
		idx := kid.index
		cachedBlk := -1
		var cached []seq.Record
		for i, t := range splitters {
			jb := sort.Search(len(idx), func(j int) bool { return !seq.TotalLess(idx[j], t) })
			if jb == 0 {
				continue // cr[i+1] = 0: the whole run is ≥ t
			}
			// The exact lower bound lives in block jb-1 — the last block
			// whose first record is < t. One charged block read locates
			// it; consecutive splitters reuse the cached block.
			blk := jb - 1
			if blk != cachedBlk {
				blo := kid.lo + blk*B
				bhi := min(blo+B, kid.hi)
				cached = probe[:bhi-blo]
				if err := srcs[r].ReadAt(blo, cached); err != nil {
					return nil, err
				}
				cachedBlk = blk
			}
			in := sort.Search(len(cached), func(x int) bool { return !seq.TotalLess(cached[x], t) })
			cr[i+1] = blk*B + in
		}
		cuts[r] = cr
	}
	return cuts, nil
}

// mergeArena returns merge worker wi's buffers for one node: an arena
// of at least readRecs records for the run readers, and an empty
// writer stage of wLen records. Worker 0 carves the engine's formation
// arena, idle while merging, and stages in the formation read chunk,
// so the one-worker engine's resident record buffers stay at one M
// (one levelMem, when a lease resized the grant) plus the read chunk;
// only a write share larger than the chunk is carved from the arena
// too. Workers above 0 each keep an arena of their own. Degenerate
// configs whose f+1 shares round below one record — and, routinely, a
// lease grown past the admission-time M — need a larger arena; it is
// kept, so every node of the level reuses one allocation. Called only
// from the coordinator goroutine.
func (e *engine) mergeArena(wi, readRecs, wLen int) (arena, stage []seq.Record) {
	a := &e.formBuf
	if wi > 0 {
		if e.parArena == nil {
			e.parArena = make([][]seq.Record, e.cfg.procs-1)
		}
		a = &e.parArena[wi-1]
	}
	inChunk := wi == 0 && wLen <= cap(e.readBuf)
	need := readRecs
	if !inChunk {
		need += wLen
	}
	if len(*a) < need {
		*a = make([]seq.Record, need)
	}
	if inChunk {
		return *a, e.readBuf[:0:wLen]
	}
	return *a, (*a)[readRecs:readRecs:need]
}

// mergeRange is worker wi's merge: its sub-range of every run through
// a private loser tree into its private output extent
// [T[wi], T[wi+1]). The records before the extent's first block
// boundary (the head) and, unless the extent ends the node, those after
// its last one (the tail) share a device block with a neighbouring
// extent, so each is popped into memory in one popInto for stitching.
// Everything between — at P = 1 the whole node, whose lo is
// block-aligned — is the body, popped a block at a time straight into
// the free stage of a synchronous block-aligned writer, which flushes
// a final partial block itself. A streamed root pops each block into a
// one-block scratch instead and pushes it through the post hook, whose
// emitted records fill the writer. The cancel check and the block
// index capture run once per block. A pop comes back short only once
// every run is exhausted, which the final count check reports.
func (e *engine) mergeRange(nd *planNode, srcs []*BlockFile, cuts [][]int, T []int, wi int, dst *BlockFile, idx []seq.Record, post Streamer, c int, arena, stage []seq.Record) parOut {
	B := e.cfg.block
	lo, hi := T[wi], T[wi+1]
	out := parOut{headPos: lo}
	if lo == hi {
		return out
	}
	rdrs := make([]recStream, 0, len(srcs))
	for r, src := range srcs {
		rlo := nd.kids[r].lo + cuts[r][wi]
		rhi := nd.kids[r].lo + cuts[r][wi+1]
		if rlo == rhi {
			continue // dropping empty sub-runs keeps relative run order, so ties break as in one range
		}
		rdrs = append(rdrs, newRunReader(src, rlo, rhi, arena[r*c:(r+1)*c:(r+1)*c]))
	}
	lt, err := newLoserTree(rdrs)
	if err != nil {
		return parOut{err: err}
	}
	headEnd := min(lo+(B-lo%B)%B, hi) // head = [lo, headEnd)
	bodyEnd := hi                     // body = [headEnd, bodyEnd), tail = [bodyEnd, hi)
	if hi < nd.hi {
		bodyEnd = max(hi-hi%B, headEnd)
	}
	out.tailPos = bodyEnd

	out.head = make([]seq.Record, headEnd-lo)
	n, err := lt.popInto(out.head)
	if err != nil {
		return parOut{err: err}
	}
	out.head = out.head[:n]
	pos := lo + n
	if bodyEnd > headEnd {
		w := NewRunWriter(dst, headEnd, stage)
		var emit func(seq.Record) error
		var scratch []seq.Record
		if post != nil {
			emit = w.Add // bound once: a method value built per record escapes and allocates
			scratch = make([]seq.Record, B)
		}
		for pos < bodyEnd {
			if err := e.canceled(); err != nil {
				return parOut{err: err}
			}
			blk := scratch
			if post == nil {
				blk = w.avail()
			}
			blk = blk[:min(B, bodyEnd-pos)]
			n, err := lt.popInto(blk)
			if err != nil {
				return parOut{err: err}
			}
			if n == 0 {
				break
			}
			if idx != nil {
				idx[(pos-nd.lo)/B] = blk[0]
			}
			pos += n
			if post == nil {
				err = w.commit(n)
			} else {
				for _, rec := range blk[:n] {
					if err = post.Push(rec, emit); err != nil {
						break
					}
				}
			}
			if err != nil {
				return parOut{err: err}
			}
		}
		if post != nil {
			if err := post.Flush(emit); err != nil {
				return parOut{err: err}
			}
		}
		if err := w.Flush(); err != nil {
			return parOut{err: err}
		}
	}
	out.tail = make([]seq.Record, hi-bodyEnd)
	if n, err = lt.popInto(out.tail); err != nil {
		return parOut{err: err}
	}
	out.tail = out.tail[:n]
	pos += n
	if pos != hi {
		out.err = fmt.Errorf("extmem: merge worker %d of [%d,%d) produced %d records, want %d",
			wi, lo, hi, pos-lo, hi-lo)
	}
	return out
}
