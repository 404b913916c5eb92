package extmem

import (
	"fmt"
	"sort"

	"asymsort/internal/rt"
	"asymsort/internal/seq"
)

// This file is the multi-core merge: one plan node's k-way merge cut
// into P disjoint key ranges, one per pool worker. Splitter records
// are sampled from the children's in-memory block indexes, each run is
// cut at the exact lower bound of every splitter (binary search over
// the block index, then inside the one straddling block, read once),
// and each worker merges its own sub-ranges through a private loser
// tree over synchronous run readers into a private output extent —
// workers never share a device block. Because every run cut is exact,
// worker i's extent is precisely the output ranks [T[i], T[i+1]) and
// the concatenated extents equal the sequential merge's output
// byte-for-byte (ties still break by run index inside each worker, and
// records equal under seq.TotalLess never straddle a splitter).
//
// The write ledger is preserved exactly: workers write only whole
// aligned blocks inside their extents, while the ≤B-record fragments
// at each extent boundary are kept in memory and stitched into their
// shared device block by the coordinator after the join — one WriteAt
// per block, so the node still costs ⌈len/B⌉ block writes, the same as
// the sequential runWriter and the simulated AEM ledger. Reads gain
// only the splitter probes (at most P-1 block reads per run) plus the
// blocks straddling the per-run cut points; the refill span itself
// stays at the sequential carve, because every worker owns a full
// private M — the paper's P-processor parallel machine (§3).

// parMergeProcs returns how many workers a node's merge fans out over:
// the pool width, clamped so every worker averages at least two output
// blocks; 1 means the sequential merge.
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

// parOut is one merge worker's result: the record count it produced
// plus the boundary fragments it held back for stitching.
type parOut struct {
	headPos int
	head    []seq.Record
	tailPos int
	tail    []seq.Record
	err     error
}

// mergeNodePar merges nd's children on P workers.
func (e *engine) mergeNodePar(nd *planNode, P int) error {
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

	// Splitters: P-1 quantiles of the children's pooled block-first
	// records — free of IO, and within one block of the exact record
	// quantiles per run, which is all the load balance needs.
	sample := make([]seq.Record, 0, (nd.len()+B-1)/B)
	for _, kid := range nd.kids {
		sample = append(sample, kid.index...)
	}
	rt.SortRecords(e.cfg.pool, sample)
	splitters := Splitters(sample, P)

	// Exact cuts: cuts[r][i] is the first position of run r (relative
	// to the run) whose record is ≥ splitter i-1, so worker i consumes
	// [cuts[r][i], cuts[r][i+1]) of every run r.
	cuts := make([][]int, f)
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
					return err
				}
				cachedBlk = blk
			}
			in := sort.Search(len(cached), func(x int) bool { return !seq.TotalLess(cached[x], t) })
			cr[i+1] = blk*B + in
		}
		cuts[r] = cr
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

	// Per-worker buffer carve: each worker gets the full sequential
	// carve M/(f+1) — the paper's parallel machine (§3) grants every
	// one of the P processors a private memory of size M, so the
	// engine's aggregate merge residency of ≤ P·M realizes exactly
	// that machine (P·levelMem when a lease resized the grant).
	// Keeping the per-run refill span at the sequential size also
	// keeps the read amplification at the sequential B/c + 1 − 1/c
	// reads per block (≈ k + 1, see mergeNodeSeq) instead of
	// multiplying it by P. The write-behind buffers are each raised to
	// one stage (mergeWriteRecs), slack beyond the share like the
	// sequential engine's read chunk.
	c := max(e.levelMem/(f+1), 1)
	wLen := mergeWriteRecs(c, B)

	var idx []seq.Record
	if e.captureIndex(nd) {
		idx = newIndex(nd, B)
	}
	// Per-worker arenas: f run-reader shares of c records plus the two
	// write-behind stages — grown once, reused across every node.
	if e.parArena == nil {
		e.parArena = make([][]seq.Record, e.cfg.procs)
	}
	need := f*c + 2*wLen
	for wi := 0; wi < P; wi++ {
		if len(e.parArena[wi]) < need {
			e.parArena[wi] = make([]seq.Record, need)
		}
	}
	outs := make([]parOut, P)
	tasks := make([]func(), P)
	for wi := 0; wi < P; wi++ {
		wi := wi
		tasks[wi] = func() {
			outs[wi] = e.mergeRange(nd, srcs, cuts, wi, T, dst, idx, c, wLen, e.parArena[wi])
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
	// once, completing the ⌈len/B⌉ write count.
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
	buf := make([]seq.Record, 0, B)
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

// mergeRange is one worker's merge: its sub-range of every run through
// a private loser tree into its private output extent [T[wi], T[wi+1]).
// Whole aligned blocks stream through a write-behind writer; the
// fragments sharing a boundary block with a neighbouring worker are
// returned for stitching.
func (e *engine) mergeRange(nd *planNode, srcs []*BlockFile, cuts [][]int, wi int, T []int, dst *BlockFile, idx []seq.Record, c, wLen int, arena []seq.Record) parOut {
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
			continue // dropping empty sub-runs keeps relative run order, so ties break as sequentially
		}
		rdrs = append(rdrs, newRunReader(src, rlo, rhi, arena[r*c:(r+1)*c:(r+1)*c]))
	}
	lt, err := newLoserTree(rdrs)
	if err != nil {
		out.err = err
		return out
	}
	headEnd := lo + (B-lo%B)%B // first aligned position: head = [lo, headEnd)
	if headEnd > hi {
		headEnd = hi
	}
	bodyEnd := hi - hi%B // aligned body = [headEnd, bodyEnd), tail = [bodyEnd, hi)
	if bodyEnd < headEnd {
		bodyEnd = headEnd
	}
	out.tailPos = bodyEnd
	var w *asyncWriter
	if bodyEnd > headEnd {
		f := len(srcs)
		w = newAsyncWriterBufs(dst, headEnd, e.ioq,
			arena[f*c:f*c+wLen:f*c+wLen], arena[f*c+wLen:f*c+2*wLen:f*c+2*wLen])
	}
	pos := lo
	left := (B - (headEnd-nd.lo)%B) % B // body records until the next block boundary
	for {
		rec, ok, err := lt.pop()
		if err != nil {
			out.err = err
			return out
		}
		if !ok {
			break
		}
		switch {
		case pos < headEnd:
			out.head = append(out.head, rec)
		case pos < bodyEnd:
			if left == 0 {
				if err := e.canceled(); err != nil {
					out.err = err
					return out
				}
				if idx != nil {
					idx[(pos-nd.lo)/B] = rec
				}
				left = B
			}
			left--
			if err := w.add(rec); err != nil {
				out.err = err
				return out
			}
		default:
			out.tail = append(out.tail, rec)
		}
		pos++
	}
	if w != nil {
		if err := w.close(); err != nil {
			out.err = err
			return out
		}
	}
	if pos != hi {
		out.err = fmt.Errorf("extmem: merge worker %d of [%d,%d) produced %d records, want %d",
			wi, lo, hi, pos-lo, hi-lo)
	}
	return out
}
