package extmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"asymsort/internal/obs"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
)

// This file forms the leaf runs of the merge tree: the real counterpart
// of aemsort.SelectionSortFile (Lemma 4.2). A leaf holds at most kM
// records but the engine may hold only M in memory, so a leaf is formed
// in ⌈n/M⌉ ≤ k passes: each pass streams the leaf's range of the input
// file, retains the M smallest records above the previous pass's
// watermark in a bounded max-heap, sorts the retained set with
// rt.SortRecords, and writes it out once. Reads multiply by up to k;
// every record is written exactly once — the paper's trade.
//
// On a one-worker pool the leaves are formed strictly one after
// another (formRunSeq). On a parallel pool formation is a three-stage
// producer/consumer pipeline over all leaves: the calling goroutine
// streams candidate sets out of the input file, a sort stage runs
// rt.SortRecords on the pool, and a write-behind stage drains sorted
// sets to the spill file — so the read of one pass, the sort of the
// previous, and the write of the one before that overlap. Two M-record
// candidate buffers circulate through the stages (the pipeline's
// double buffer); the second buffer and the sort scratch are the
// documented parallel-mode slack beyond the budget. The IO ledger is
// unchanged: the same ReadAt/WriteAt spans are issued in the same
// per-stage order, only overlapped in time.

// formChunk is the streaming read granularity of a selection pass, in
// records (clamped to a block minimum). Like the simulator's load
// block, it rides in the slack beyond M. Rounded down to whole blocks
// it is also the writers' stage (stageRecs).
const formChunk = 1 << 13

// stageRecs is the smallest flush of the engine's output writers:
// formChunk rounded down to whole blocks, at least one block. A
// 128 KiB stage reaches the device as two ioChunk-sized pwrites where
// a one-block flush would cost one syscall per block.
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

func endPass(sp *obs.Span, recs int) {
	sp.Set(obs.Attr{Key: "recs", Val: int64(recs)})
	sp.End()
}

// formLeaves forms every leaf run of the plan, in plan order.
func (e *engine) formLeaves(leaves []*planNode) error {
	if e.cfg.procs == 1 {
		for _, nd := range leaves {
			if err := e.formRunSeq(nd); err != nil {
				return err
			}
		}
		return nil
	}
	return e.formLeavesPipelined(leaves)
}

// formBatch is one sorted-run write: the pipeline's unit of work. buf
// is unsorted when it leaves the producer, sorted from the sort stage
// on, and recycled into the free list after the write.
type formBatch struct {
	nd  *planNode
	dst *BlockFile
	off int // absolute destination offset
	buf []seq.Record
}

// formLeavesPipelined runs the three-stage formation pipeline.
func (e *engine) formLeavesPipelined(leaves []*planNode) error {
	var (
		sortCh  = make(chan formBatch, 1)
		writeCh = make(chan formBatch, 1)
		free    = make(chan []seq.Record, 2)
		wErr    = make(chan error, 1)
		failed  atomic.Bool
	)
	free <- e.formBuf
	free <- make([]seq.Record, e.cfg.mem)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // sort stage
		defer wg.Done()
		defer close(writeCh)
		for b := range sortCh {
			if !failed.Load() {
				rt.SortRecords(e.cfg.pool, b.buf)
			}
			writeCh <- b
		}
	}()
	go func() { // write-behind stage
		defer wg.Done()
		for b := range writeCh {
			if !failed.Load() {
				if err := b.dst.WriteAt(b.off, b.buf); err != nil {
					failed.Store(true)
					wErr <- err
				} else if idx := b.nd.index; idx != nil {
					blk := e.cfg.block
					for j := (blk - (b.off-b.nd.lo)%blk) % blk; j < len(b.buf); j += blk {
						idx[(b.off+j-b.nd.lo)/blk] = b.buf[j]
					}
				}
			}
			// Recycle the buffer even after a failure, so the producer
			// can never block on an empty free list.
			free <- b.buf[:cap(b.buf)]
		}
	}()

	err := e.produceLeaves(leaves, sortCh, free, &failed)
	close(sortCh)
	wg.Wait()
	select {
	case werr := <-wErr:
		if err == nil {
			err = werr
		}
	default:
	}
	return err
}

// produceLeaves is the pipeline's first stage: it streams each leaf's
// candidate sets out of the input file and hands them to the sort
// stage. It owns all reads of the formation phase, so the read ledger
// is charged in exactly the sequential engine's order.
func (e *engine) produceLeaves(leaves []*planNode, sortCh chan<- formBatch, free chan []seq.Record, failed *atomic.Bool) error {
	for _, nd := range leaves {
		if failed.Load() {
			return nil // the write stage reports its own error
		}
		if err := e.canceled(); err != nil {
			return err
		}
		n := nd.len()
		if n == 0 {
			continue
		}
		dst, err := e.dst(nd)
		if err != nil {
			return err
		}
		if e.captureIndex(nd) {
			nd.index = newIndex(nd, e.cfg.block)
		}
		// Fast path: the leaf fits the budget (always, when k = 1) — one
		// read pass, one sort, one write, no watermark (and hence no
		// uniqueness requirement).
		if n <= e.cfg.mem {
			sp := e.passSpan(nd, nd.lo)
			buf := (<-free)[:n]
			if err := e.in.ReadAt(nd.lo+e.cfg.inSkip, buf); err != nil {
				free <- buf[:cap(buf)]
				endPass(sp, 0)
				return err
			}
			endPass(sp, n)
			sortCh <- formBatch{nd: nd, dst: dst, off: nd.lo, buf: buf}
			continue
		}
		var watermark seq.Record
		have := false
		for outOff := nd.lo; outOff < nd.hi; {
			if failed.Load() {
				return nil
			}
			sp := e.passSpan(nd, outOff)
			cand, err := e.selectPass(nd, watermark, have, (<-free)[:0])
			endPass(sp, len(cand))
			if err != nil {
				free <- cand[:cap(cand)]
				return err
			}
			if len(cand) == 0 {
				free <- cand[:cap(cand)]
				return noProgressErr(nd, outOff)
			}
			// The next pass's watermark is the candidate maximum — what
			// the sort stage will place last, computed here so the scan
			// need not wait for the sort.
			watermark, have = cand[0], true
			for _, r := range cand[1:] {
				if seq.TotalLess(watermark, r) {
					watermark = r
				}
			}
			sortCh <- formBatch{nd: nd, dst: dst, off: outOff, buf: cand}
			outOff += len(cand)
		}
	}
	return nil
}

// formRunSeq sorts input records [nd.lo, nd.hi) into dst at the same
// offsets, strictly sequentially — the one-worker engine's formation.
func (e *engine) formRunSeq(nd *planNode) error {
	n := nd.len()
	if n == 0 {
		return nil
	}
	if err := e.canceled(); err != nil {
		return err
	}
	dst, err := e.dst(nd)
	if err != nil {
		return err
	}
	if n <= e.cfg.mem {
		sp := e.passSpan(nd, nd.lo)
		defer endPass(sp, n)
		buf := e.formBuf[:n]
		if err := e.in.ReadAt(nd.lo+e.cfg.inSkip, buf); err != nil {
			return err
		}
		rt.SortRecords(e.cfg.pool, buf)
		return dst.WriteAt(nd.lo, buf)
	}
	var watermark seq.Record
	have := false
	for outOff := nd.lo; outOff < nd.hi; {
		sp := e.passSpan(nd, outOff)
		cand, err := e.selectPass(nd, watermark, have, e.formBuf[:0])
		if err != nil {
			endPass(sp, len(cand))
			return err
		}
		if len(cand) == 0 {
			endPass(sp, 0)
			return noProgressErr(nd, outOff)
		}
		rt.SortRecords(e.cfg.pool, cand)
		err = dst.WriteAt(outOff, cand)
		endPass(sp, len(cand))
		if err != nil {
			return err
		}
		outOff += len(cand)
		watermark, have = cand[len(cand)-1], true
	}
	return nil
}

// selectPass runs one Lemma 4.2 selection pass over the leaf's input
// range: it gathers into cand (capacity ≥ M) up to M candidates above
// the watermark, first by filling, then by max-heap replacement.
func (e *engine) selectPass(nd *planNode, watermark seq.Record, have bool, cand []seq.Record) ([]seq.Record, error) {
	chunk := e.readBuf
	heaped := false
	for off := nd.lo; off < nd.hi; off += len(chunk) {
		if err := e.canceled(); err != nil {
			return cand, err
		}
		c := nd.hi - off
		if c > cap(chunk) {
			c = cap(chunk)
		}
		chunk = chunk[:c]
		if err := e.in.ReadAt(off+e.cfg.inSkip, chunk); err != nil {
			return cand, err
		}
		for _, r := range chunk {
			if have && !seq.TotalLess(watermark, r) {
				continue // written by an earlier pass
			}
			if len(cand) < e.cfg.mem {
				cand = append(cand, r)
				continue
			}
			if !heaped {
				heapify(cand)
				heaped = true
			}
			if seq.TotalLess(r, cand[0]) {
				cand[0] = r
				siftDown(cand, 0)
			}
		}
	}
	return cand, nil
}

// noProgressErr reports a selection pass that found nothing above the
// watermark — duplicate records under seq.TotalLess.
func noProgressErr(nd *planNode, outOff int) error {
	return fmt.Errorf("extmem: selection pass at %d/%d found no records above the watermark (duplicate records under seq.TotalLess?)",
		outOff-nd.lo, nd.len())
}

// heapify establishes the max-heap property under seq.TotalLess.
func heapify(h []seq.Record) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// siftDown restores the max-heap property below index i.
func siftDown(h []seq.Record, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && seq.TotalLess(h[l], h[r]) {
			big = r
		}
		if !seq.TotalLess(h[i], h[big]) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
