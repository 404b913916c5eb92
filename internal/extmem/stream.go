package extmem

import (
	"asymsort/internal/rt"
	"asymsort/internal/seq"
)

// The streaming post-pass hook: the third reusable phase of the engine
// next to run formation and the planned k-way merge. A Streamer wired
// into Config.Post intercepts the final sorted stream — the root
// node's output — record by record before it reaches the output file,
// so order-dependent reductions over the sorted order (grouped
// reduce-by-key, dedup, grouped counting) fuse into the sort's last
// pass instead of costing a separate read-everything/write-everything
// pass. The write-efficiency is the point: the root level then writes
// ⌈out/B⌉ blocks for the reduced output instead of ⌈n/B⌉ for the full
// sorted copy, and Report.PlanWrites is adjusted to exactly that, so
// the measured-equals-planned ledger identity extends to streamed
// runs. With Post nil nothing changes: the sort path's plan, ledger,
// and output bytes are untouched.
//
// A streamed root runs sequentially (the hook is a stateful fold over
// the cross-extent stream, so the splitter-partitioned parallel merge
// cannot host it); formation and the non-root merge levels keep their
// full parallel shape.

// Streamer is the streaming post-pass applied to the final sorted
// stream. Push is called once per record in sorted order; Flush once
// after the last record. Both emit their output records — zero, one,
// or many per call — through the provided emit, which writes to the
// output file through the engine's block-aligned writer. A Streamer is
// used by one engine at a time; implementations need no locking.
type Streamer interface {
	Push(r seq.Record, emit func(seq.Record) error) error
	Flush(emit func(seq.Record) error) error
}

// RecordScanner streams a region [lo, hi) of a BlockFile in order
// through a bounded refill buffer, charging each refill to the file's
// ledger. It is the cursor the scan-based kernel compositions
// (internal/kernel's top-k, histogram, and merge-join co-stream) are
// built from. Its buffer is a whole number of blocks and every refill
// but the last ends on a block boundary, so consecutive refills never
// share a device block and a scan charges exactly the blocks it
// touches, whatever its start offset.
type RecordScanner struct {
	bf       *BlockFile
	next, hi int
	buf      []seq.Record
	rest     []seq.Record // the current span's unreturned records
}

// NewRecordScanner returns a scanner over records [lo, hi) of bf with
// a bufRecs-record refill buffer, rounded down to whole blocks (at
// least one block).
func NewRecordScanner(bf *BlockFile, lo, hi, bufRecs int) *RecordScanner {
	n := max(bufRecs-bufRecs%bf.b, bf.b)
	return &RecordScanner{bf: bf, next: lo, hi: hi, buf: make([]seq.Record, n)}
}

// span reads the next refill, empty at the end.
func (s *RecordScanner) span() ([]seq.Record, error) {
	end := min(s.hi, s.next+len(s.buf))
	if end < s.hi {
		end -= end % s.bf.b
	}
	if end <= s.next {
		return nil, nil
	}
	sp := s.buf[:end-s.next]
	if err := s.bf.ReadAt(s.next, sp); err != nil {
		return nil, err
	}
	s.next = end
	return sp, nil
}

// Next returns the next record in order, ok=false at the end.
func (s *RecordScanner) Next() (seq.Record, bool, error) {
	if len(s.rest) == 0 {
		sp, err := s.span()
		if err != nil || len(sp) == 0 {
			return seq.Record{}, false, err
		}
		s.rest = sp
	}
	r := s.rest[0]
	s.rest = s.rest[1:]
	return r, true, nil
}

// ScanRecords streams records [lo, hi) of bf through fn in order — the
// charged one-pass scan the scan-only kernels run instead of a sort.
func ScanRecords(bf *BlockFile, lo, hi int, fn func(r seq.Record) error) error {
	s := NewRecordScanner(bf, lo, hi, formChunk)
	for {
		sp, err := s.span()
		if err != nil || len(sp) == 0 {
			return err
		}
		for _, r := range sp {
			if err := fn(r); err != nil {
				return err
			}
		}
	}
}

// formRootStreamed handles the streamed run whose plan is a single
// leaf (n ≤ kM, no merge levels): formation and the post-pass fuse.
// The leaf's selection passes emit their sorted batches in global
// sorted order, so the streamer folds across pass boundaries exactly
// as it folds across the root merge's stream, and the output file
// receives only the emitted records — ⌈out/B⌉ block writes — through
// one block-aligned writer. nd may be nil (an empty input), in which
// case only Flush runs.
func (e *engine) formRootStreamed(nd *planNode) error {
	post := e.cfg.post
	// Its own stage buffer: the selection passes below stream the input
	// through e.readBuf while this writer fills.
	w := newRunWriter(e.out, 0, make([]seq.Record, 0, stageRecs(e.cfg.block)))
	if nd != nil && nd.len() > 0 {
		if err := e.canceled(); err != nil {
			return err
		}
		n := nd.len()
		if n <= e.cfg.mem {
			sp := e.passSpan(nd, nd.lo)
			buf := e.formBuf[:n]
			if err := e.in.ReadAt(nd.lo+e.cfg.inSkip, buf); err != nil {
				endPass(sp, 0)
				return err
			}
			rt.SortRecords(e.cfg.pool, buf)
			for _, r := range buf {
				if err := post.Push(r, w.add); err != nil {
					endPass(sp, n)
					return err
				}
			}
			endPass(sp, n)
		} else {
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
				for _, r := range cand {
					if err := post.Push(r, w.add); err != nil {
						endPass(sp, len(cand))
						return err
					}
				}
				endPass(sp, len(cand))
				outOff += len(cand)
				watermark, have = cand[len(cand)-1], true
			}
		}
	}
	if err := post.Flush(w.add); err != nil {
		return err
	}
	return w.flush()
}
