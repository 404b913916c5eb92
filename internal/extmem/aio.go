package extmem

import (
	"sync"

	"asymsort/internal/seq"
)

// This file is the write-behind layer under BlockFile: a small pool of
// IO goroutines (IOQueue) under the parallel merge workers' asyncWriter,
// which issues exactly the flushes a runWriter with the same buffer
// would, so overlapping a pwrite with the merge never moves the ledger.
// Each queued op is one BlockFile.WriteAt, which charges the ledger and
// feeds the ω meter itself. A writer keeps at most one flush in flight,
// so its buffers, not the queue, set the syscall sizes: whole stages of
// at least formChunk records rounded to blocks (mergeWriteRecs). Merge
// reads need no queue: a refill is a synchronous copy out of the
// level's mapping (BlockFile.mapRead).

// ioOp is one queued block write of src at record offset off. run
// delivers the result exactly once, inline or on a worker.
type ioOp struct {
	bf   *BlockFile
	off  int
	src  []seq.Record
	ch   chan<- error // result channel
	done func()       // session accounting hook (ioSession.submit)
}

// run services the op through BlockFile, which does its own charging
// and error reporting.
func (op *ioOp) run() {
	op.ch <- op.bf.WriteAt(op.off, op.src)
	op.done()
}

// IOQueue is a fixed pool of IO worker goroutines over a FIFO of ops.
// submit enqueues an op when the queue holds fewer than its bound and
// otherwise runs it inline on the caller, so the queue can never
// deadlock and degrades gracefully to synchronous IO under pressure. A
// queue may be private to one engine or shared by many concurrent ones
// (Config.IOQ): the serve broker owns one machine-wide queue so the
// aggregate write-behind parallelism stays bounded no matter how many
// jobs run.
type IOQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ops    []*ioOp
	limit  int
	closed bool
	wg     sync.WaitGroup
}

// NewIOQueue starts a queue of the given worker count (min 1).
func NewIOQueue(workers int) *IOQueue {
	if workers < 1 {
		workers = 1
	}
	q := &IOQueue{limit: 4 * workers}
	q.cond = sync.NewCond(&q.mu)
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

func (q *IOQueue) worker() {
	defer q.wg.Done()
	q.mu.Lock()
	for {
		for len(q.ops) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.ops) == 0 {
			q.mu.Unlock()
			return
		}
		op := q.ops[0]
		q.ops = q.ops[1:]
		q.mu.Unlock()
		op.run()
		q.mu.Lock()
	}
}

// submit runs op asynchronously when queue capacity allows, inline
// otherwise.
func (q *IOQueue) submit(op *ioOp) {
	q.mu.Lock()
	if q.closed || len(q.ops) >= q.limit {
		q.mu.Unlock()
		op.run()
		return
	}
	q.ops = append(q.ops, op)
	q.cond.Signal()
	q.mu.Unlock()
}

// Depth reports the number of queued ops — a point-in-time reading for
// the serve layer's ioq-depth gauge.
func (q *IOQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ops)
}

// Close stops the workers after draining every queued op. Only the
// queue's owner may call it, and only once no engine is using the
// queue.
func (q *IOQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
}

// ioSession tracks one engine's in-flight writes on a (possibly shared)
// IOQueue: every submit is counted, and drain blocks until the
// engine's own writes have completed. This is what lets an engine
// remove its spill files on exit — including error and cancellation
// exits with a write-behind flush still in flight — without closing a
// queue other engines are using.
type ioSession struct {
	q  *IOQueue
	wg sync.WaitGroup
}

func (s *ioSession) submit(op *ioOp) {
	s.wg.Add(1)
	op.done = s.wg.Done
	s.q.submit(op)
}

// drain waits for every transfer this session submitted.
func (s *ioSession) drain() { s.wg.Wait() }

// asyncWriter is a runWriter with write-behind: it fills one of two
// block-multiple buffers while the other's write is in flight on the
// ioq. Flush offsets and spans are exactly those of a runWriter with
// the same buffer capacity, so the charged write ledger is identical;
// close joins the last in-flight write before returning.
type asyncWriter struct {
	bf   *BlockFile
	base int // absolute record offset of the region start
	off  int // records handed to flushes so far
	q    *ioSession
	bufs [2][]seq.Record
	curi int
	buf  []seq.Record // bufs[curi][:fillLevel]
	pend chan error
}

// newAsyncWriter appends to [base, …) of bf through two fresh buffers
// of bufRecs records (a positive whole number of blocks) each.
func newAsyncWriter(bf *BlockFile, base int, q *ioSession, bufRecs int) *asyncWriter {
	return newAsyncWriterBufs(bf, base, q,
		make([]seq.Record, 0, bufRecs), make([]seq.Record, 0, bufRecs))
}

// newAsyncWriterBufs adopts two caller-owned flush buffers (equal
// capacity, a positive whole number of blocks) — the merge workers
// carve them from their reusable arenas.
func newAsyncWriterBufs(bf *BlockFile, base int, q *ioSession, b0, b1 []seq.Record) *asyncWriter {
	if cap(b0)%bf.b != 0 || cap(b0) == 0 || cap(b1) != cap(b0) {
		panic("extmem: asyncWriter buffers must be equal positive whole numbers of blocks")
	}
	w := &asyncWriter{bf: bf, base: base, q: q, bufs: [2][]seq.Record{b0[:0], b1[:0]}}
	w.buf = w.bufs[0][:0]
	return w
}

func (w *asyncWriter) add(r seq.Record) error {
	w.buf = append(w.buf, r)
	if len(w.buf) == cap(w.buf) {
		return w.flush()
	}
	return nil
}

// flush hands the filled buffer to the IO session and switches to the other
// buffer, first joining that buffer's previous write.
func (w *asyncWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if err := w.join(); err != nil {
		return err
	}
	ch := make(chan error, 1)
	w.pend = ch
	off, buf := w.base+w.off, w.buf
	w.off += len(w.buf)
	w.q.submit(&ioOp{bf: w.bf, off: off, src: buf, ch: ch})
	w.curi ^= 1
	w.buf = w.bufs[w.curi][:0]
	return nil
}

// join waits for the in-flight write, if any.
func (w *asyncWriter) join() error {
	if w.pend == nil {
		return nil
	}
	err := <-w.pend
	w.pend = nil
	return err
}

// close flushes the remainder and joins every outstanding write.
func (w *asyncWriter) close() error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.join()
}

// written returns how many records have been flushed plus buffered.
func (w *asyncWriter) written() int { return w.off + len(w.buf) }
