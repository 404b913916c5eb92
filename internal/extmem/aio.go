package extmem

import (
	"sync"

	"asymsort/internal/seq"
)

// This file is the asynchronous IO worker layer under BlockFile: a
// small pool of IO goroutines (IOQueue) plus the two façades the engine
// stacks on it — prefetchReader (read-ahead) and asyncWriter
// (write-behind). Both issue exactly the transfers their synchronous
// counterparts (runReader, runWriter) would issue, span for span, so
// the IOStats ledger is identical whether IO is overlapped or not; the
// only difference is when the pread/pwrite happens relative to the
// compute that consumes or produced the records. Each queued op is one
// BlockFile.ReadAt or WriteAt, which charges the ledger and feeds the ω
// meter itself. A façade keeps at most one transfer in flight, so the
// buffers, not the queue, set the syscall sizes: merge writers flush
// whole stages of at least formChunk records rounded to blocks
// (mergeWriteRecs), not single blocks.

// ioResult carries one completed async transfer: the record count moved
// and its error.
type ioResult struct {
	n   int
	err error
}

// ioOp is one queued block transfer: a read into dst or a write of src.
// run delivers the result exactly once, inline or on a worker.
type ioOp struct {
	bf   *BlockFile
	off  int
	dst  []seq.Record    // read target; nil unless a read
	src  []seq.Record    // write source; nil unless a write
	ch   chan<- ioResult // result channel
	done func()          // session accounting hook (ioSession.submit)
}

// run services the op through BlockFile, which does its own charging
// and error reporting.
func (op *ioOp) run() {
	var res ioResult
	if op.dst != nil {
		res = ioResult{len(op.dst), op.bf.ReadAt(op.off, op.dst)}
	} else {
		res = ioResult{len(op.src), op.bf.WriteAt(op.off, op.src)}
	}
	op.ch <- res
	op.done()
}

// IOQueue is a fixed pool of IO worker goroutines over a FIFO of ops.
// submit enqueues an op when the queue holds fewer than its bound and
// otherwise runs it inline on the caller, so the queue can never
// deadlock and degrades gracefully to synchronous IO under pressure. A
// queue may be private to one engine or shared by many concurrent ones
// (Config.IOQ): the serve broker owns one machine-wide queue so the
// aggregate async-IO parallelism stays bounded no matter how many jobs
// run.
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

// ioSession tracks one engine's in-flight tasks on a (possibly shared)
// IOQueue: every submit is counted, and drain blocks until the
// engine's own transfers have completed. This is what lets an engine
// remove its spill files on exit — including error and cancellation
// exits with prefetches still in flight — without closing a queue
// other engines are using.
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

// prefetchReader is a runReader with read-ahead: it owns two refill
// buffers and always has the next span's read in flight on the IO queue
// while the consumer drains the current buffer. The sequence of spans —
// and therefore the charged read ledger — is identical to a runReader
// with the same buffer capacity; the second buffer rides in the
// parallel engine's documented slack beyond M.
type prefetchReader struct {
	bf       *BlockFile
	next, hi int
	q        *ioSession
	bufs     [2][]seq.Record
	fill     int           // index of the buffer the in-flight read targets
	pend     chan ioResult // nil when no read is in flight
	done     bool          // exhausted or failed; no further launches
}

// newPrefetchReader streams [lo, hi) of bf through double buffers of
// bufRecs records each.
func newPrefetchReader(bf *BlockFile, lo, hi int, q *ioSession, bufRecs int) *prefetchReader {
	if bufRecs < 1 {
		panic("extmem: prefetchReader buffer must have capacity")
	}
	return newPrefetchReaderBufs(bf, lo, hi, q,
		make([]seq.Record, bufRecs), make([]seq.Record, bufRecs))
}

// newPrefetchReaderBufs adopts two caller-owned refill buffers — the
// merge workers carve them from their reusable arenas.
func newPrefetchReaderBufs(bf *BlockFile, lo, hi int, q *ioSession, b0, b1 []seq.Record) *prefetchReader {
	if len(b0) == 0 || len(b1) == 0 {
		panic("extmem: prefetchReader buffers must have capacity")
	}
	return &prefetchReader{bf: bf, next: lo, hi: hi, q: q, bufs: [2][]seq.Record{b0, b1}}
}

// launch issues the next span's read into bufs[fill].
func (r *prefetchReader) launch() {
	ch := make(chan ioResult, 1)
	r.pend = ch
	n := r.hi - r.next
	if n <= 0 {
		ch <- ioResult{}
		return
	}
	if n > len(r.bufs[r.fill]) {
		n = len(r.bufs[r.fill])
	}
	off := r.next
	buf := r.bufs[r.fill][:n]
	r.next += n
	r.q.submit(&ioOp{bf: r.bf, off: off, dst: buf, ch: ch})
}

// span joins the in-flight read and returns its records, launching the
// read of the following span into the other buffer before the consumer
// starts on this one.
func (r *prefetchReader) span() ([]seq.Record, error) {
	if r.done {
		return nil, nil
	}
	if r.pend == nil {
		r.launch()
	}
	res := <-r.pend
	r.pend = nil
	if res.err != nil || res.n == 0 {
		r.done = true
		return nil, res.err
	}
	s := r.bufs[r.fill][:res.n]
	r.fill ^= 1
	r.launch()
	return s, nil
}

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
	pend chan ioResult
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
	ch := make(chan ioResult, 1)
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
	res := <-w.pend
	w.pend = nil
	return res.err
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
