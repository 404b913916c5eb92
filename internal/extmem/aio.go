package extmem

import (
	"sync"
	"sync/atomic"
	"time"

	"asymsort/internal/seq"
)

// This file is the asynchronous IO worker layer under BlockFile: a
// small pool of IO goroutines (IOQueue) plus the two façades the engine
// stacks on it — prefetchReader (read-ahead) and asyncWriter
// (write-behind). Both issue exactly the transfers their synchronous
// counterparts (runReader, runWriter) would issue, span for span, so
// the IOStats ledger is identical whether IO is overlapped or not; the
// only difference is when the pread/pwrite happens relative to the
// compute that consumes or produced the records.
//
// The queue is typed, not opaque: a submitted transfer carries its
// (file, offset, span, direction), which lets the queue merge adjacent
// pending extents of the same file and direction into one chain and
// service the whole chain with a single vectored preadv/pwritev
// syscall (vectored_linux.go; other platforms degrade to the per-op
// sequence). Coalescing changes only the syscall count, never the
// ledger: the chain charges IOStats span by span, exactly the blocks
// each constituent op's own ReadAt/WriteAt would have charged, so the
// engine-vs-simulator write identity is untouched. Adjacency arises
// across façades — neighbouring parallel-merge workers stream
// consecutive extents of the same spill file — while each façade alone
// keeps at most one transfer in flight.

// Chain bounds. maxVecOps caps the iovec batch of one chain;
// maxMergeRecs caps the single op the queue will merge (larger ops are
// already syscall-efficient and would bloat the chain's scratch);
// maxChainRecs caps a chain's total span so one worker never sits on an
// oversized transfer while others idle.
const (
	maxVecOps    = 8
	maxMergeRecs = 1 << 14
	maxChainRecs = 1 << 15
)

// ioResult carries one completed async transfer: the record count moved
// and its error.
type ioResult struct {
	n   int
	err error
}

// ioOp is one queued task: a typed block transfer — a read into dst or
// a write of src — or an opaque fn (tests use fn to occupy workers;
// fn tasks never merge). finish delivers the result exactly once on
// every service path: inline, single-op, vectored, or fallback.
type ioOp struct {
	bf   *BlockFile
	off  int
	dst  []seq.Record    // read target; nil unless a read
	src  []seq.Record    // write source; nil unless a write
	fn   func()          // opaque task; nil unless a plain func
	ch   chan<- ioResult // result channel; may be nil (fn tasks)
	done func()          // session accounting hook; may be nil
}

// run services the op through the per-op BlockFile path — the
// uncoalesced route, which does its own charging and error reporting.
func (op *ioOp) run() {
	if op.fn != nil {
		op.fn()
		if op.done != nil {
			op.done()
		}
		return
	}
	var res ioResult
	if op.dst != nil {
		res = ioResult{len(op.dst), op.bf.ReadAt(op.off, op.dst)}
	} else {
		res = ioResult{len(op.src), op.bf.WriteAt(op.off, op.src)}
	}
	op.finish(res)
}

func (op *ioOp) finish(res ioResult) {
	if op.ch != nil {
		op.ch <- res
	}
	if op.done != nil {
		op.done()
	}
}

// span returns the op's record count and direction.
func (op *ioOp) span() (n int, read bool) {
	if op.dst != nil {
		return len(op.dst), true
	}
	return len(op.src), false
}

// ioChain is a FIFO queue entry: one op, or several ops over adjacent
// extents of the same file in the same direction, serviced together.
// A chain only grows while it is on the queue — workers pop it under
// the lock before executing, so a draining chain can never gain ops.
type ioChain struct {
	ops  []*ioOp
	bf   *BlockFile // nil for fn chains, which never merge
	read bool
	end  int // record offset the next adjacent op must start at
	recs int // total records across ops
}

func newChain(op *ioOp) *ioChain {
	c := &ioChain{ops: []*ioOp{op}}
	if op.fn != nil {
		return c
	}
	c.bf = op.bf
	c.recs, c.read = op.span()
	c.end = op.off + c.recs
	return c
}

// IOQueue is a fixed pool of IO worker goroutines over a FIFO of
// coalescible chains. submit enqueues a task when the pending count is
// under the queue's bound and otherwise runs it inline on the caller,
// so the queue can never deadlock and degrades gracefully to
// synchronous IO under pressure. A queue may be private to one engine
// or shared by many concurrent ones (Config.IOQ): the serve broker
// owns one machine-wide queue so the aggregate async-IO parallelism
// stays bounded no matter how many jobs run.
type IOQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	chains  []*ioChain
	pending int // queued ops, counting every op inside every chain
	limit   int
	closed  bool
	wg      sync.WaitGroup

	// Telemetry, readable without the lock (tests and benchmarks).
	merged  atomic.Uint64 // ops appended to an already-pending chain
	batches atomic.Uint64 // multi-op chains serviced by one vectored syscall
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
		for len(q.chains) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.chains) == 0 {
			q.mu.Unlock()
			return
		}
		c := q.chains[0]
		q.chains = q.chains[1:]
		q.pending -= len(c.ops)
		q.mu.Unlock()
		c.exec(q)
		q.mu.Lock()
	}
}

// submit runs op asynchronously when queue capacity allows, inline
// otherwise, merging it into a pending adjacent chain when possible.
func (q *IOQueue) submit(op *ioOp) {
	q.mu.Lock()
	if q.closed || q.pending >= q.limit {
		q.mu.Unlock()
		op.run()
		return
	}
	q.pending++
	if q.tryMerge(op) {
		q.mu.Unlock()
		return
	}
	q.chains = append(q.chains, newChain(op))
	q.cond.Signal()
	q.mu.Unlock()
}

// submitFunc enqueues an opaque task; it is never coalesced.
func (q *IOQueue) submitFunc(f func()) {
	q.submit(&ioOp{fn: f})
}

// Depth reports the number of queued ops across all pending chains — a
// point-in-time reading for the serve layer's ioq-depth gauge.
func (q *IOQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending
}

// tryMerge appends op to a pending chain whose extent ends exactly
// where op begins, same file, same direction. Called with q.mu held.
// Write merging is disabled while fault injection is armed — the hook
// must see every op's own (path, offset).
func (q *IOQueue) tryMerge(op *ioOp) bool {
	if op.fn != nil {
		return false
	}
	n, read := op.span()
	if n == 0 || n > maxMergeRecs || op.off < 0 {
		return false
	}
	if !read && testWriteErr != nil {
		return false
	}
	for i := len(q.chains) - 1; i >= 0; i-- {
		c := q.chains[i]
		if c.bf == op.bf && c.read == read && c.end == op.off &&
			len(c.ops) < maxVecOps && c.recs+n <= maxChainRecs {
			c.ops = append(c.ops, op)
			c.end += n
			c.recs += n
			q.merged.Add(1)
			return true
		}
	}
	return false
}

// Close stops the workers after draining every queued task. Only the
// queue's owner may call it, and only once no engine is using the
// queue.
func (q *IOQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
}

// exec services a popped chain: single ops take the ordinary per-op
// path; multi-op chains go vectored.
func (c *ioChain) exec(q *IOQueue) {
	if len(c.ops) == 1 {
		c.ops[0].run()
		return
	}
	if c.read {
		q.execReadChain(c)
	} else {
		q.execWriteChain(c)
	}
}

// fallback services every op through its own ReadAt/WriteAt. The
// vectored paths charge nothing before falling back, so no block span
// is ever double-charged, and each op gets its own exact error.
func (c *ioChain) fallback() {
	for _, op := range c.ops {
		op.run()
	}
}

// vecPiece is one iovec of a chain transfer: a ≤ioChunk-record slice of
// one op's payload backed by pool scratch, mirroring how ReadAt/WriteAt
// chunk their own transfers through the same pool.
type vecPiece struct {
	recs []seq.Record
	raw  []byte
	sp   *[]byte
}

// carveChain cuts every op's payload into pool-backed pieces and
// returns them with the matching iovec byte slices.
func carveChain(c *ioChain) ([]vecPiece, [][]byte) {
	pieces := make([]vecPiece, 0, len(c.ops))
	for _, op := range c.ops {
		recs := op.dst
		if recs == nil {
			recs = op.src
		}
		for start := 0; start < len(recs); start += ioChunk {
			sub := recs[start:min(start+ioChunk, len(recs))]
			sp := scratchPool.Get().(*[]byte)
			pieces = append(pieces, vecPiece{recs: sub, raw: (*sp)[:len(sub)*RecordBytes], sp: sp})
		}
	}
	bufs := make([][]byte, len(pieces))
	for i := range pieces {
		bufs[i] = pieces[i].raw
	}
	return pieces, bufs
}

func releasePieces(pieces []vecPiece) {
	for i := range pieces {
		scratchPool.Put(pieces[i].sp)
	}
}

// execReadChain services adjacent reads with one vectored pread,
// charging the ledger span by span exactly as each op's own ReadAt
// would. Bounds violations and device errors fall back to the per-op
// path for exact per-op errors.
func (q *IOQueue) execReadChain(c *ioChain) {
	bf := c.bf
	lo := c.ops[0].off
	if lo < 0 || int64(c.end) > bf.n.Load() {
		c.fallback()
		return
	}
	pieces, bufs := carveChain(c)
	start := time.Now()
	if err := sysReadV(bf.f, int64(lo)*RecordBytes, bufs); err != nil {
		releasePieces(pieces)
		c.fallback()
		return
	}
	wall := time.Since(start)
	for _, p := range pieces {
		decodeRecs(p.recs, p.raw)
	}
	releasePieces(pieces)
	q.batches.Add(1)
	// The chain's wall cost is one syscall over all ops; feed the meter
	// once with the whole span so the per-block estimate reflects the
	// transfer as the device serviced it, while the ledger still charges
	// op by op exactly as the synchronous path would.
	var blocks uint64
	for _, op := range c.ops {
		n := bf.blockSpan(op.off, len(op.dst))
		blocks += n
		if bf.stats != nil {
			bf.stats.reads.Add(n)
		}
	}
	if bf.stats != nil && bf.stats.meter != nil {
		bf.stats.meter.ObserveRead(blocks, wall)
	}
	for _, op := range c.ops {
		op.finish(ioResult{len(op.dst), nil})
	}
}

// execWriteChain services adjacent writes with one vectored pwrite,
// then extends the length watermark and charges the ledger per op.
// If fault injection armed after the ops merged, the chain falls back
// so the hook sees every op individually.
func (q *IOQueue) execWriteChain(c *ioChain) {
	bf := c.bf
	lo := c.ops[0].off
	if lo < 0 || testWriteErr != nil {
		c.fallback()
		return
	}
	pieces, bufs := carveChain(c)
	for _, p := range pieces {
		encodeRecs(p.raw, p.recs)
	}
	start := time.Now()
	err := sysWriteV(bf.f, int64(lo)*RecordBytes, bufs)
	wall := time.Since(start)
	releasePieces(pieces)
	if err != nil {
		c.fallback()
		return
	}
	q.batches.Add(1)
	var blocks uint64
	for _, op := range c.ops {
		bf.extend(op.off + len(op.src))
		n := bf.blockSpan(op.off, len(op.src))
		blocks += n
		if bf.stats != nil {
			bf.stats.writes.Add(n)
		}
	}
	if bf.stats != nil && bf.stats.meter != nil {
		bf.stats.meter.ObserveWrite(blocks, wall)
	}
	for _, op := range c.ops {
		op.finish(ioResult{len(op.src), nil})
	}
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
