package extmem

import (
	"fmt"
	"os"
	"runtime/debug"
	"sync/atomic"

	"asymsort/internal/seq"
)

// RecordBytes is the on-disk footprint of one record: key then payload,
// little-endian uint64s, as seq's codec encodes it. It matches the
// 16-byte in-memory footprint that makes the simulators' block-size
// parameter B meaningful.
const RecordBytes = 16

// BlockFile is a file of fixed-width binary records addressed at record
// granularity, with every transfer charged to an IOStats ledger at
// block granularity: a transfer of records [off, off+n) touches the
// device blocks ⌊off/B⌋ .. ⌊(off+n-1)/B⌋ and charges one read or write
// per touched block, exactly as aem.File.ReadRange/WriteRange charge
// the simulated ledger. Reading a span smaller than a block therefore
// still costs a whole block read — which is how the merge stage's
// sub-block refill buffers realize the paper's read multiplier on a
// real device: B/c + 1 − 1/c block reads per block per merge level for
// a c-record refill, ≈ k + 1 at the canonical fan-in, because almost
// every sub-block refill straddles a block boundary.
//
// Every transfer moves bytes, not fields: seq's codec hands the record
// slice's own memory to one pread or one pwrite per call, and while a
// merge level holds the file mapped (mapRead), ReadAt copies spans
// inside the mapping straight into dst instead of issuing a pread, and
// charges them the same blocks.
//
// A BlockFile is safe for concurrent use: transfers go through
// pread/pwrite or the mapping on disjoint extents, the length watermark
// is atomic, and the IOStats ledger is atomic. The parallel merge stage
// relies on this to let every worker stream its own key range of the
// same spill file. Only mapRead and unmap must not race with transfers.
type BlockFile struct {
	f     *os.File
	path  string
	b     int          // block size in records
	n     atomic.Int64 // file length in records (max extent written)
	stats *IOStats     // nil = uncharged (staging and test fixtures)
	mm    []byte       // read-only mapping of the file's head; nil = pread only
}

// testWriteErr, when non-nil, is consulted by every WriteAt before it
// touches the device — the fault-injection point for error-path tests.
// It must be set before an engine starts and cleared after it returns.
var testWriteErr func(path string, off int) error

// CreateBlockFile creates (truncating) a record file charging to stats;
// stats may be nil for uncharged staging files.
func CreateBlockFile(path string, b int, stats *IOStats) (*BlockFile, error) {
	if b < 1 {
		return nil, fmt.Errorf("extmem: block size must be >= 1 records")
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &BlockFile{f: f, path: path, b: b, stats: stats}, nil
}

// createTempBlockFile creates a uniquely-named record file in dir via
// os.CreateTemp, so concurrent engines sharing a spill directory (or
// one process's default os.TempDir) can never collide.
func createTempBlockFile(dir, pattern string, b int, stats *IOStats) (*BlockFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &BlockFile{f: f, path: f.Name(), b: b, stats: stats}, nil
}

// OpenBlockFile opens an existing record file; its length must be a
// whole number of records.
func OpenBlockFile(path string, b int, stats *IOStats) (*BlockFile, error) {
	if b < 1 {
		return nil, fmt.Errorf("extmem: block size must be >= 1 records")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size()%RecordBytes != 0 {
		f.Close()
		return nil, fmt.Errorf("extmem: %s: size %d is not a whole number of %d-byte records",
			path, fi.Size(), RecordBytes)
	}
	bf := &BlockFile{f: f, path: path, b: b, stats: stats}
	bf.n.Store(fi.Size() / RecordBytes)
	return bf, nil
}

// Len returns the file length in records.
func (bf *BlockFile) Len() int { return int(bf.n.Load()) }

// Path returns the file's path.
func (bf *BlockFile) Path() string { return bf.path }

// blockSpan returns how many device blocks records [off, off+n) touch.
func (bf *BlockFile) blockSpan(off, n int) uint64 {
	if n <= 0 {
		return 0
	}
	first := off / bf.b
	last := (off + n - 1) / bf.b
	return uint64(last - first + 1)
}

// extend raises the length watermark to at least end records.
func (bf *BlockFile) extend(end int) {
	for {
		cur := bf.n.Load()
		if int64(end) <= cur || bf.n.CompareAndSwap(cur, int64(end)) {
			return
		}
	}
}

// ReadAt fills dst with records [off, off+len(dst)), charging one block
// read per touched block, from the mapping when it covers the span and
// through one pread otherwise. Short reads and faults on the mapping —
// a file truncated behind the engine's back, a device read error — are
// hard errors, never partially read data.
func (bf *BlockFile) ReadAt(off int, dst []seq.Record) error {
	if len(dst) == 0 {
		return nil
	}
	if off < 0 || int64(off+len(dst)) > bf.n.Load() {
		return fmt.Errorf("extmem: read [%d,%d) beyond %s length %d", off, off+len(dst), bf.path, bf.Len())
	}
	mapped := off+len(dst) <= len(bf.mm)/RecordBytes
	start := bf.stats.clock(mapped)
	if mapped {
		if err := bf.copyMapped(off, dst); err != nil {
			return err
		}
	} else if n, err := seq.ReadAt(bf.f, dst, int64(off)*RecordBytes); n != len(dst)*RecordBytes {
		return fmt.Errorf("extmem: short read of %s at record %d (%d of %d bytes): %v",
			bf.path, off, n, len(dst)*RecordBytes, err)
	}
	bf.stats.chargeRead(bf.blockSpan(off, len(dst)), start, mapped)
	return nil
}

// copyMapped copies records [off, off+len(dst)) out of the mapping. A
// mapping reports a page it cannot read (truncated away, or a device
// error) as a fault; the fault becomes an error naming the file and the
// record offset, as a short pread does, instead of killing the process.
func (bf *BlockFile) copyMapped(off int, dst []seq.Record) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			err = fmt.Errorf("extmem: fault reading mapped %s at record %d (truncated or unreadable)", bf.path, off)
		}
	}()
	seq.Decode(dst, bf.mm[off*RecordBytes:(off+len(dst))*RecordBytes])
	return nil
}

// WriteAt stores src at records [off, off+len(src)) with one pwrite,
// charging one block write per touched block and extending the file as
// needed (writes past the current extent leave a hole, which spill
// files use to lay each merge-tree node's output at its input offset).
func (bf *BlockFile) WriteAt(off int, src []seq.Record) error {
	if len(src) == 0 {
		return nil
	}
	if off < 0 {
		return fmt.Errorf("extmem: negative write offset %d on %s", off, bf.path)
	}
	if hook := testWriteErr; hook != nil {
		if err := hook(bf.path, off); err != nil {
			return err
		}
	}
	start := bf.stats.clock(false)
	if _, err := bf.f.WriteAt(seq.Encoded(src), int64(off)*RecordBytes); err != nil {
		return fmt.Errorf("extmem: write %s: %w", bf.path, err)
	}
	bf.extend(off + len(src))
	bf.stats.chargeWrite(bf.blockSpan(off, len(src)), start)
	return nil
}

// Close unmaps and closes the underlying file.
func (bf *BlockFile) Close() error {
	_ = bf.unmap() // the size check matters only to a merge level still reading
	return bf.f.Close()
}

// Remove closes and deletes the file.
func (bf *BlockFile) Remove() error {
	bf.Close()
	return os.Remove(bf.path)
}

// WriteRecordsFile writes recs to path as an uncharged record file —
// a convenience for staging inputs in tests, benchmarks, and examples.
func WriteRecordsFile(path string, recs []seq.Record) error {
	return os.WriteFile(path, seq.Encoded(recs), 0o666)
}

// ReadRecordsFile reads a whole record file back, uncharged.
func ReadRecordsFile(path string) ([]seq.Record, error) {
	bf, err := OpenBlockFile(path, 1, nil)
	if err != nil {
		return nil, err
	}
	defer bf.Close()
	out := make([]seq.Record, bf.Len())
	if err := bf.ReadAt(0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunWriter appends records to a destination region [base, …) of a
// BlockFile through a block-multiple buffer, so every flush is
// block-aligned and a region of n records costs exactly ⌈n/B⌉ block
// writes — the same accounting as the simulator's store-block flushes.
// The engine's merges and post-pass write through it, and so do the
// kernel compositions.
type RunWriter struct {
	bf   *BlockFile
	base int // absolute record offset of the region start
	off  int // records flushed so far
	buf  []seq.Record
}

// NewRunWriter adopts buf (empty, capacity a whole number of blocks —
// the engine carves it from its arena) as the flush buffer.
func NewRunWriter(bf *BlockFile, base int, buf []seq.Record) *RunWriter {
	if cap(buf)%bf.b != 0 || cap(buf) == 0 {
		panic("extmem: RunWriter buffer must be a positive whole number of blocks")
	}
	return &RunWriter{bf: bf, base: base, buf: buf[:0]}
}

// Add appends r, flushing when the buffer fills.
func (w *RunWriter) Add(r seq.Record) error {
	w.buf = append(w.buf, r)
	if len(w.buf) == cap(w.buf) {
		return w.Flush()
	}
	return nil
}

// avail returns the buffer's free tail for the caller to fill in
// place; commit(n) then appends its first n records.
func (w *RunWriter) avail() []seq.Record {
	return w.buf[len(w.buf):cap(w.buf)]
}

// commit appends the first n records of avail's slice, flushing when
// the buffer fills.
func (w *RunWriter) commit(n int) error {
	w.buf = w.buf[:len(w.buf)+n]
	if len(w.buf) == cap(w.buf) {
		return w.Flush()
	}
	return nil
}

// Flush writes the buffered records.
func (w *RunWriter) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if err := w.bf.WriteAt(w.base+w.off, w.buf); err != nil {
		return err
	}
	w.off += len(w.buf)
	w.buf = w.buf[:0]
	return nil
}

// recStream is the record source the loser tree merges: one sorted run
// (or a sub-range of one), handed over a span at a time. runReader
// implements it over a BlockFile; the tests feed in-memory spans.
type recStream interface {
	// span returns the run's next records in order, empty at the end.
	// The span stays valid only until the next call.
	span() ([]seq.Record, error)
}

// runReader streams records of a region [lo, hi) of a BlockFile through
// a refill buffer of bufRecs records, one synchronous ReadAt per span —
// a copy out of the level's mapping, or a pread. Buffers smaller than a
// block make consecutive spans re-read the straddled device block — the
// deliberate read amplification of the wide merge.
type runReader struct {
	bf   *BlockFile
	next int // next record offset to read from
	hi   int
	buf  []seq.Record
}

// newRunReader adopts buf (non-zero capacity) as the refill buffer;
// the engine carves one per run from its arena.
func newRunReader(bf *BlockFile, lo, hi int, buf []seq.Record) *runReader {
	if cap(buf) == 0 {
		panic("extmem: runReader buffer must have capacity")
	}
	return &runReader{bf: bf, next: lo, hi: hi, buf: buf[:cap(buf)]}
}

func (r *runReader) span() ([]seq.Record, error) {
	n := min(r.hi-r.next, len(r.buf))
	if n <= 0 {
		return nil, nil
	}
	s := r.buf[:n]
	if err := r.bf.ReadAt(r.next, s); err != nil {
		return nil, err
	}
	r.next += n
	return s, nil
}
