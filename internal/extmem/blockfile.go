package extmem

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"asymsort/internal/seq"
)

// RecordBytes is the on-disk footprint of one record: key then payload,
// little-endian uint64s. It matches the 16-byte in-memory footprint
// that makes the simulators' block-size parameter B meaningful.
const RecordBytes = 16

// BlockFile is a file of fixed-width binary records addressed at record
// granularity, with every transfer charged to an IOStats ledger at
// block granularity: a transfer of records [off, off+n) touches the
// device blocks ⌊off/B⌋ .. ⌊(off+n-1)/B⌋ and charges one read or write
// per touched block, exactly as aem.File.ReadRange/WriteRange charge
// the simulated ledger. Reading a span smaller than a block therefore
// still costs a whole block read — which is how the merge stage's
// sub-block prefetch buffers realize the paper's k× read multiplier on
// a real device.
//
// A BlockFile is safe for concurrent use: transfers go through
// pread/pwrite on disjoint extents, encode/decode scratch comes from a
// shared pool, the length watermark is atomic, and the IOStats ledger
// is atomic. The parallel merge stage relies on this to let every
// worker stream its own key range of the same spill file.
type BlockFile struct {
	f     *os.File
	path  string
	b     int          // block size in records
	n     atomic.Int64 // file length in records (max extent written)
	stats *IOStats     // nil = uncharged (staging and test fixtures)
}

// testWriteErr, when non-nil, is consulted by every WriteAt before it
// touches the device — the fault-injection point for error-path tests.
// It must be set before an engine starts and cleared after it returns.
var testWriteErr func(path string, off int) error

// scratchPool holds encode/decode buffers of the maximum per-piece
// transfer size; chunking (ioChunk) bounds every piece to this size, so
// one fixed-capacity pool serves all concurrent transfers.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, ioChunk*RecordBytes)
		return &b
	},
}

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

// decodeRecs fills recs from their little-endian on-disk form; raw must
// hold exactly len(recs)*RecordBytes bytes.
func decodeRecs(recs []seq.Record, raw []byte) {
	for i := range recs {
		recs[i].Key = binary.LittleEndian.Uint64(raw[i*RecordBytes:])
		recs[i].Val = binary.LittleEndian.Uint64(raw[i*RecordBytes+8:])
	}
}

// encodeRecs renders recs into their little-endian on-disk form; raw
// must hold exactly len(recs)*RecordBytes bytes.
func encodeRecs(raw []byte, recs []seq.Record) {
	for i, r := range recs {
		binary.LittleEndian.PutUint64(raw[i*RecordBytes:], r.Key)
		binary.LittleEndian.PutUint64(raw[i*RecordBytes+8:], r.Val)
	}
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

// ioChunk bounds the per-syscall encode/decode scratch of one logical
// transfer, in records: large transfers (a whole M-record run) move in
// 64KB pieces so the scratch buffer stays negligible next to the
// memory budget instead of shadowing it. Charging is per logical
// transfer, not per piece, so chunking never changes the ledger.
const ioChunk = 1 << 12

// ReadAt fills dst with records [off, off+len(dst)), charging one block
// read per touched block. Short reads — a file truncated behind the
// engine's back — are hard errors, never partially decoded data.
func (bf *BlockFile) ReadAt(off int, dst []seq.Record) error {
	if len(dst) == 0 {
		return nil
	}
	if off < 0 || int64(off+len(dst)) > bf.n.Load() {
		return fmt.Errorf("extmem: read [%d,%d) beyond %s length %d", off, off+len(dst), bf.path, bf.Len())
	}
	sp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(sp)
	start := time.Now()
	for lo := 0; lo < len(dst); lo += ioChunk {
		sub := dst[lo:min(lo+ioChunk, len(dst))]
		raw := (*sp)[:len(sub)*RecordBytes]
		n, err := bf.f.ReadAt(raw, int64(off+lo)*RecordBytes)
		if n != len(raw) {
			return fmt.Errorf("extmem: short read of %s at record %d (%d of %d bytes): %v",
				bf.path, off+lo, n, len(raw), err)
		}
		decodeRecs(sub, raw)
	}
	if bf.stats != nil {
		bf.stats.chargeRead(bf.blockSpan(off, len(dst)), time.Since(start))
	}
	return nil
}

// WriteAt stores src at records [off, off+len(src)), charging one block
// write per touched block and extending the file as needed (writes past
// the current extent leave a hole, which spill files use to lay each
// merge-tree node's output at its input offset).
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
	sp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(sp)
	start := time.Now()
	for lo := 0; lo < len(src); lo += ioChunk {
		sub := src[lo:min(lo+ioChunk, len(src))]
		raw := (*sp)[:len(sub)*RecordBytes]
		encodeRecs(raw, sub)
		if _, err := bf.f.WriteAt(raw, int64(off+lo)*RecordBytes); err != nil {
			return fmt.Errorf("extmem: write %s: %w", bf.path, err)
		}
	}
	bf.extend(off + len(src))
	if bf.stats != nil {
		bf.stats.chargeWrite(bf.blockSpan(off, len(src)), time.Since(start))
	}
	return nil
}

// Close closes the underlying file.
func (bf *BlockFile) Close() error { return bf.f.Close() }

// Remove closes and deletes the file.
func (bf *BlockFile) Remove() error {
	bf.f.Close()
	return os.Remove(bf.path)
}

// WriteRecordsFile writes recs to path as an uncharged record file —
// a convenience for staging inputs in tests, benchmarks, and examples.
func WriteRecordsFile(path string, recs []seq.Record) error {
	bf, err := CreateBlockFile(path, 1, nil)
	if err != nil {
		return err
	}
	if err := bf.WriteAt(0, recs); err != nil {
		bf.Close()
		return err
	}
	return bf.Close()
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

// runWriter appends records to a destination region [base, …) of a
// BlockFile through a block-multiple buffer, so every flush is
// block-aligned and a region of n records costs exactly ⌈n/B⌉ block
// writes — the same accounting as the simulator's store-block flushes.
type runWriter struct {
	bf   *BlockFile
	base int // absolute record offset of the region start
	off  int // records flushed so far
	buf  []seq.Record
}

// newRunWriter adopts buf (empty, capacity a whole number of blocks —
// the engine carves it from its arena) as the flush buffer.
func newRunWriter(bf *BlockFile, base int, buf []seq.Record) *runWriter {
	if cap(buf)%bf.b != 0 || cap(buf) == 0 {
		panic("extmem: runWriter buffer must be a positive whole number of blocks")
	}
	return &runWriter{bf: bf, base: base, buf: buf[:0]}
}

func (w *runWriter) add(r seq.Record) error {
	w.buf = append(w.buf, r)
	if len(w.buf) == cap(w.buf) {
		return w.flush()
	}
	return nil
}

func (w *runWriter) flush() error {
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

// written returns how many records have been flushed plus buffered.
func (w *runWriter) written() int { return w.off + len(w.buf) }

// recStream is the record source the loser tree merges: one sorted run
// (or a sub-range of one), handed over a span at a time. runReader is
// the synchronous implementation; prefetchReader (aio.go) overlaps the
// next refill with consumption.
type recStream interface {
	// span returns the run's next records in order, empty at the end.
	// The span stays valid only until the next call.
	span() ([]seq.Record, error)
}

// runReader streams records of a region [lo, hi) of a BlockFile through
// a prefetch buffer of bufRecs records, one ReadAt per span. Buffers
// smaller than a block make consecutive spans re-read the straddled
// device block — the deliberate read amplification of the wide merge.
type runReader struct {
	bf   *BlockFile
	next int // next record offset to read from
	hi   int
	buf  []seq.Record
}

// newRunReader adopts buf (non-zero capacity) as the prefetch buffer;
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
