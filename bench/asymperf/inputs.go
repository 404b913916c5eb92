package main

// Seeded input generation. Every input the program under test sees is
// derived from the -seed flag here, during set-up: record files for the
// direct engine runs, and request bodies (text lines, chunked frames,
// contiguous frames) for the served workloads. Bodies are streamed to
// files in bounded chunks, so no input is ever held whole in memory.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"asymsort/internal/extmem"
	"asymsort/internal/seq"
	"asymsort/internal/wire"
	"asymsort/internal/xrand"
)

// genChunk is the record granularity of every generator's writes.
const genChunk = 1 << 14

// checksum is an order-independent multiset digest of records, the
// same Mix-based construction cmd/asymload verifies responses with,
// extended over the payload so binary responses are checked as whole
// records. Text sort responses carry keys only and are digested with
// val = 0 on both sides.
type checksum struct {
	n        int
	sum, xor uint64
}

func (c *checksum) add(key, val uint64) {
	h := xrand.Mix(key ^ xrand.Mix(val+0x9e3779b97f4a7c15))
	c.n++
	c.sum += h
	c.xor ^= h
}

// shape names a key distribution.
type shape int

const (
	// uniform is the seq.Uniform formula: distinct keys drawn from the
	// full 64-bit space with the index in the low 24 bits, payload =
	// index. Unique keys keep every (Key, Val) pair unique, which the
	// multi-pass selection of k ≥ 2 plans requires, and make a sorted
	// permutation unique, so "sorted + same multiset" proves a result
	// byte-identical to any other correct sort of the same input.
	uniform shape = iota
	// fewDistinct is the seq.FewDistinct formula over fewKeys distinct
	// keys, payload = index: the duplicate-heavy input the semisort
	// post-pass folds.
	fewDistinct
)

// fewKeys is the distinct-key count of fewDistinct inputs.
const fewKeys = 4096

// recGen streams one seeded input record by record.
type recGen struct {
	r     *xrand.SplitMix64
	shape shape
	i     uint64
}

func newRecGen(sh shape, seed uint64) *recGen {
	return &recGen{r: xrand.New(seed), shape: sh}
}

func (g *recGen) next() seq.Record {
	var key uint64
	switch g.shape {
	case fewDistinct:
		key = g.r.Uint64n(fewKeys)
	default:
		key = (g.r.Next() << 24) | g.i&0xffffff
	}
	rec := seq.Record{Key: key, Val: g.i}
	g.i++
	return rec
}

// fill generates len(buf) records into buf.
func (g *recGen) fill(buf []seq.Record) {
	for i := range buf {
		buf[i] = g.next()
	}
}

// subSeed derives an independent generator seed for input number idx
// of a workload from the run's -seed.
func subSeed(seed uint64, tag string, idx int) uint64 {
	h := xrand.Mix(seed)
	for _, c := range []byte(tag) {
		h = xrand.Mix(h ^ uint64(c))
	}
	return xrand.Mix(h ^ uint64(idx))
}

// writeRecordFile streams n records of the given shape into a fresh
// record file (the extmem on-disk format) and returns their digest.
func writeRecordFile(path string, n int, sh shape, seed uint64) (checksum, error) {
	var sum checksum
	bf, err := extmem.CreateBlockFile(path, 1, nil)
	if err != nil {
		return sum, err
	}
	g := newRecGen(sh, seed)
	buf := make([]seq.Record, genChunk)
	for off := 0; off < n; off += genChunk {
		chunk := buf[:min(genChunk, n-off)]
		g.fill(chunk)
		for _, r := range chunk {
			sum.add(r.Key, r.Val)
		}
		if err := bf.WriteAt(off, chunk); err != nil {
			bf.Close()
			return sum, err
		}
	}
	return sum, bf.Close()
}

// dialect is a request body encoding.
type dialect int

const (
	text       dialect = iota // one decimal key per line; the server assigns payload = line index
	chunked                   // a chunked wire frame of whole records
	contiguous                // a contiguous wire frame, staged in place by the server
)

func (d dialect) binary() bool { return d != text }

func (d dialect) String() string {
	if d == text {
		return "text"
	}
	return "binary"
}

// body is one generated request body on disk.
type body struct {
	path  string
	n     int
	size  int64
	sum   checksum     // digest of what a sort response must hold
	input []seq.Record // the whole input, kept only when a reference output is needed
}

// writeBody streams n records of the given shape as a request body in
// dialect d. keep retains the input records for reference outputs.
func writeBody(path string, n int, sh shape, d dialect, seed uint64, keep bool) (*body, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	b := &body{path: path, n: n}
	if keep {
		b.input = make([]seq.Record, 0, n)
	}
	var fw *wire.Writer
	switch d {
	case chunked:
		if fw, err = wire.NewWriter(bw, int64(n)); err != nil {
			return nil, err
		}
	case contiguous:
		if err := wire.WriteContiguousHeader(bw, int64(n)); err != nil {
			return nil, err
		}
	}
	g := newRecGen(sh, seed)
	buf := make([]seq.Record, genChunk)
	raw := make([]byte, genChunk*wire.RecordBytes)
	var line []byte // bw's write errors are sticky; Flush reports them
	for off := 0; off < n; off += genChunk {
		chunk := buf[:min(genChunk, n-off)]
		g.fill(chunk)
		if keep {
			b.input = append(b.input, chunk...)
		}
		switch d {
		case text:
			for _, r := range chunk {
				b.sum.add(r.Key, 0)
				line = strconv.AppendUint(line[:0], r.Key, 10)
				line = append(line, '\n')
				bw.Write(line)
			}
		case chunked:
			for _, r := range chunk {
				b.sum.add(r.Key, r.Val)
			}
			err = fw.WriteRecords(chunk)
		case contiguous:
			for _, r := range chunk {
				b.sum.add(r.Key, r.Val)
			}
			wire.EncodeRecords(raw, chunk)
			_, err = bw.Write(raw[:len(chunk)*wire.RecordBytes])
		}
		if err != nil {
			return nil, err
		}
	}
	if fw != nil {
		if err := fw.Close(); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	b.size = fi.Size()
	return b, f.Close()
}

// sizeAt is the size of body i of a k-body pool: the midpoints of k
// equal slices of [lo, hi]. Sizes are fixed, not drawn from the seed,
// so every seed runs the same size mix and only the keys change; a seeded
// draw over a handful of bodies moved latency by more than a regression
// bound from one seed to the next.
func sizeAt(lo, hi, i, k int) int {
	return lo + (2*i+1)*(hi-lo)/(2*k)
}

// bodyPath names body idx of a pool inside dir.
func bodyPath(dir, pool string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d.body", pool, idx))
}
