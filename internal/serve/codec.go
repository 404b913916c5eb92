package serve

// The wire codec: one dialect-aware staging and streaming pipeline
// shared by every kernel job. A Codec value captures one direction's
// negotiated dialect; Stage spools a request body into the staged
// binary record file (fixing n), and Stream sends a result record file
// back out. Both dialects live in internal/wire. Binary frames carry
// a payload that IS the staged on-disk format — no parse, no
// re-encode, a single buffered copy each way — while text is read
// through wire.TextReader (payload = record index, blank lines are not
// numbered: the repository-wide unique-pair convention) and rendered
// with wire.AppendLine: keys, or "key value" pairs for kernels whose
// payloads carry results.
//
// The codec is exported because the cluster coordinator speaks the
// same dialects: it stages client bodies with StageRequest, ships
// shards to workers as contiguous frames, and gathers sorted shard
// files back to the client with StreamFiles.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"asymsort/internal/extmem"
	"asymsort/internal/obs"
	"asymsort/internal/seq"
	"asymsort/internal/wire"
)

// stageChunk is the record granularity of staging and output streams.
const stageChunk = 1 << 14

// Codec is one direction's negotiated wire dialect.
type Codec struct {
	// Binary selects internal/wire record frames over newline-decimal
	// text.
	Binary bool
	// WithVals makes text output render "key value" lines instead of
	// bare keys — the dialect of every kernel whose result payloads mean
	// something (group sums, bucket counts, join sums). Binary output
	// always carries whole records. Ignored for staging.
	WithVals bool
}

// Name returns the dialect name announced in X-Asymsortd-Wire.
func (c Codec) Name() string {
	if c.Binary {
		return "binary"
	}
	return "text"
}

// ContentType returns the response Content-Type for the dialect.
func (c Codec) ContentType() string {
	if c.Binary {
		return wire.ContentType
	}
	return "text/plain; charset=utf-8"
}

// Negotiate picks the request and response dialects: a binary
// Content-Type selects binary ingest, and the response mirrors the
// request unless the Accept header names a dialect explicitly.
func Negotiate(r *http.Request) (in, out Codec) {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err == nil && mt == wire.ContentType {
			in.Binary = true
		}
	}
	out.Binary = in.Binary
	if acc := r.Header.Get("Accept"); acc != "" {
		switch {
		case strings.Contains(acc, wire.ContentType):
			out.Binary = true
		case strings.Contains(acc, "text/plain"):
			out.Binary = false
		}
	}
	return in, out
}

// Stage spools a request body into the staged binary record file at
// dst and returns the payload record count n plus the file's leading
// skip: the number of non-payload record slots at the front of the
// staged file. A contiguous binary frame is staged header-in-place
// (the frame bytes ARE the staged file, skip = 1), which is the
// zero-copy handoff the engine consumes via extmem.Config.InSkip;
// every other dialect stages payload only (skip = 0).
func (c Codec) Stage(r io.Reader, dst string) (n, skip int, err error) {
	if c.Binary {
		return stageRecords(r, dst)
	}
	n, err = stageKeys(r, dst)
	return n, 0, err
}

// Staged is a job request's body spooled into its job dir: the binary
// record file at Path holds Skip non-payload record slots, then N
// payload records (see Codec.Stage).
type Staged struct {
	In, Out Codec // the negotiated request and response dialects
	Path    string
	N, Skip int
}

// StageRequest negotiates the request's dialects and stages its body
// into dir under a "stage" span of parent. A failure is answered before
// it returns: 400 for a malformed body or any text-dialect failure, and
// 500 for a well-formed binary frame the device could not take. A
// client hang-up is not answered (nobody is listening) and comes back
// wrapping the request context's error. The dialects and the count
// staged so far are returned on failure too.
func StageRequest(w http.ResponseWriter, r *http.Request, id int, dir string, parent *obs.Span) (Staged, error) {
	st := Staged{Path: filepath.Join(dir, "in.bin")}
	st.In, st.Out = Negotiate(r)
	sp := parent.Child("stage")
	var err error
	st.N, st.Skip, err = st.In.Stage(r.Body, st.Path)
	sp.Set(obs.Attr{Key: "recs", Val: int64(st.N)})
	sp.End()
	switch {
	case err == nil:
		return st, nil
	case r.Context().Err() != nil:
		// The body read error is just the disconnect surfacing.
		return st, fmt.Errorf("job %d: %w: %w", id, r.Context().Err(), err)
	case st.In.Binary && !errors.Is(err, wire.ErrFormat):
		// The frame was well-formed; the failure is ours (device, disk).
		return st, Fail(w, http.StatusInternalServerError, "job %d: %v", id, err)
	}
	return st, Fail(w, http.StatusBadRequest, "job %d: %v", id, err)
}

// Stream sends the result record file at path (n records, no leading
// skip) to w in the codec's dialect.
func (c Codec) Stream(w io.Writer, path string, n int) error {
	return c.StreamFiles(w, []string{path}, n)
}

// StreamFiles sends the concatenation of the result record files at
// paths (n records in total) to w in the codec's dialect. This is the
// coordinator's gather: sorted shard files stream back-to-back as one
// frame (or one text body) without ever being merged on disk.
func (c Codec) StreamFiles(w io.Writer, paths []string, n int) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if c.Binary {
		if err := streamRecords(paths, n, bw); err != nil {
			return err
		}
	} else {
		for _, path := range paths {
			if err := streamText(path, bw, c.WithVals); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// stageKeys stages one decimal key per line into a binary record file
// (payload = record index, so equal keys keep their input order) and
// returns the record count.
func stageKeys(r io.Reader, dst string) (int, error) {
	bf, err := extmem.CreateBlockFile(dst, 1, nil)
	if err != nil {
		return 0, err
	}
	defer bf.Close()
	tr := wire.NewTextReader(r, false)
	buf := make([]seq.Record, stageChunk)
	for n := 0; ; {
		m, err := tr.ReadRecords(buf)
		if werr := bf.WriteAt(n, buf[:m]); werr != nil {
			return 0, werr
		}
		n += m
		if err == io.EOF {
			return n, bf.Close()
		}
		if err != nil {
			return 0, err
		}
	}
}

// stageRecords spools a binary wire frame into the staged record file
// and returns the payload count plus the leading skip. A chunked frame
// spools payload only (skip 0); a contiguous frame is re-staged
// header-first, so the staged file is byte-identical to the frame and
// the engine reads the payload in place behind InSkip = 1 — the frame
// header occupies exactly one record slot by design. Either way the
// body is validated as it spools and never parsed record-by-record.
func stageRecords(r io.Reader, dst string) (int, int, error) {
	fr, err := wire.NewReader(r)
	if err != nil {
		return 0, 0, err
	}
	f, err := os.Create(dst)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	skip := 0
	if hdr := fr.Header(); hdr.Contiguous {
		raw, err := wire.AppendHeader(nil, hdr)
		if err != nil {
			return 0, 0, err
		}
		if _, err := bw.Write(raw); err != nil {
			return 0, 0, err
		}
		skip = 1
	}
	n, err := fr.Spool(bw)
	if err != nil {
		return 0, 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, 0, err
	}
	return int(n), skip, f.Close()
}

// streamText writes the result binary file out as text: bare keys one
// per line, or "key value" lines when the kernel's payloads carry
// results.
func streamText(binPath string, bw *bufio.Writer, withVals bool) error {
	bf, err := extmem.OpenBlockFile(binPath, 1, nil)
	if err != nil {
		return err
	}
	defer bf.Close()
	// Each line renders straight into bw's free space.
	return extmem.ScanRecords(bf, 0, bf.Len(), func(r seq.Record) error {
		_, err := bw.Write(wire.AppendLine(bw.AvailableBuffer(), r, withVals))
		return err
	})
}

// streamRecords streams the result record files out as one chunked
// binary frame with its count announced: raw file bytes feed the
// frame's chunks directly — no decode, no AppendUint pass. The
// Writer's count check at Close turns a short or long file into a hard
// error instead of a silently wrong frame.
func streamRecords(binPaths []string, n int, bw *bufio.Writer) error {
	fw, err := wire.NewWriter(bw, int64(n))
	if err != nil {
		return err
	}
	buf := make([]byte, stageChunk*extmem.RecordBytes)
	for _, binPath := range binPaths {
		f, err := os.Open(binPath)
		if err != nil {
			return err
		}
		for {
			m, err := io.ReadFull(f, buf)
			if m > 0 {
				if werr := fw.WriteRaw(buf[:m]); werr != nil {
					f.Close()
					return werr
				}
			}
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
			if err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return fw.Close()
}
