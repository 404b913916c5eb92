package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"

	"asymsort/internal/seq"
)

// MaxLineBytes caps one text line. A line is at most two decimal
// uint64s; the cap is generous for junk while keeping a garbage body
// from ballooning the reader's buffer.
const MaxLineBytes = 1 << 20

// AppendLine appends r as one text line to dst: "key\n", or "key
// value\n" when withVals is set.
func AppendLine(dst []byte, r seq.Record, withVals bool) []byte {
	dst = strconv.AppendUint(dst, r.Key, 10)
	if withVals {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, r.Val, 10)
	}
	return append(dst, '\n')
}

// TextReader reads text lines as records: bare keys, each given its
// record index as payload, or "key value" lines when withVals is set.
// Blank lines are skipped.
type TextReader struct {
	sc       *bufio.Scanner
	withVals bool
	line     int    // lines read so far
	recs     uint64 // records read so far
}

// NewTextReader returns a TextReader of r.
func NewTextReader(r io.Reader, withVals bool) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), MaxLineBytes)
	return &TextReader{sc: sc, withVals: withVals}
}

// ReadRecords reads up to len(buf) records into buf and returns how
// many it read. At the end of the input it returns io.EOF, possibly
// with the last records. Every other error names the 1-based line it
// stopped at.
func (tr *TextReader) ReadRecords(buf []seq.Record) (int, error) {
	n := 0
	for n < len(buf) {
		if !tr.sc.Scan() {
			err := tr.sc.Err()
			if err == nil {
				return n, io.EOF
			}
			if errors.Is(err, bufio.ErrTooLong) {
				err = fmt.Errorf("line exceeds %d bytes", MaxLineBytes)
			}
			return n, fmt.Errorf("line %d: %w", tr.line+1, err)
		}
		tr.line++
		b := tr.sc.Bytes()
		if len(b) == 0 {
			continue
		}
		// The string conversions below do not escape (strconv copies
		// what its errors quote), so a line costs no allocation.
		var err error
		if tr.withVals {
			buf[n], err = parsePair(b)
		} else {
			buf[n].Key, err = strconv.ParseUint(string(b), 10, 64)
			buf[n].Val = tr.recs
		}
		if err != nil {
			return n, fmt.Errorf("line %d: %v", tr.line, err)
		}
		n++
		tr.recs++
	}
	return n, nil
}

// parsePair decodes one "key value" line.
func parsePair(b []byte) (seq.Record, error) {
	ks, vs, ok := bytes.Cut(b, []byte{' '})
	if !ok {
		return seq.Record{}, errors.New(`want "key value"`)
	}
	key, err := strconv.ParseUint(string(ks), 10, 64)
	if err != nil {
		return seq.Record{}, err
	}
	val, err := strconv.ParseUint(string(vs), 10, 64)
	return seq.Record{Key: key, Val: val}, err
}
