package main

// Output verification. Every timed operation is checked after its
// timer stops; any of the conditions below counts it as failed:
//
//   - a transport error or a non-200 response (checked by the callers);
//   - a sort output not ordered under seq.TotalLess (keys only, for text
//     responses, which carry no payloads);
//   - a record count or multiset digest that differs from the input;
//   - a semisort output that differs from kernel.Ref on the same input;
//   - a measured block-write ledger that differs from the plan's.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"asymsort/internal/extmem"
	"asymsort/internal/seq"
	"asymsort/internal/wire"
)

// expect is what a correct response to one request holds.
type expect struct {
	kernel string // "sort" or "semisort"
	binary bool   // response dialect
	n      int    // input records
	sum    checksum
	// ref is kernel.Ref's output on the input (semisort only).
	ref []seq.Record
	// ledger requires the X-Asymsortd-Writes / -Plan-Writes pair: set for
	// requests that must run on the external engine.
	ledger bool
}

// checkLedger enforces the write-plan identity on response headers and
// returns the measured writes (0 when the job reported no ledger).
func checkLedger(e *expect, h http.Header) (uint64, error) {
	ws, ps := h.Get("X-Asymsortd-Writes"), h.Get("X-Asymsortd-Plan-Writes")
	if ws == "" && ps == "" {
		if e.ledger {
			return 0, fmt.Errorf("no write ledger in the response headers (model %q)", h.Get("X-Asymsortd-Model"))
		}
		return 0, nil
	}
	w, err := strconv.ParseUint(ws, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad X-Asymsortd-Writes %q", ws)
	}
	p, err := strconv.ParseUint(ps, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad X-Asymsortd-Plan-Writes %q", ps)
	}
	if w != p || w == 0 {
		return w, fmt.Errorf("measured writes %d != planned writes %d", w, p)
	}
	return w, nil
}

// verifyResponse checks one response body against its expectation and
// returns the ledger writes the headers carried.
func verifyResponse(e *expect, h http.Header, body []byte) (uint64, error) {
	writes, err := checkLedger(e, h)
	if err != nil {
		return writes, err
	}
	var got []seq.Record
	var sum checksum
	var prev seq.Record
	visit := func(r seq.Record) error {
		if sum.n > 0 && seq.TotalLess(r, prev) {
			return fmt.Errorf("output not sorted at record %d", sum.n)
		}
		prev = r
		sum.add(r.Key, r.Val)
		if e.ref != nil {
			got = append(got, r)
		}
		return nil
	}
	if e.binary {
		err = scanFrame(body, visit)
	} else {
		err = scanLines(body, e.kernel != "sort", visit)
	}
	if err != nil {
		return writes, err
	}
	if e.ref != nil {
		return writes, sameRecords(got, e.ref)
	}
	if sum.n != e.n {
		return writes, fmt.Errorf("output has %d records, input had %d", sum.n, e.n)
	}
	if sum != e.sum {
		return writes, errors.New("output is not a permutation of the input (multiset digest differs)")
	}
	return writes, nil
}

// scanFrame decodes a binary response frame record by record.
func scanFrame(body []byte, visit func(seq.Record) error) error {
	fr, err := wire.NewReader(bytes.NewReader(body))
	if err != nil {
		return err
	}
	buf := make([]seq.Record, 1<<13)
	for {
		m, rerr := fr.ReadRecords(buf)
		for _, r := range buf[:m] {
			if err := visit(r); err != nil {
				return err
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// scanLines parses a text response: bare keys, or "key value" lines
// when withVals is set.
func scanLines(body []byte, withVals bool, visit func(seq.Record) error) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<16)
	line := 0
	for sc.Scan() {
		line++
		txt := sc.Bytes()
		var r seq.Record
		keyTxt := txt
		if withVals {
			sp := bytes.IndexByte(txt, ' ')
			if sp < 0 {
				return fmt.Errorf("response line %d: want \"key value\", got %q", line, txt)
			}
			keyTxt = txt[:sp]
			v, err := strconv.ParseUint(string(txt[sp+1:]), 10, 64)
			if err != nil {
				return fmt.Errorf("response line %d: %v", line, err)
			}
			r.Val = v
		}
		k, err := strconv.ParseUint(string(keyTxt), 10, 64)
		if err != nil {
			return fmt.Errorf("response line %d: %v", line, err)
		}
		r.Key = k
		if err := visit(r); err != nil {
			return err
		}
	}
	return sc.Err()
}

// sameRecords reports the first difference between got and want.
func sameRecords(got, want []seq.Record) error {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("output row %d is %v, reference has %v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("output has %d rows, reference has %d", len(got), len(want))
	}
	return nil
}

// verifyRecordFile checks a sorted record file against the input's
// count and digest.
func verifyRecordFile(path string, n int, want checksum) error {
	bf, err := extmem.OpenBlockFile(path, 1, nil)
	if err != nil {
		return err
	}
	defer bf.Close()
	if bf.Len() != n {
		return fmt.Errorf("output has %d records, input had %d", bf.Len(), n)
	}
	var sum checksum
	var prev seq.Record
	buf := make([]seq.Record, genChunk)
	for off := 0; off < n; off += genChunk {
		chunk := buf[:min(genChunk, n-off)]
		if err := bf.ReadAt(off, chunk); err != nil {
			return err
		}
		for _, r := range chunk {
			if sum.n > 0 && seq.TotalLess(r, prev) {
				return fmt.Errorf("output not sorted at record %d", sum.n)
			}
			prev = r
			sum.add(r.Key, r.Val)
		}
	}
	if sum != want {
		return errors.New("output is not a permutation of the input (multiset digest differs)")
	}
	return nil
}
