package main

// The kernel-mix path: jobs whose kernel isn't "sort" post to the
// generic /v1/{kernel} endpoint and are verified differentially — the
// client regenerates the job's records, computes the expected output
// with the kernel's in-memory reference, and compares the response
// record for record. Unlike the sort path (which can verify a stream
// with order checks and a multiset checksum), kernel outputs are
// arbitrary reductions, so the reference is the only ground truth; the
// jobs are small enough that buffering them is free.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"asymsort/internal/kernel"
	"asymsort/internal/seq"
	"asymsort/internal/wire"
	"asymsort/internal/xrand"
)

// kernelPool resolves the -kernels list against the registry.
func kernelPool(list string) ([]string, error) {
	var pool []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if _, ok := kernel.Get(name); !ok {
			return nil, fmt.Errorf("unknown kernel %q (have %s)", name, strings.Join(kernel.Names(), ", "))
		}
		pool = append(pool, name)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("-kernels is empty")
	}
	return pool, nil
}

// paramsFor derives a job's kernel parameters from its size alone, so
// both sides of the differential (the request query and the local
// reference) agree without any extra wire state.
func paramsFor(sp jobSpec) kernel.Params {
	switch sp.kernel {
	case "histogram":
		return kernel.Params{Buckets: 256}
	case "top-k":
		k := sp.n / 16
		if k < 1 {
			k = 1
		}
		return kernel.Params{K: k}
	case "merge-join":
		return kernel.Params{LeftN: sp.n / 2}
	default:
		return kernel.Params{}
	}
}

// kernelQuery renders the parameters a kernel job forwards.
func kernelQuery(sp jobSpec, p kernel.Params) string {
	var q string
	switch sp.kernel {
	case "histogram":
		q = "&buckets=" + strconv.Itoa(p.Buckets)
	case "top-k":
		q = "&k=" + strconv.Itoa(p.K)
	case "merge-join":
		q = "&left=" + strconv.Itoa(p.LeftN)
	}
	return q
}

// runKernelJob posts one non-sort job to /v1/{kernel} and verifies the
// response record for record against the kernel's in-memory reference.
// The input records pair each generated key with its index — exactly
// the payload the server's text stager assigns — so the text and frame
// dialects compute over identical record multisets, and the -save
// input dumps stay diffable against sort runs of the same seed.
func runKernelJob(addr, model string, jobMem int, save string, sp jobSpec) jobResult {
	res := jobResult{spec: sp}
	k, ok := kernel.Get(sp.kernel)
	if !ok {
		res.err = fmt.Errorf("kernel %q vanished from the registry", sp.kernel)
		return res
	}
	p := paramsFor(sp)

	r := xrand.New(sp.seed)
	recs := make([]seq.Record, sp.n)
	if sp.kernel == "merge-join" {
		// A join's output is quadratic in per-key duplication, so
		// merge-join jobs draw from a fixed ~8-copies-per-key
		// distribution instead of the mix's shape — the "equal" and
		// "dups" shapes would blow the output up to Θ(n²) records.
		span := uint64(sp.n/8 + 1)
		for i := range recs {
			recs[i] = seq.Record{Key: r.Next() % span, Val: uint64(i)}
		}
	} else {
		for i := range recs {
			recs[i] = seq.Record{Key: genKey(sp, r, i), Val: uint64(i)}
		}
	}
	if err := k.Check(len(recs), p); err != nil {
		res.err = err
		return res
	}
	want := k.Ref(recs, p)

	if save != "" {
		if err := dump(filepath.Join(save, fmt.Sprintf("job-%d-in.txt", sp.id)), recs, false); err != nil {
			res.err = err
			return res
		}
	}

	var body bytes.Buffer
	contentType := "text/plain"
	if sp.binary {
		contentType = wire.ContentType
		fw, err := wire.NewWriter(&body, int64(len(recs)))
		if err == nil {
			err = fw.WriteRecords(recs)
		}
		if err == nil {
			err = fw.Close()
		}
		if err != nil {
			res.err = err
			return res
		}
	} else {
		for _, rec := range recs {
			body.Write(wire.AppendLine(body.AvailableBuffer(), rec, false))
		}
	}

	query := "/v1/" + sp.kernel + "?model=" + model + kernelQuery(sp, p)
	if jobMem > 0 {
		query += "&mem=" + strconv.Itoa(jobMem)
	}
	start := time.Now()
	resp, err := http.Post(addr+query, contentType, &body)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
		return res
	}
	if got := resp.Header.Get("X-Asymsortd-Kernel"); got != sp.kernel {
		res.err = fmt.Errorf("asked for kernel %q, server ran %q", sp.kernel, got)
		return res
	}
	res.model = resp.Header.Get("X-Asymsortd-Model")
	res.memRecs, _ = strconv.Atoi(resp.Header.Get("X-Asymsortd-Mem"))

	var got []seq.Record
	res.ttfb, res.err = readResponse(resp, sp.binary, true, start, func(recs []seq.Record) error {
		got = append(got, recs...)
		return nil
	})
	if res.err != nil {
		return res
	}
	res.wall = time.Since(start)

	if outN, err := strconv.Atoi(resp.Header.Get("X-Asymsortd-Out")); err == nil && outN != len(got) {
		res.err = fmt.Errorf("X-Asymsortd-Out says %d records, body carried %d", outN, len(got))
		return res
	}
	if len(got) != len(want) {
		res.err = fmt.Errorf("kernel %s returned %d records, reference computes %d", sp.kernel, len(got), len(want))
		return res
	}
	for i := range got {
		if got[i] != want[i] {
			res.err = fmt.Errorf("kernel %s diverges from the reference at record %d: got {%d %d}, want {%d %d}",
				sp.kernel, i, got[i].Key, got[i].Val, want[i].Key, want[i].Val)
			return res
		}
	}
	if save != "" {
		if err := dump(filepath.Join(save, fmt.Sprintf("job-%d-out.txt", sp.id)), got, true); err != nil {
			res.err = err
			return res
		}
	}
	return res
}

// dump writes recs to path as text lines: bare keys — the same shape
// the sort path dumps, so mixed-kernel runs stay diffable — or "key
// value" lines when withVals is set, for a kernel's output.
func dump(path string, recs []seq.Record, withVals bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	for _, rec := range recs {
		// A write error sticks and Flush returns it.
		bw.Write(wire.AppendLine(bw.AvailableBuffer(), rec, withVals))
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
