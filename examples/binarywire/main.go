// The binary record-frame wire, end to end.
//
// The sort service's hot path speaks internal/wire frames instead of
// newline-decimal text: raw little-endian records, so neither side ever
// runs strconv, the server spools request bodies straight into its
// staged record file, and responses stream straight out of the sorted
// one. This example runs the whole story in-process:
//
//  1. write a contiguous frame file — 16-byte header, then count×16
//     raw record bytes — and hand it to the extmem engine with
//     Config.InSkip = 1: the header occupies exactly one record slot,
//     so the frame file IS the staged input and staging costs zero
//     writes (the same handoff `asymsort -model ext -wire binary`
//     performs on seekable contiguous inputs);
//  2. stand up the sort service and POST the same records as a chunked
//     frame with Content-Type application/x-asymsort-records, getting
//     a framed sorted response back — negotiation needs no custom
//     headers beyond the standard pair;
//  3. print the equivalent curl and asymload invocations for a live
//     asymsortd.
//
// Run: go run ./examples/binarywire
package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"asymsort/internal/extmem"
	"asymsort/internal/seq"
	"asymsort/internal/serve"
	"asymsort/internal/wire"
)

func main() {
	const n = 200000
	recs := seq.Uniform(n, 7)

	dir, err := os.MkdirTemp("", "binarywire-example-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// --- 1. The file dialect: contiguous frame, zero-copy handoff. ---
	framePath := filepath.Join(dir, "in.asrf")
	f, err := os.Create(framePath)
	if err != nil {
		panic(err)
	}
	bw := bufio.NewWriter(f)
	if err := wire.WriteContiguousHeader(bw, int64(n)); err != nil {
		panic(err)
	}
	raw := make([]byte, n*wire.RecordBytes)
	wire.EncodeRecords(raw, recs)
	bw.Write(raw)
	if err := bw.Flush(); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}

	// The frame file goes to the engine as-is: InSkip tells it the
	// first record slot is the frame header, everything else is the
	// engine's usual on-disk record layout. No staging copy happens.
	outPath := filepath.Join(dir, "sorted.bin")
	rep, err := extmem.Sort(extmem.Config{
		Mem: 1 << 16, Block: 64, TmpDir: dir, InSkip: 1,
	}, framePath, outPath)
	if err != nil {
		panic(err)
	}
	fmt.Printf("contiguous frame %s sorted in place of a staged copy:\n", filepath.Base(framePath))
	fmt.Printf("  %d records, %d block reads, %d block writes (plan: %d)\n\n",
		rep.N, rep.Total.Reads, rep.Total.Writes, rep.PlanWrites)

	// --- 2. The HTTP dialect: chunked frames both ways. ---
	broker, err := serve.NewBroker(serve.BrokerConfig{Mem: 1 << 20})
	if err != nil {
		panic(err)
	}
	srv, err := serve.NewServer(serve.ServerConfig{Broker: broker, TmpDir: dir})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	go func() {
		fw, err := wire.NewWriter(pw, int64(n))
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		if err := fw.WriteRecords(recs); err != nil {
			pw.CloseWithError(err)
			return
		}
		pw.CloseWithError(fw.Close())
	}()
	resp, err := http.Post(ts.URL+"/sort", wire.ContentType, pr)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		panic(fmt.Sprintf("status %d: %s", resp.StatusCode, body))
	}
	fr, err := wire.NewReader(resp.Body)
	if err != nil {
		panic(err)
	}
	buf := make([]seq.Record, 4096)
	var prev uint64
	total := 0
	for {
		m, rerr := fr.ReadRecords(buf)
		for _, r := range buf[:m] {
			if r.Key < prev {
				panic("response not sorted")
			}
			prev = r.Key
			total++
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			panic(rerr)
		}
	}
	fmt.Printf("POST /sort with Content-Type %s:\n", wire.ContentType)
	fmt.Printf("  wire=%s model=%s, %d sorted records streamed back framed\n\n",
		resp.Header.Get("X-Asymsortd-Wire"), resp.Header.Get("X-Asymsortd-Model"), total)

	// --- 3. The same conversations against a live daemon. ---
	fmt.Println("against a running asymsortd:")
	fmt.Println()
	fmt.Println("  # frame both ways (the Accept header asks for a framed response")
	fmt.Println("  # even when the request body is text):")
	fmt.Println("  curl -s -H 'Content-Type: application/x-asymsort-records' \\")
	fmt.Println("       --data-binary @records.asrf http://127.0.0.1:8077/sort > sorted.asrf")
	fmt.Println()
	fmt.Println("  # the load generator's binary and mixed dialects:")
	fmt.Println("  asymload -jobs 8 -concurrency 8 -wire binary")
	fmt.Println("  asymload -jobs 8 -concurrency 8 -wire mixed   # alternate by job id")
	fmt.Println()
	fmt.Println("  # sort a frame file under an 8MB budget, zero staging writes:")
	fmt.Println("  asymsort -model ext -wire binary -in records.asrf -out sorted.asrf -mem 8MB")
}
