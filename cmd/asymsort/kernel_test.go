package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"asymsort/internal/kernel"
	"asymsort/internal/seq"
	"asymsort/internal/wire"
)

// TestKernelRun runs every registry kernel through the -kernel path on
// a text file, under -model ext and under the metered co model. The
// -out bytes must be the kernel's in-memory reference in the text
// dialect: bare keys for sort, "key value" lines otherwise. Those are
// the bytes TestServeKernelEndpointsText requires of a served body, so
// a solo run equals a served run through the reference. An ext run
// must also leave its spill directory empty.
func TestKernelRun(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	var text []byte
	var in []seq.Record
	for i := 0; i < 3000; i++ {
		r := seq.Record{Key: uint64(rng.Intn(500)), Val: uint64(i)}
		in = append(in, r)
		text = wire.AppendLine(text, r, false)
	}
	inPath := filepath.Join(dir, "in.txt")
	if err := os.WriteFile(inPath, text, 0o666); err != nil {
		t.Fatal(err)
	}

	for _, name := range kernel.Names() {
		k, _ := kernel.Get(name)
		p := kernel.Params{Buckets: 13, K: 25, LeftN: 1000}
		var want []byte
		for _, r := range k.Ref(in, p) {
			want = wire.AppendLine(want, r, name != "sort")
		}
		for _, model := range []string{"ext", "co"} {
			t.Run(name+"/"+model, func(t *testing.T) {
				sub := t.TempDir()
				tmpdir, outPath := filepath.Join(sub, "spill"), filepath.Join(sub, "out.txt")
				stdout, err := os.Create(filepath.Join(sub, "stdout"))
				if err != nil {
					t.Fatal(err)
				}
				old := os.Stdout
				os.Stdout = stdout
				err = kernelRun(kernelFlags{
					name: name, buckets: p.Buckets, topk: p.K, left: p.LeftN,
					model: model, m: 4096, b: 64, omega: 8, procs: 2,
					inPath: inPath, outPath: outPath, mem: "4KB", tmpdir: tmpdir,
				})
				os.Stdout = old
				stdout.Close()
				if err != nil {
					printed, _ := os.ReadFile(stdout.Name())
					t.Fatalf("kernelRun: %v\n%s", err, printed)
				}
				got, err := os.ReadFile(outPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("-out holds %d bytes that differ from the reference's %d", len(got), len(want))
				}
				if model == "ext" {
					left, err := os.ReadDir(tmpdir)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range left {
						t.Errorf("%s left in the spill directory", e.Name())
					}
				}
			})
		}
	}
}
