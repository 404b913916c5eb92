package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"asymsort/internal/kernel"
	"asymsort/internal/seq"
	"asymsort/internal/wire"
)

// TestKernelRun runs every registry kernel from a file with repeated
// keys on every model that serves it. In the text dialect the -out
// bytes must be the kernel's in-memory reference as text: bare keys
// for sort, "key value" lines otherwise. Those are the bytes
// TestServeKernelEndpointsText requires of a served body, so a solo
// run equals a served run through the reference. Under ext a
// contiguous frame in gives the reference as a contiguous frame out,
// -fanin 2 sets every sort's fan-in, and the spill directory is left
// empty.
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
	textPath := filepath.Join(dir, "in.txt")
	framePath := filepath.Join(dir, "in.asrf")
	if err := os.WriteFile(textPath, text, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(framePath, contiguousFrame(t, in, len(in)), 0o666); err != nil {
		t.Fatal(err)
	}
	// The ext sorts each kernel's composition runs: the plan lines.
	sorts := map[string]int{"sort": 1, "semisort": 1, "histogram": 0, "top-k": 0, "merge-join": 2}
	planLine := regexp.MustCompile(`(?m)^  plan     : k=\d+, fan-in=(\d+),`)

	p := kernel.Params{Buckets: 13, K: 25, LeftN: 1000}
	kargs := []string{"-buckets", "13", "-topk", "25", "-left", "1000"}
	for _, name := range kernel.Names() {
		k, _ := kernel.Get(name)
		ref := k.Ref(in, p)
		var want []byte
		for _, r := range ref {
			want = wire.AppendLine(want, r, name != "sort")
		}
		type variant struct {
			name string
			args []string
			want []byte
		}
		variants := []variant{
			{"ext", []string{"-model", "ext", "-in", textPath}, want},
			{"ext-binary", []string{"-model", "ext", "-wire", "binary", "-in", framePath}, contiguousFrame(t, ref, len(ref))},
			{"ext-fanin2", []string{"-model", "ext", "-fanin", "2", "-in", textPath}, want},
			{"co", []string{"-model", "co", "-in", textPath}, want},
			{"pram", []string{"-model", "pram", "-in", textPath}, want},
			{"native", []string{"-model", "native", "-in", textPath}, want},
		}
		if name == "sort" {
			variants = append(variants,
				variant{"ram", []string{"-model", "ram", "-in", textPath}, want},
				variant{"aem", []string{"-model", "aem", "-in", textPath}, want})
		}
		for _, v := range variants {
			t.Run(name+"/"+v.name, func(t *testing.T) {
				sub := t.TempDir()
				tmpdir, outPath := filepath.Join(sub, "spill"), filepath.Join(sub, "out")
				args := append([]string{"-kernel", name, "-b", "64", "-omega", "8", "-procs", "2",
					"-mem", "4KB", "-tmpdir", tmpdir, "-out", outPath}, kargs...)
				report, _, err := cli(nil, append(args, v.args...)...)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, report)
				}
				got, err := os.ReadFile(outPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, v.want) {
					t.Fatalf("-out holds %d bytes that differ from the reference's %d", len(got), len(v.want))
				}
				if !strings.HasPrefix(v.name, "ext") {
					return
				}
				plans := planLine.FindAllStringSubmatch(report, -1)
				if len(plans) != sorts[name] {
					t.Errorf("%d plan lines, want %d:\n%s", len(plans), sorts[name], report)
				}
				for _, m := range plans {
					if v.name == "ext-fanin2" && m[1] != "2" {
						t.Errorf("-fanin 2 planned fan-in %s:\n%s", m[1], report)
					}
				}
				left, err := os.ReadDir(tmpdir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range left {
					t.Errorf("%s left in the spill directory", e.Name())
				}
			})
		}
	}
}
