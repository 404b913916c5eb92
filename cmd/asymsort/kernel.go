package main

// The -kernel path: run any internal/kernel registry kernel — not just
// sort — on the backend -model picks. The same kernel definition runs
// everywhere: on the metered simulators (-model co charges the
// asymmetric cache, -model pram the work-depth meters), on the rt
// native backend at hardware speed, and on the external-memory
// composition (-model ext) with its measured block ledger checked
// against the composition's own write plan. Every run is verified
// against the kernel's in-memory reference, so this doubles as the
// CLI's differential harness.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"asymsort/internal/co"
	"asymsort/internal/extmem"
	"asymsort/internal/icache"
	"asymsort/internal/kernel"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
	"asymsort/internal/wd"
)

// kernelFlags carries the -kernel run's knobs out of main.
type kernelFlags struct {
	name    string
	buckets int
	topk    int
	left    int
	model   string
	n       int
	m       int
	b       int
	omega   uint64
	seed    uint64
	procs   int
	inPath  string
	outPath string
	mem     string
	k       int
	tmpdir  string
}

// runKernel executes one kernel job end to end and exits on failure.
func runKernel(f kernelFlags) {
	if err := kernelRun(f); err != nil {
		fmt.Fprintf(os.Stderr, "asymsort: %v\n", err)
		os.Exit(1)
	}
}

func kernelRun(f kernelFlags) error {
	k, ok := kernel.Get(f.name)
	if !ok {
		return fmt.Errorf("unknown -kernel %q (kernels: %s)", f.name, strings.Join(kernel.Names(), ", "))
	}
	p := kernel.Params{Buckets: f.buckets, K: f.topk, LeftN: f.left}

	var in []seq.Record
	var src string
	if f.inPath != "" {
		var err error
		if in, err = readKeys(f.inPath); err != nil {
			return err
		}
		src = f.inPath
		if src == "-" {
			src = "stdin"
		}
	} else {
		in = seq.Uniform(f.n, f.seed)
		src = "generated uniform workload"
	}
	if err := k.Check(len(in), p); err != nil {
		return err
	}
	want := k.Ref(in, p)
	fmt.Printf("kernel %s: n=%d records from %s, model=%s\n", k.Name, len(in), src, f.model)

	var out []seq.Record
	switch f.model {
	case "co":
		cache := icache.New(f.b, f.m/f.b, f.omega, icache.PolicyRWLRU)
		c := rt.NewSimCO(co.NewCtx(cache))
		base := cache.Stats()
		out = k.Run(c, rt.FromSlice[seq.Record](c, in), p).Unwrap()
		cache.Flush()
		stats := cache.Stats().Sub(base)
		fmt.Printf("  reads  = %d\n", stats.Reads)
		fmt.Printf("  writes = %d\n", stats.Writes)
		fmt.Printf("  cost   = reads + ω·writes = %d\n", stats.Cost(f.omega))
		fmt.Printf("  note   : cache misses/write-backs under read-write LRU at M=%d B=%d (§5.1)\n", f.m, f.b)
	case "pram":
		t := wd.NewRoot(f.omega)
		c := rt.NewSimWD(t)
		out = k.Run(c, rt.FromSlice[seq.Record](c, in), p).Unwrap()
		stats := t.Work()
		fmt.Printf("  work   = %d reads + %d writes (cost %d)\n", stats.Reads, stats.Writes, stats.Cost(f.omega))
		fmt.Printf("  depth  = %d\n", t.Depth())
		fmt.Printf("  note   : asymmetric work-depth meters (§3)\n")
	case "native":
		pool := rt.NewPool(f.procs)
		c := rt.NewNative(pool, f.omega)
		start := time.Now()
		out = k.Run(c, rt.WrapSlice[seq.Record](c, in), p).Unwrap()
		elapsed := time.Since(start)
		rate := float64(len(in)) / elapsed.Seconds() / 1e6
		fmt.Printf("  procs   = %d\n", pool.Procs())
		fmt.Printf("  elapsed = %v (%.2f Mrec/s in)\n", elapsed, rate)
	case "ext":
		var err error
		if out, err = kernelExt(k, p, in, f); err != nil {
			return err
		}
	default:
		return fmt.Errorf("-kernel needs -model co | pram | native | ext (got %q)", f.model)
	}

	if len(out) != len(want) {
		return fmt.Errorf("INTERNAL ERROR: kernel produced %d records, reference has %d", len(out), len(want))
	}
	for i := range out {
		if out[i] != want[i] {
			return fmt.Errorf("INTERNAL ERROR: kernel diverges from the in-memory reference at record %d", i)
		}
	}
	fmt.Printf("  output verified: %d records match the in-memory reference\n", len(out))
	if f.outPath != "" {
		if err := writeRecords(f.outPath, out, k.Name != "sort"); err != nil {
			return err
		}
		fmt.Printf("  wrote %d records to %s\n", len(out), f.outPath)
	}
	return nil
}

// kernelExt stages the input and runs the kernel's external-memory
// composition, reporting the measured ledger against the composition's
// own write plan.
func kernelExt(k *kernel.Kernel, p kernel.Params, in []seq.Record, f kernelFlags) ([]seq.Record, error) {
	memBytes, err := parseSize(f.mem)
	if err != nil {
		return nil, fmt.Errorf("bad -mem: %v", err)
	}
	tmpdir := f.tmpdir
	if tmpdir == "" {
		if tmpdir, err = os.MkdirTemp("", "asymsort-kernel-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmpdir)
	} else if err := os.MkdirAll(tmpdir, 0o755); err != nil {
		return nil, err
	}
	staged := filepath.Join(tmpdir, fmt.Sprintf("asymsort-kernel-%d-in", os.Getpid()))
	outBin := filepath.Join(tmpdir, fmt.Sprintf("asymsort-kernel-%d-out", os.Getpid()))
	defer os.Remove(staged)
	defer os.Remove(outBin)
	if err := extmem.WriteRecordsFile(staged, in); err != nil {
		return nil, err
	}

	start := time.Now()
	res, err := k.Ext(extmem.Config{
		Mem: int(memBytes / extmem.RecordBytes), Block: f.b, K: f.k,
		Omega: float64(f.omega), TmpDir: tmpdir, Procs: f.procs,
	}, staged, outBin, p)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	fmt.Printf("  budget  : M=%d records (%s), B=%d records, ω=%d\n",
		int(memBytes/extmem.RecordBytes), fmtBytes(memBytes), f.b, f.omega)
	for _, rep := range res.Sorts {
		fmt.Printf("  sort    : n=%d, k=%d, fan-in=%d, %d runs, %d merge levels\n",
			rep.N, rep.K, rep.FanIn, rep.Runs, rep.Levels)
	}
	fmt.Printf("  total   : %d reads, %d writes, device cost R+ωW = %d\n",
		res.Total.Reads, res.Total.Writes, res.Total.Cost(f.omega))
	if res.Total.Writes != res.PlanWrites {
		return nil, fmt.Errorf("INTERNAL ERROR: measured %d block writes, composition plan says %d",
			res.Total.Writes, res.PlanWrites)
	}
	fmt.Printf("  plan    : %d block writes — matches the measured ledger exactly\n", res.PlanWrites)
	fmt.Printf("  elapsed : %v\n", elapsed.Round(time.Millisecond))

	return extmem.ReadRecordsFile(outBin)
}
