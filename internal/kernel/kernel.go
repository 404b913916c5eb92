// Package kernel is the registry of named data-parallel kernels the
// stack serves, benchmarks, and load-tests: the framework ROADMAP item
// 3 asks for, grown GBBS-style out of the one sort the repository
// started with. Each kernel is defined exactly once against the
// internal/rt surface, so the same definition runs on the metered
// simulators (where its write cost is directly comparable to the
// classic sort-based baseline) and on the native backend — and each
// carries an external-memory composition built from the extmem
// engine's reusable phases (run formation, planned k-way merge, the
// streaming post-pass hook, and charged scans), so the same kernel
// also runs on files larger than RAM with a fully accounted block-IO
// ledger.
//
// The registered kernels and their compositions:
//
//   - sort: the AEM-MERGESORT engine itself, unchanged.
//   - semisort (reduce-by-key): ext = sort with a reduce Streamer fused
//     into the root pass, so the final level writes ⌈groups/B⌉ blocks
//     instead of ⌈n/B⌉. Classic baseline: sort + a separate grouped
//     rewrite pass.
//   - histogram: ext = one charged counting scan + ⌈buckets/B⌉ output
//     blocks — no sort at all. Classic baseline: sort, then count.
//   - top-k: ext = one charged scan through a k-record selection
//     pass (sorted candidates, the engine's run-formation routine) +
//     ⌈k/B⌉ output blocks. Classic baseline: full sort, take the prefix.
//   - merge-join: ext = sort both relations (each write-efficient),
//     then a charged co-stream that materializes only the matches.
//
// Every composition's measured block writes equal its predicted
// PlanWrites — the per-kernel extension of the repository's
// engine-vs-simulator write-ledger identity — and every kernel ships
// an in-memory reference (Ref) the differential tests and the load
// generator verify against, record for record.
package kernel

import (
	"fmt"
	"sort"

	"asymsort/internal/cost"
	"asymsort/internal/extmem"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
)

// Params carries the kernel-specific parameters; unused fields are
// ignored by kernels that don't consume them.
type Params struct {
	// Buckets is the histogram's bucket count; records land in bucket
	// BucketOf(Key, Buckets).
	Buckets int
	// K is top-k's result size.
	K int
	// LeftN marks the first LeftN input records as merge-join's left
	// relation; the rest are the right relation.
	LeftN int
}

// ExtResult summarizes one external kernel run.
type ExtResult struct {
	// Sorts are the reports of the composition's ext-sort phases in
	// execution order (empty for the scan-only kernels).
	Sorts []*extmem.Report
	// Total is the composition's whole measured block-IO ledger,
	// including staging copies, scans, and output writes.
	Total cost.Snapshot
	// PlanWrites is the composition's predicted block-write count;
	// Total.Writes == PlanWrites is the per-kernel ledger identity.
	PlanWrites uint64
	// OutN is the output file's record count.
	OutN int
}

// Kernel is one registered kernel: a single rt-surface definition plus
// its in-memory reference and external-memory composition.
type Kernel struct {
	// Name is the registry key, the /v1/{kernel} path segment, and the
	// -kernel flag value.
	Name string
	// Doc is the one-line description the docs and CLI help print.
	Doc string
	// Baseline names the classic composition the metered cost columns
	// compare against.
	Baseline string
	// Validate checks p against the input size n before any engine runs.
	Validate func(n int, p Params) error
	// Run executes the kernel on the rt surface — any backend.
	Run func(c rt.Ctx, in rt.Arr[seq.Record], p Params) rt.Arr[seq.Record]
	// Ref is the plain in-memory reference output the differential
	// tests and the load generator verify against.
	Ref func(in []seq.Record, p Params) []seq.Record
	// Ext executes the kernel's external-memory composition: input and
	// output are record files, cfg carries the budget exactly as for
	// extmem.Sort (Post is owned by the composition and must be nil).
	Ext func(cfg extmem.Config, inPath, outPath string, p Params) (*ExtResult, error)
}

// BucketOf is the histogram's bucket function: key mod buckets.
func BucketOf(key uint64, buckets int) int { return int(key % uint64(buckets)) }

var registry = map[string]*Kernel{}
var names []string

func register(k *Kernel) {
	if _, dup := registry[k.Name]; dup {
		panic("kernel: duplicate registration of " + k.Name)
	}
	registry[k.Name] = k
	names = append(names, k.Name)
	sort.Strings(names)
}

// Get returns the kernel registered under name.
func Get(name string) (*Kernel, bool) {
	k, ok := registry[name]
	return k, ok
}

// Names returns the registered kernel names, sorted.
func Names() []string {
	out := make([]string, len(names))
	copy(out, names)
	return out
}

// Check validates p for an n-record input with a uniform error shape —
// the entry every engine (serve, CLI, bench) calls before running.
func (k *Kernel) Check(n int, p Params) error {
	if k.Validate == nil {
		return nil
	}
	if err := k.Validate(n, p); err != nil {
		return fmt.Errorf("kernel %s: %w", k.Name, err)
	}
	return nil
}
