package main

// The ext-* workloads: extmem.Sort of one seeded record file, over and
// over, with every plan pinned (explicit K, ω prior 8, a fresh tmpdir)
// so nothing a previous run persisted can move k or the write ledger.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"asymsort/internal/extmem"
	"asymsort/internal/obs"
)

// extSpec is one engine configuration.
type extSpec struct {
	k, procs int
}

type extEnv struct {
	spec extSpec
	sc   *scale
	dir  string
	in   string
	sum  checksum
}

// paperCols are the paper's columns for one sort: the device time the
// cost model predicts from the ω meter's measured block walls, beside
// the measured wall, and the ledger per level.
type paperCols struct {
	WallS      float64     `json:"wall_s"`
	FormS      float64     `json:"form_s"`
	MergeS     float64     `json:"merge_s"`
	Levels     int         `json:"levels"`
	Reads      uint64      `json:"reads"`
	Writes     uint64      `json:"writes"`
	TReadNS    float64     `json:"t_read_ns_per_block"`
	TWriteNS   float64     `json:"t_write_ns_per_block"`
	Omega      float64     `json:"omega_measured"`
	PredictedS float64     `json:"predicted_device_s"`
	ModelGap   float64     `json:"model_gap"`
	LevelIO    [][2]uint64 `json:"level_io"` // [reads, writes] per level, formation first
	PlanWrites uint64      `json:"plan_writes"`
}

func extSetup(spec extSpec) func(o *options, sc *scale, dir, _ string) (env, error) {
	return func(o *options, sc *scale, dir, _ string) (env, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		e := &extEnv{spec: spec, sc: sc, dir: dir, in: filepath.Join(dir, "in.bin")}
		var err error
		if e.sum, err = writeRecordFile(e.in, sc.extN, uniform, subSeed(o.seed, "ext", 0)); err != nil {
			return nil, err
		}
		if warm := e.sort(nil); warm.err != nil {
			return nil, fmt.Errorf("warm-up sort: %w", warm.err)
		}
		return e, nil
	}
}

// sort runs, times and verifies one engine sort.
func (e *extEnv) sort(parent *obs.Span) op {
	o := op{class: "sort", wire: "file", kernel: "sort", recs: e.sc.extN, bytes: int64(e.sc.extN) * extmem.RecordBytes}
	// Per sort, not just per window: one sort's garbage and dirty pages
	// must not land inside the next one's wall.
	settle()
	meter := extmem.NewOmegaMeter("")
	sp := parent.Child("sort")
	cfg := extmem.Config{
		Mem: e.sc.extMem, Block: e.sc.extBlock, K: e.spec.k, Omega: omegaPin,
		TmpDir: e.dir, Procs: e.spec.procs, Meter: meter, Span: sp,
	}
	out := filepath.Join(e.dir, "out.bin")
	start := time.Now()
	rep, err := extmem.Sort(cfg, e.in, out)
	o.wall = time.Since(start)
	sp.End()
	defer os.Remove(out)
	if err != nil {
		o.err = err
		return o
	}
	o.writes = rep.Total.Writes
	o.paper = newPaperCols(rep, meter, o.wall)
	if rep.Total.Writes != rep.PlanWrites {
		o.err = fmt.Errorf("measured writes %d != planned writes %d", rep.Total.Writes, rep.PlanWrites)
		return o
	}
	o.err = verifyRecordFile(out, e.sc.extN, e.sum)
	return o
}

func newPaperCols(rep *extmem.Report, meter *extmem.OmegaMeter, wall time.Duration) *paperCols {
	ms := meter.Snapshot()
	p := &paperCols{
		WallS: wall.Seconds(), FormS: rep.FormTime.Seconds(), MergeS: rep.MergeTime.Seconds(),
		Levels: rep.Levels, Reads: rep.Total.Reads, Writes: rep.Total.Writes,
		TReadNS: ms.ReadNSPerBlock, TWriteNS: ms.WriteNSPerBlock, Omega: ms.Measured,
		PlanWrites: rep.PlanWrites,
	}
	p.PredictedS = (float64(p.Reads)*p.TReadNS + float64(p.Writes)*p.TWriteNS) / 1e9
	if p.PredictedS > 0 {
		p.ModelGap = p.WallS / p.PredictedS
	}
	for _, l := range rep.LevelIO {
		p.LevelIO = append(p.LevelIO, [2]uint64{l.Reads, l.Writes})
	}
	return p
}

func (e *extEnv) run(d time.Duration, span *obs.Span) (*window, error) {
	w := &window{perOp: true}
	start := time.Now()
	for time.Since(start) < d {
		o := e.sort(span)
		if o.paper != nil {
			w.reads += o.paper.Reads
			w.writes += o.paper.Writes
		}
		w.ops = append(w.ops, o)
	}
	w.makespan = time.Since(start)
	return w, nil
}

func (e *extEnv) layers(w *window) (map[string]float64, map[string]float64, error) {
	var s extSamples
	recs := 0
	var reads uint64
	for _, o := range w.ops {
		p := o.paper
		if p == nil {
			continue
		}
		recs += o.recs
		reads += p.Reads
		s.form = append(s.form, p.FormS)
		s.merge = append(s.merge, p.MergeS)
		s.levels = append(s.levels, float64(p.Levels))
		s.tRead = append(s.tRead, p.TReadNS)
		s.tWrite = append(s.tWrite, p.TWriteNS)
		s.omega = append(s.omega, p.Omega)
		s.pred = append(s.pred, p.PredictedS)
		s.gap = append(s.gap, p.ModelGap)
	}
	return s.metrics(reads, recs), nil, nil
}

// extSamples are per-sort (or per-job) engine observations, one entry
// per external sort; the per-layer extmem.* metrics are their medians.
type extSamples struct {
	form, merge, levels, tRead, tWrite, omega, pred, gap []float64
}

func (s *extSamples) metrics(reads uint64, recs int) map[string]float64 {
	return map[string]float64{
		"extmem.form_s":               median(s.form),
		"extmem.merge_s":              median(s.merge),
		"extmem.merge_levels":         median(s.levels),
		"extmem.block_reads_per_mrec": perMrec(float64(reads), recs),
		"extmem.t_read_ns_per_block":  median(s.tRead),
		"extmem.t_write_ns_per_block": median(s.tWrite),
		"extmem.omega_measured":       median(s.omega),
		"extmem.predicted_device_s":   median(s.pred),
		"extmem.model_gap":            median(s.gap),
	}
}

func (e *extEnv) close() error {
	err := checkLeftovers(e.dir)
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// paperTable prints the per-sort paper columns of a direct-engine
// window and returns them for the results file.
func paperTable(w io.Writer, win *window) []*paperCols {
	var rows []*paperCols
	fmt.Fprintln(w, "-- paper columns per sort: predicted device time R·t_read + W·t_write vs measured wall --")
	fmt.Fprintf(w, "  %8s %8s %8s %6s %10s %10s %9s %9s %7s %9s %6s\n",
		"wall_s", "form_s", "merge_s", "levels", "reads", "writes", "t_read", "t_write", "omega", "pred_s", "gap")
	for _, o := range win.ops {
		p := o.paper
		if p == nil {
			continue
		}
		rows = append(rows, p)
		if len(rows) > maxPaperRows {
			continue
		}
		fmt.Fprintf(w, "  %8.3f %8.3f %8.3f %6d %10d %10d %9.1f %9.1f %7.2f %9.3f %6.2f\n",
			p.WallS, p.FormS, p.MergeS, p.Levels, p.Reads, p.Writes, p.TReadNS, p.TWriteNS, p.Omega, p.PredictedS, p.ModelGap)
	}
	if len(rows) > maxPaperRows {
		fmt.Fprintf(w, "  ... %d more sorts in the results file\n", len(rows)-maxPaperRows)
	}
	return rows
}

// maxPaperRows caps the printed paper table; the results file keeps
// every row.
const maxPaperRows = 24
