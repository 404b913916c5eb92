// Package obs is the stack's observability core: a hand-rolled,
// dependency-free metrics registry with Prometheus text exposition, a
// lightweight span tracer exportable as JSONL and Chrome trace-event JSON,
// and small helpers for build info and exposition parsing.
//
// Everything here is stdlib-only and concurrency-safe. The registry and
// tracer are designed to be threaded through hot paths (broker admission,
// merge levels, wire codecs) without allocation on the fast path: series
// handles are resolved once and then updated with atomics.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric family types, mirroring the Prometheus exposition TYPE values.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Families appear in registration order; series within a
// family are sorted by label values so output is deterministic.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram only

	mu     sync.Mutex
	series map[string]*Series
	order  []string // insertion-ordered keys; sorted at exposition time
	fn     func() float64
}

// Vec is a handle to a metric family with labels. Call With to resolve a
// concrete label-set to a Series.
type Vec struct{ f *family }

// Series is one concrete time series (a family plus one label-set). All
// update methods are safe for concurrent use.
type Series struct {
	f         *family
	labelVals []string

	bits    atomic.Uint64 // counter/gauge value, or histogram sum (float64 bits)
	count   atomic.Uint64 // histogram observation count
	bcounts []atomic.Uint64
}

func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic("obs: metric " + name + " re-registered with a different shape")
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*Series),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) Vec {
	return Vec{r.register(name, help, typeCounter, labels, nil)}
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) Vec {
	return Vec{r.register(name, help, typeGauge, labels, nil)}
}

// Histogram registers (or fetches) a fixed-bucket histogram family. Bucket
// bounds must be sorted ascending; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) Vec {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram " + name + " buckets not strictly ascending")
		}
	}
	return Vec{r.register(name, help, typeHistogram, labels, buckets)}
}

// GaugeFunc registers a label-less gauge whose value is computed at
// exposition time by fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// With resolves the series for the given label values, creating it on first
// use. The number of values must match the family's label names.
func (v Vec) With(vals ...string) *Series {
	f := v.f
	if len(vals) != len(f.labels) {
		panic("obs: " + f.name + ": label cardinality mismatch")
	}
	key := strings.Join(vals, "\x00")
	f.mu.Lock()
	s, ok := f.series[key]
	if !ok {
		s = &Series{f: f, labelVals: append([]string(nil), vals...)}
		if f.typ == typeHistogram {
			s.bcounts = make([]atomic.Uint64, len(f.buckets))
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	f.mu.Unlock()
	return s
}

// addFloat CAS-adds delta to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Add increments a counter or gauge by delta. Counters must not go down;
// this is not checked (the caller owns the invariant).
func (s *Series) Add(delta float64) { addFloat(&s.bits, delta) }

// Inc adds 1.
func (s *Series) Inc() { s.Add(1) }

// Set stores an absolute gauge value.
func (s *Series) Set(v float64) { s.bits.Store(math.Float64bits(v)) }

// Value returns the current counter/gauge value (histogram: the sum).
func (s *Series) Value() float64 { return math.Float64frombits(s.bits.Load()) }

// Observe records one histogram observation.
func (s *Series) Observe(v float64) {
	// Buckets are cumulative in exposition; store per-bucket counts here and
	// accumulate when rendering.
	i := sort.SearchFloat64s(s.f.buckets, v) // first bucket with bound >= v
	if i < len(s.bcounts) {
		s.bcounts[i].Add(1)
	}
	s.count.Add(1)
	addFloat(&s.bits, v)
}

// Count returns the number of histogram observations.
func (s *Series) Count() uint64 { return s.count.Load() }

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// labelString renders {k="v",...} for the given names/values, with extra
// appended as a pre-rendered pair (used for histogram le labels).
func labelString(names, vals []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// ServeHTTP answers a scrape with WriteProm's exposition, so a mux
// mounts the registry directly: mux.Handle("GET /metrics", reg).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WriteProm(w)
}

// WriteProm renders the registry in Prometheus text exposition format
// (version 0.0.4). Output is deterministic: families in registration order,
// series sorted by label values.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		fn := f.fn
		series := make([]*Series, 0, len(keys))
		sort.Strings(keys)
		for _, k := range keys {
			series = append(series, f.series[k])
		}
		f.mu.Unlock()

		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		if fn != nil {
			if _, err := fmt.Fprintf(w, "%s %s\n", f.name, formatValue(fn())); err != nil {
				return err
			}
			continue
		}
		for _, s := range series {
			if f.typ == typeHistogram {
				if err := writeHistogram(w, f, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.labelVals, ""), formatValue(s.Value())); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, f *family, s *Series) error {
	var cum uint64
	for i, bound := range f.buckets {
		cum += s.bcounts[i].Load()
		le := `le="` + formatValue(bound) + `"`
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelVals, le), cum); err != nil {
			return err
		}
	}
	total := s.count.Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelVals, `le="+Inf"`), total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelVals, ""), formatValue(s.Value())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelVals, ""), total)
	return err
}

// DurationBuckets is a set of latency bucket bounds in seconds suitable for
// both queue waits and HTTP request durations (1ms .. ~2min).
var DurationBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// SizeBuckets is a set of byte-size bucket bounds (256B .. 256MiB).
var SizeBuckets = []float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}
