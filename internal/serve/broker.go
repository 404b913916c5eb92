// Package serve turns the repository's one-shot sort engines into a
// long-running service: a budget Broker that makes many concurrent
// sort jobs share one machine-wide resource envelope (the model's M
// and P, owned once per process instead of assumed whole by every
// job), and an HTTP job engine (server.go) that admits jobs, picks an
// execution model per job from its size versus its leased budget, and
// streams records in and out.
//
// The Broker is the paper's fixed (M, B, ω) envelope made operational:
// the global memory budget M (in records) and the rt.Pool worker
// tokens live here, and every job runs under a Lease — a (Mᵢ, Pᵢ)
// slice of the whole. Admission applies backpressure: a job waits
// until the broker can grant it at least its share, so a burst of
// arrivals queues instead of oversubscribing memory. The default
// adaptive policy admits queued jobs by (aged priority, deadline,
// arrival) and sizes shares by each job's ask; BrokerConfig.FIFO
// selects pure arrival order with uniform fair shares. While jobs run
// the broker rebalances: when arrivals queue behind running jobs it
// shrinks oversized grants toward the fair share, and when capacity
// frees with nothing queued it grows running grants back toward what
// each job asked for. Grants move at the engines' merge-level
// boundaries — extmem.Config.Lease is the hook — so a resize needs no
// locking inside a level: shrunk memory only returns to the free pool
// when the engine acknowledges the new grant, which keeps the envelope
// conservative (the sum of charged grants never exceeds M, even
// mid-handoff).
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"asymsort/internal/obs"
	"asymsort/internal/rt"
	"asymsort/internal/wire"
)

// BrokerConfig parameterizes the machine-wide envelope.
type BrokerConfig struct {
	// Mem is the global memory budget in records — the machine's M,
	// shared by every concurrent job.
	Mem int
	// Procs is the global worker count (0 = GOMAXPROCS): the width of
	// the shared rt.Pool whose tokens leased jobs draw from.
	Procs int
	// MinLease is the smallest admissible memory grant in records
	// (default Mem/64, min 1): admission control never hands out slices
	// an ext engine cannot run on, and the fair share never fragments
	// below it.
	MinLease int
	// Metrics, when non-nil, is the registry the broker publishes its
	// envelope gauges to: queue depth, live leases, live and cumulative
	// grant bytes, and pool token occupancy. Nil wires a private
	// throwaway registry, so the broker code is guard-free.
	Metrics *obs.Registry
	// FIFO selects the legacy scheduling policy: pure arrival-order
	// admission, uniform fair shares, and shrink-everything-to-fair
	// when arrivals queue. It ignores AcquireOpts priorities and
	// deadlines entirely. Kept as the benchmark baseline the adaptive
	// policy (the default) is measured against.
	FIFO bool
	// ageQuantum is the adaptive policy's anti-starvation clock: a
	// queued job's effective priority rises by one for every quantum it
	// has waited, so a low-priority job can be bypassed by higher
	// classes for at most (prioMax - its priority) quanta before it
	// reaches the top class and blocks further bypass. It is fixed at
	// 1s, not an option; in-package tests shorten or lengthen it.
	ageQuantum time.Duration
}

// prioMax bounds AcquireOpts.Priority (and the aging boost) to
// [-prioMax, prioMax], so one client cannot mint an unreachable class.
const prioMax = 8

// AcquireOpts classifies one admission for the adaptive scheduler.
// The zero value is the default class: priority 0, no deadline.
type AcquireOpts struct {
	// Priority orders queued jobs: higher admits first. Clamped to
	// [-prioMax, prioMax]. Under FIFO policy it is ignored.
	Priority int
	// Deadline is the job's latency target. Within one effective
	// priority, deadline-carrying jobs admit before deadline-free ones,
	// earliest first. Zero means none.
	Deadline time.Time
}

// Broker owns the envelope and leases slices of it.
type Broker struct {
	mu       sync.Mutex
	total    int
	free     int
	minLease int
	procs    int
	pool     *rt.Pool
	fifo     bool
	ageQ     time.Duration
	queue    []*waiter // arrival order; adaptive admission picks by class
	running  []*Lease  // admission order — rebalance iterates deterministically
	nextID   int
	nextSeq  int // arrival ordinal for waiters
	// testOnAck, when non-nil, runs (outside the lock) after every Mem
	// acknowledgement with the lease and its ack ordinal — the
	// deterministic seam the fault-injection tests use to revoke a
	// lease at an exact engine phase boundary (ack 1 is the job's
	// pre-sort grant read; ack ℓ+1 is merge level ℓ's boundary).
	testOnAck func(l *Lease, ack int)

	// Envelope gauges, published under mu at every scheduling event.
	mQueueDepth *obs.Series
	mLeases     *obs.Series
	mGrantBytes *obs.Series
	mGrantTotal *obs.Series
}

// waiter is one queued Acquire.
type waiter struct {
	want     int
	prio     int         // clamped AcquireOpts.Priority
	deadline time.Time   // zero = none
	enq      time.Time   // arrival, the aging reference
	seq      int         // arrival ordinal, the final tiebreak
	ready    chan *Lease // buffered; receives the grant on admission
	gone     bool        // context canceled; skip on admission
}

// NewBroker validates the config and builds the envelope.
func NewBroker(cfg BrokerConfig) (*Broker, error) {
	if cfg.Mem < 1 {
		return nil, fmt.Errorf("serve: broker needs a positive memory budget, got %d records", cfg.Mem)
	}
	procs := cfg.Procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	minLease := cfg.MinLease
	if minLease <= 0 {
		minLease = cfg.Mem / 64
	}
	if minLease < 1 {
		minLease = 1
	}
	if minLease > cfg.Mem {
		minLease = cfg.Mem
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ageQ := cfg.ageQuantum
	if ageQ <= 0 {
		ageQ = time.Second
	}
	b := &Broker{
		total:    cfg.Mem,
		free:     cfg.Mem,
		minLease: minLease,
		procs:    procs,
		fifo:     cfg.FIFO,
		ageQ:     ageQ,
		pool:     rt.NewPool(procs),
	}
	b.mQueueDepth = reg.Gauge("asymsortd_queue_depth",
		"Jobs waiting in the broker's admission queue.").With()
	b.mLeases = reg.Gauge("asymsortd_leases",
		"Memory leases currently held by running jobs.").With()
	b.mGrantBytes = reg.Gauge("asymsortd_grant_bytes",
		"Bytes of the memory envelope currently charged to leases.").With()
	b.mGrantTotal = reg.Counter("asymsortd_grant_bytes_total",
		"Cumulative bytes granted to leases (admissions plus grows).").With()
	pool := b.pool
	reg.GaugeFunc("asymsortd_pool_tokens_in_use",
		"Spawn tokens of the shared worker pool currently held.",
		func() float64 { return float64(pool.InUse()) })
	reg.GaugeFunc("asymsortd_pool_tokens_cap",
		"Spawn-token capacity of the shared worker pool (procs-1).",
		func() float64 { return float64(pool.SpawnCap()) })
	return b, nil
}

// publish refreshes the envelope gauges. Called with mu held.
func (b *Broker) publish() {
	b.mQueueDepth.Set(float64(len(b.queue)))
	b.mLeases.Set(float64(len(b.running)))
	charged := 0
	for _, l := range b.running {
		charged += l.charged
	}
	b.mGrantBytes.Set(float64(charged) * wire.RecordBytes)
}

// Close is a no-op: the broker holds no goroutines or files of its
// own. It stays only because bench/asymperf still calls it; drop it
// with that call.
func (b *Broker) Close() {}

// Acquire blocks until the broker grants a lease of at least
// min(want, share, MinLease-floored) records, in the default
// admission class; ctx cancels the wait. want is clamped to
// [1, total].
func (b *Broker) Acquire(ctx context.Context, want int) (*Lease, error) {
	return b.AcquireWith(ctx, want, AcquireOpts{})
}

// AcquireWith is Acquire with an explicit admission class: under the
// adaptive policy queued jobs admit by (aged priority, deadline,
// arrival) instead of pure arrival order, so a latency-class job can
// overtake queued bulk work without starving it (aging bounds every
// bypass window).
func (b *Broker) AcquireWith(ctx context.Context, want int, opts AcquireOpts) (*Lease, error) {
	if want < 1 {
		want = 1
	}
	if want > b.total {
		want = b.total
	}
	prio := opts.Priority
	if prio > prioMax {
		prio = prioMax
	}
	if prio < -prioMax {
		prio = -prioMax
	}
	b.mu.Lock()
	w := &waiter{
		want: want, prio: prio, deadline: opts.Deadline,
		enq: time.Now(), seq: b.nextSeq,
		ready: make(chan *Lease, 1),
	}
	b.nextSeq++
	b.queue = append(b.queue, w)
	b.rebalance()
	b.mu.Unlock()

	select {
	case l := <-w.ready:
		return l, nil
	case <-ctx.Done():
		b.mu.Lock()
		select {
		case l := <-w.ready:
			// Admission raced the cancellation: the grant exists, so give
			// it back rather than leak it.
			b.mu.Unlock()
			l.Release()
			return nil, ctx.Err()
		default:
		}
		w.gone = true
		b.dropGone()
		b.rebalance()
		b.mu.Unlock()
		return nil, ctx.Err()
	}
}

// dropGone removes canceled waiters from the head of the queue so they
// cannot block admission of live ones. Interior canceled waiters are
// skipped at admission time.
func (b *Broker) dropGone() {
	for len(b.queue) > 0 && b.queue[0].gone {
		b.queue = b.queue[1:]
	}
}

// fairShare is the FIFO policy's uniform per-job target: the envelope
// split evenly over every active job (running and queued), floored at
// MinLease.
func (b *Broker) fairShare() int {
	active := len(b.running) + len(b.queue)
	if active < 1 {
		active = 1
	}
	fair := b.total / active
	if fair < b.minLease {
		fair = b.minLease
	}
	return fair
}

// propShare is the adaptive policy's job-size-aware share: the
// envelope split proportionally to the active jobs' asks, floored at
// MinLease and capped at the job's own ask — a 1MB job is entitled to
// its 1MB, never to a uniform 1/N slice of the whole envelope, and
// the headroom it declines belongs to the jobs that asked for it.
// Shares are computed in float64: products of envelope × ask overflow
// int64 long before they lose float precision that matters here.
func (b *Broker) propShare(want int) int {
	sum := 0.0
	for _, l := range b.running {
		sum += float64(l.want)
	}
	for _, w := range b.queue {
		if !w.gone {
			sum += float64(w.want)
		}
	}
	share := b.total
	if sum > 0 {
		share = int(float64(b.total) * float64(want) / sum)
	}
	if share < b.minLease {
		share = b.minLease
	}
	if share > want {
		share = want
	}
	if share > b.total {
		share = b.total
	}
	return share
}

// shareFor dispatches to the active policy's share rule.
func (b *Broker) shareFor(want int) int {
	if b.fifo {
		return b.fairShare()
	}
	return b.propShare(want)
}

// effPrio is a waiter's aged priority: its class plus one for every
// ageQuantum waited, capped at prioMax — so higher classes bypass it
// only for a bounded window.
func (b *Broker) effPrio(w *waiter, now time.Time) int {
	p := w.prio
	if b.ageQ > 0 {
		p += int(now.Sub(w.enq) / b.ageQ)
	}
	if p > prioMax {
		p = prioMax
	}
	return p
}

// admitBefore reports whether waiter a should admit before waiter b
// under the adaptive policy: higher aged priority first; within a
// class, deadline-carrying jobs before deadline-free ones, earliest
// deadline first; arrival order last.
func (b *Broker) admitBefore(a, c *waiter, now time.Time) bool {
	pa, pc := b.effPrio(a, now), b.effPrio(c, now)
	if pa != pc {
		return pa > pc
	}
	da, dc := !a.deadline.IsZero(), !c.deadline.IsZero()
	if da != dc {
		return da
	}
	if da && !a.deadline.Equal(c.deadline) {
		return a.deadline.Before(c.deadline)
	}
	return a.seq < c.seq
}

// pickNext returns the index of the queued waiter the policy admits
// next, or -1 when only gone waiters remain. FIFO takes the head;
// adaptive takes the best (aged priority, deadline, arrival) class.
// Called with mu held.
func (b *Broker) pickNext(now time.Time) int {
	best := -1
	for i, w := range b.queue {
		if w.gone {
			continue
		}
		if b.fifo {
			return i
		}
		if best < 0 || b.admitBefore(w, b.queue[best], now) {
			best = i
		}
	}
	return best
}

// rebalance is the broker's one scheduling step, called with mu held
// after every event (arrival, release, ack, cancel): admit in policy
// order, shrink running grants when arrivals still wait, and grow
// running grants back when capacity is free with an empty queue.
func (b *Broker) rebalance() {
	b.dropGone()
	// Admit: the picked waiter gets min(want, share) — and when it is
	// the only active job its share is the whole envelope, so a lone
	// job still gets everything it asked for. Admission stops at the
	// first picked waiter that does not fit: later classes never bypass
	// a blocked higher class, which keeps big high-priority jobs from
	// starving behind a stream of small ones.
	now := time.Now()
	for len(b.queue) > 0 {
		i := b.pickNext(now)
		if i < 0 {
			break
		}
		w := b.queue[i]
		grant := min(w.want, b.shareFor(w.want))
		if grant > b.free {
			break // backpressure: wait for releases or shrink acks
		}
		b.queue = append(b.queue[:i], b.queue[i+1:]...)
		b.free -= grant
		b.mGrantTotal.Add(float64(grant) * wire.RecordBytes)
		l := &Lease{
			b: b, id: b.nextID, want: w.want, prio: w.prio,
			target: grant, held: grant, charged: grant,
			procs:  b.leaseProcs(),
			cancel: make(chan struct{}),
		}
		b.nextID++
		l.pool = b.pool.Split(l.procs)
		b.running = append(b.running, l)
		w.ready <- l
	}
	b.dropGone()
	if len(b.queue) > 0 {
		b.shrinkForQueue()
		b.publish()
		return
	}
	// Queue empty: hand capacity back to running jobs that wanted more,
	// in admission order. Growth back into a lease's still-charged
	// headroom (a shrink the engine never acknowledged) is free — the
	// records were never returned — and only growth beyond charged
	// debits the free pool. charged thus never falls below
	// max(target, held), and any surplus above it (a pending shrink, or
	// a grow a later shrink superseded) returns to free at the
	// engine's next ack (Lease.Mem).
	for _, l := range b.running {
		grow := l.want - l.target
		if grow <= 0 {
			continue
		}
		paid := min(grow, l.charged-l.target)
		extra := min(grow-paid, b.free)
		l.target += paid + extra
		l.charged += extra
		b.free -= extra
		if extra > 0 {
			b.mGrantTotal.Add(float64(extra) * wire.RecordBytes)
		}
	}
	b.publish()
}

// shrinkForQueue reclaims memory for a blocked queue. FIFO keeps the
// legacy rule: every running grant shrinks to the uniform fair share.
// The adaptive policy is need-bounded and progress-driven: it computes
// how much the blocked waiters' shares exceed the free pool and cuts
// exactly that much from running targets — least-progressed jobs
// first (they have the most level boundaries left to re-grow at, and
// slowing them costs the near-term completion order least), jobs
// whose merge progress is unknown next, and jobs already inside their
// final merge level last (they have no boundary left at which to
// acknowledge a shrink, so cutting them frees nothing before their
// release anyway). No target is cut below the job's own
// size-proportional share. Called with mu held.
func (b *Broker) shrinkForQueue() {
	if b.fifo {
		fair := b.fairShare() // already floored at minLease
		for _, l := range b.running {
			if l.target > fair {
				l.target = fair
			}
		}
		return
	}
	need := -b.free
	for _, w := range b.queue {
		if w.gone {
			continue
		}
		need += min(w.want, b.propShare(w.want))
	}
	if need <= 0 {
		return
	}
	order := make([]*Lease, len(b.running))
	copy(order, b.running)
	sort.SliceStable(order, func(i, j int) bool {
		ci, ri := order[i].shrinkClass()
		cj, rj := order[j].shrinkClass()
		if ci != cj {
			return ci < cj
		}
		return ri > rj // most remaining boundaries first
	})
	for _, l := range order {
		if need <= 0 {
			break
		}
		floor := b.propShare(l.want)
		cut := l.target - floor
		if cut > need {
			cut = need
		}
		if cut > 0 {
			l.target -= cut
			need -= cut
		}
	}
}

// leaseProcs is the worker width a newly admitted job gets: an even
// split of the machine's processors over the active jobs, min 1.
func (b *Broker) leaseProcs() int {
	active := len(b.running) + len(b.queue) + 1
	p := b.procs / active
	if p < 1 {
		p = 1
	}
	return p
}

// release returns a lease's entire charge to the pool.
func (b *Broker) release(l *Lease) {
	b.mu.Lock()
	if l.released {
		b.mu.Unlock()
		return
	}
	l.released = true
	for i, r := range b.running {
		if r == l {
			b.running = append(b.running[:i], b.running[i+1:]...)
			break
		}
	}
	reclaimed := l.charged
	b.free += l.charged
	l.charged = 0
	b.rebalance()
	ev := l.onEvent
	b.mu.Unlock()
	if ev != nil {
		ev("lease-reclaim", reclaimed)
	}
}

// BrokerStats is a point-in-time snapshot for /stats.
type BrokerStats struct {
	TotalMem int          `json:"total_mem"` // records
	FreeMem  int          `json:"free_mem"`  // records not charged to any lease
	Procs    int          `json:"procs"`
	MinLease int          `json:"min_lease"`
	Running  []LeaseStats `json:"running"`
	Queued   int          `json:"queued"`
}

// LeaseStats is one running lease's grant state.
type LeaseStats struct {
	ID       int `json:"id"`
	Want     int `json:"want"`
	Target   int `json:"target"`  // broker's desired grant
	Held     int `json:"held"`    // engine-acknowledged grant
	Charged  int `json:"charged"` // records debited from the free pool
	Procs    int `json:"procs"`
	Priority int `json:"priority,omitempty"`
	// Level/Levels mirror the engine's last merge-progress report; both
	// zero (with Levels absent) until the engine reports.
	Level  int  `json:"level,omitempty"`
	Levels int  `json:"levels,omitempty"`
	Dead   bool `json:"canceled,omitempty"`
}

// Stats snapshots the broker.
func (b *Broker) Stats() BrokerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BrokerStats{
		TotalMem: b.total, FreeMem: b.free, Procs: b.procs,
		MinLease: b.minLease, Queued: len(b.queue),
	}
	for _, l := range b.running {
		s.Running = append(s.Running, LeaseStats{
			ID: l.id, Want: l.want, Target: l.target, Held: l.held,
			Charged: l.charged, Procs: l.procs, Priority: l.prio,
			Level: l.progLevel, Levels: l.progLevels, Dead: l.dead,
		})
	}
	return s
}

// Lease is one job's (Mᵢ, Pᵢ) slice of the envelope. It implements
// extmem.Lease: the engine reads Mem at every merge-level boundary,
// which doubles as the acknowledgement protocol for shrink/grow.
type Lease struct {
	b     *Broker
	id    int
	want  int
	prio  int
	procs int
	pool  *rt.Pool

	// Guarded by b.mu: target is the broker's desired grant, held the
	// engine-acknowledged one, charged the amount debited from free
	// (= max of the two while a handoff is pending), acks the Mem call
	// count.
	target, held, charged, acks int
	// Merge progress, reported by the engine (extmem.ProgressReporter):
	// the level it is entering and the plan's total levels. hasProg
	// distinguishes "level 0 of many" from "never reported" (native
	// jobs). Guarded by b.mu.
	progLevel, progLevels int
	hasProg               bool
	released              bool
	dead                  bool
	cancel                chan struct{}
	once                  sync.Once
	// onEvent, when set, observes the lease's lifecycle for tracing:
	// kind is "lease-grow", "lease-shrink", or "lease-reclaim", recs the
	// grant (or reclaimed charge) in records. Like testOnAck it always
	// fires outside b.mu, so the observer may take its own locks.
	onEvent func(kind string, recs int)
}

// SetOnEvent installs the lease's lifecycle observer (see onEvent). The
// job engine wires it to the job's trace so broker grow/shrink/reclaim
// decisions land on the trace timeline.
func (l *Lease) SetOnEvent(fn func(kind string, recs int)) {
	l.b.mu.Lock()
	l.onEvent = fn
	l.b.mu.Unlock()
}

// Progress implements extmem.ProgressReporter: the engine reports the
// merge level it is entering and its plan's total levels at every
// phase boundary, which is the signal the adaptive shrink uses to
// pick victims (see shrinkForQueue). Safe for concurrent use.
func (l *Lease) Progress(level, levels int) {
	l.b.mu.Lock()
	l.progLevel, l.progLevels, l.hasProg = level, levels, true
	l.b.mu.Unlock()
}

// shrinkClass ranks the lease as a shrink victim: class 0 = known
// progress with boundaries ahead (preferred, ordered by remaining
// boundaries), class 1 = progress unknown, class 2 = inside the final
// merge level (a shrink can never be acknowledged). Called with b.mu
// held.
func (l *Lease) shrinkClass() (class, remaining int) {
	if !l.hasProg {
		return 1, 0
	}
	rem := l.progLevels - l.progLevel
	if rem >= 1 {
		return 0, rem
	}
	return 2, 0
}

// ID returns the lease's broker-assigned id.
func (l *Lease) ID() int { return l.id }

// Procs returns the leased worker width.
func (l *Lease) Procs() int { return l.procs }

// Pool returns the job's worker pool: a Split of the broker's shared
// pool, so all leased pools together can never oversubscribe the
// machine.
func (l *Lease) Pool() *rt.Pool { return l.pool }

// Mem reports the current grant and acknowledges any pending resize:
// on a shrink the difference returns to the free pool here — the
// engine has provably stopped using it, since it carves buffers from
// the returned value — and queued jobs are re-admitted immediately.
func (l *Lease) Mem() int {
	l.b.mu.Lock()
	prev := l.held
	if !l.released {
		// The ack: the engine now holds exactly the broker's target, and
		// any surplus charge — a shrink pending acknowledgement, or a
		// grow superseded by a shrink before the engine saw it — returns
		// to the free pool here, where the engine has provably stopped
		// using it.
		l.held = l.target
		if l.charged > l.held {
			l.b.free += l.charged - l.held
			l.charged = l.held
			l.b.rebalance()
		}
	}
	l.acks++
	held, hook, ack, ev := l.held, l.b.testOnAck, l.acks, l.onEvent
	l.b.mu.Unlock()
	if ev != nil && held != prev {
		if held > prev {
			ev("lease-grow", held)
		} else {
			ev("lease-shrink", held)
		}
	}
	if hook != nil {
		hook(l, ack)
	}
	return held
}

// Canceled returns the revocation channel (closed by Cancel).
func (l *Lease) Canceled() <-chan struct{} { return l.cancel }

// Cancel revokes the lease: the engine observes the closed channel at
// its next block boundary and aborts with extmem.ErrCanceled. The
// memory returns to the pool when the job's owner calls Release —
// cancellation is a request, reclamation happens when the engine has
// actually stopped.
func (l *Lease) Cancel() {
	l.once.Do(func() {
		l.b.mu.Lock()
		l.dead = true
		l.b.mu.Unlock()
		close(l.cancel)
	})
}

// Release returns the lease's whole grant to the broker and re-admits
// queued jobs. Idempotent.
func (l *Lease) Release() { l.b.release(l) }
