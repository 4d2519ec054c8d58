package load

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"roccc/client"
)

// StepConfig drives one open-loop rate step against a live fleet.
type StepConfig struct {
	Addr       string        // rocccserve TCP address
	MetricsURL string        // /metrics endpoint (empty = no scrape)
	Rate       float64       // offered arrivals per second
	Duration   time.Duration // step length (arrival window; in-flight work drains after)
	Seed       uint64        // arrival schedule + mix draw seed
	Scenario   *Scenario
}

// The client side of every step: conns pipelined connections of slots
// request slots each, and one firing goroutine per slot. The worker
// pool bounds client-side concurrency; it must comfortably exceed the
// fleet's admission budget or the harness closes the loop itself and
// the router never sheds. timeout is each request's deadline.
const (
	conns   = 2
	slots   = 64
	workers = conns * slots
	timeout = 10 * time.Second
)

// StepResult is one rate step's measurement. Latency quantiles cover
// served requests only (successes and expected planted faults) and are
// measured from each arrival's *scheduled* time, so client-side queue
// delay — coordinated-omission debt — is inside them, not hidden.
// Sheds are counted separately: a shed is the fleet working as designed
// under overload, not a latency sample and not an error.
type StepResult struct {
	Rate    float64 `json:"rate_rps"`
	Offered int64   `json:"offered"`

	Served      int64 `json:"served"`
	Faults      int64 `json:"faults"`
	Sheds       int64 `json:"sheds"`
	Errors      int64 `json:"errors"`
	Disconnects int64 `json:"disconnects"`

	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`

	// Pacing-clock dispatch debt: how late ticket hand-off ran behind
	// the arrival schedule, sleep overrun included (the queueing between
	// hand-off and the wire is already inside the latency quantiles).
	LateMaxMs float64 `json:"late_max_ms"`

	ShedRate float64 `json:"shed_rate"`
	ErrRate  float64 `json:"err_rate"`

	ElapsedSec float64 `json:"elapsed_sec"`

	// Metrics is the post-step /metrics probe correlating the step's
	// latency with server-side saturation.
	Metrics *MetricsProbe `json:"metrics,omitempty"`
}

// MetricsProbe is the slice of a /metrics snapshot the harness
// correlates with each step: live concurrency, its high-water mark,
// cumulative sheds, and per-kernel warm-pool idle counts.
type MetricsProbe struct {
	InFlight  int64          `json:"in_flight"`
	HighWater int64          `json:"high_water"`
	Sheds     int64          `json:"sheds"`
	PoolIdle  map[string]int `json:"pool_idle,omitempty"`
}

// probeFrom distills a scraped snapshot. Fleet counters win when
// present (the front server's own counters see only wire connections).
func probeFrom(snap *client.FleetSnapshot) *MetricsProbe {
	p := &MetricsProbe{
		InFlight: snap.Front.InFlight,
		Sheds:    snap.Front.Sheds,
		PoolIdle: map[string]int{},
	}
	collect := func(m *client.Metrics) {
		for _, k := range m.Kernels {
			if k.HighWater > p.HighWater {
				p.HighWater = k.HighWater
			}
			if k.Pool != nil {
				p.PoolIdle[k.Kernel] = int(k.Pool.Idle)
			}
		}
	}
	collect(&snap.Front)
	if snap.Fleet != nil {
		p.InFlight, p.Sheds, p.HighWater = 0, 0, 0
		for i := range snap.Fleet.Shards {
			sh := &snap.Fleet.Shards[i]
			p.InFlight += sh.InFlight
			p.Sheds += sh.Sheds
			if sh.HighWater > p.HighWater {
				p.HighWater = sh.HighWater
			}
			if sh.Server != nil {
				collect(sh.Server)
			}
		}
	}
	return p
}

// worker is one firing goroutine's private state: its connection, its
// histogram (merged after the step), its outcome counters and its
// per-kernel reusable Job batches.
type worker struct {
	conn *client.Conn
	rng  uint64
	hist Hist
	jobs map[string][]client.Job

	served, faults, sheds, errors, disconnects int64
}

// batch returns the worker's reusable Job slice for a kernel variant,
// with fresh inputs installed (outputs/feedback buffers persist across
// requests — the client reuses them in place).
func (w *worker) batch(key string, inputs map[string][]int64, n int) []client.Job {
	jobs, ok := w.jobs[key]
	if !ok {
		jobs = make([]client.Job, n)
		w.jobs[key] = jobs
	}
	for i := range jobs {
		jobs[i].Inputs = inputs
	}
	return jobs
}

// fire executes one drawn arrival and classifies the outcome.
func (w *worker) fire(cfg *StepConfig, req Request, sched time.Time) {
	if req.Kind == KindDisconnect {
		rudeDisconnect(cfg.Addr, req.Kernel)
		w.disconnects++
		return
	}
	key := req.Kernel
	if req.Kind == KindFault {
		key += "!fault"
	}
	jobs := w.batch(key, req.Inputs, cfg.Scenario.StreamsPerRequest)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	err := w.conn.RunContext(ctx, req.Kernel, jobs)
	cancel()
	lat := time.Since(sched)
	switch {
	case err == nil:
		w.served++
		w.hist.Record(int64(lat))
	case errorsAsBusy(err):
		w.sheds++
	case req.Kind == KindFault && errorsAsFault(err):
		w.faults++
		w.hist.Record(int64(lat))
	default:
		w.errors++
	}
}

func errorsAsBusy(err error) bool {
	var be *client.BusyError
	return errors.As(err, &be)
}

func errorsAsFault(err error) bool {
	var fe *client.FaultError
	return errors.As(err, &fe)
}

// rudeDisconnect opens a request promising three streams it never
// sends, then slams the socket: the server must reap the dangling
// request state without leaking pooled Systems. (v1 byte streams are
// valid v2 byte streams, so no hello is needed.)
func rudeDisconnect(addr, kernel string) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return
	}
	payload := make([]byte, 0, 16+len(kernel))
	payload = append(payload, frameOpenByte)
	payload = binary.BigEndian.AppendUint32(payload, 1) // request id
	payload = append(payload, byte(len(kernel)))
	payload = append(payload, kernel...)
	payload = binary.BigEndian.AppendUint32(payload, 3) // promised streams
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = append(frame, payload...)
	c.Write(frame)
	c.Close()
}

// frameOpenByte mirrors the protocol's 'O' frame type (the harness
// speaks raw bytes only here, to be rude on purpose; everything else
// goes through the public client).
const frameOpenByte = 'O'

// RunStep drives one open-loop rate step: a single pacing clock sleeps
// to each scheduled arrival and hands a ticket to a worker pool; every
// ticket is fired (late ones immediately — the debt lands in the
// latency measured from the scheduled time, which is the whole point of
// an open loop). Returns after all in-flight requests drain and, when
// configured, the /metrics probe lands.
func RunStep(cfg StepConfig) (*StepResult, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("load: step needs a scenario")
	}
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("load: rate and duration must be positive")
	}

	cs := make([]*client.Conn, conns)
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	for i := range cs {
		c, err := client.DialContext(dctx, cfg.Addr, client.WithPipelined(slots))
		if err != nil {
			for _, pc := range cs[:i] {
				pc.Close()
			}
			return nil, fmt.Errorf("load: dialing %s: %w", cfg.Addr, err)
		}
		cs[i] = c
	}
	defer func() {
		for _, c := range cs {
			c.Close()
		}
	}()

	// The ticket queue (each ticket an arrival's scheduled time) is sized
	// for the whole step so the clock does not block on slow workers:
	// open-loop arrivals do not stop because the system is drowning. If
	// the sizing falls short (a Poisson step drawing far above its
	// rate), the send blocks, and the worker still measures the latency
	// from the scheduled time.
	tickets := make(chan time.Time, int(cfg.Rate*cfg.Duration.Seconds())+workers+16)

	ws := make([]*worker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		w := &worker{
			conn: cs[i%len(cs)],
			rng:  cfg.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15),
			jobs: map[string][]client.Job{},
		}
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sched := range tickets {
				req := cfg.Scenario.Draw(&w.rng)
				w.fire(&cfg, req, sched)
			}
		}()
	}

	// Pacing clock: one goroutine owns the schedule.
	pacer := NewPacer(cfg.Rate, cfg.Seed|1)
	start := time.Now()
	durNs := cfg.Duration.Nanoseconds()
	var offered int64
	var lateMax time.Duration
	for {
		off := pacer.Next()
		if off >= durNs {
			break
		}
		sched := start.Add(time.Duration(off))
		if wait := time.Until(sched); wait > 0 {
			time.Sleep(wait)
		}
		// Measured after the sleep: the timer wakes the clock after the
		// deadline, never at it, and that oversleep is dispatch debt too.
		if late := time.Since(sched); late > lateMax {
			lateMax = late
		}
		tickets <- sched
		offered++
	}
	close(tickets)
	wg.Wait()
	elapsed := time.Since(start)

	res := &StepResult{Rate: cfg.Rate, Offered: offered, ElapsedSec: elapsed.Seconds(), LateMaxMs: ms(lateMax)}
	var hist Hist
	for _, w := range ws {
		hist.Merge(&w.hist)
		res.Served += w.served
		res.Faults += w.faults
		res.Sheds += w.sheds
		res.Errors += w.errors
		res.Disconnects += w.disconnects
	}
	res.P50Ms = ms(time.Duration(hist.Quantile(0.50)))
	res.P99Ms = ms(time.Duration(hist.Quantile(0.99)))
	res.P999Ms = ms(time.Duration(hist.Quantile(0.999)))
	res.MeanMs = hist.Mean() / 1e6
	res.MaxMs = ms(time.Duration(hist.Max()))
	if offered > 0 {
		res.ShedRate = float64(res.Sheds) / float64(offered)
		res.ErrRate = float64(res.Errors) / float64(offered)
	}
	if cfg.MetricsURL != "" {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		snap, err := client.ScrapeMetrics(sctx, cfg.MetricsURL)
		scancel()
		if err != nil {
			return res, fmt.Errorf("load: scraping %s: %w", cfg.MetricsURL, err)
		}
		res.Metrics = probeFrom(snap)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Warmup readies the fleet for measurement: every mix kernel (and its
// fault variant) runs once serially — lazy compilation and the first
// pool build happen here, not in step one — then a burst of one
// goroutine per step worker grows each kernel's pool to roughly its
// steady-state width so the first measured step does not pay
// cold-start System builds in its tail. Sheds and planted faults during
// the burst are expected and ignored.
func Warmup(addr string, sc *Scenario) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	conn, err := client.DialContext(ctx, addr, client.WithPipelined(0))
	if err != nil {
		return fmt.Errorf("load: warmup dial: %w", err)
	}
	defer conn.Close()
	for i := range sc.Mix {
		m := &sc.Mix[i]
		jobs := []client.Job{{Inputs: m.inputs}}
		if err := conn.RunContext(ctx, m.Kernel, jobs); err != nil {
			return fmt.Errorf("load: warmup %s: %w", m.Kernel, err)
		}
		if m.faultInputs != nil {
			jobs = []client.Job{{Inputs: m.faultInputs}}
			if err := conn.RunContext(ctx, m.Kernel, jobs); err != nil && !errorsAsFault(err) {
				return fmt.Errorf("load: warmup %s (fault variant): %w", m.Kernel, err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := range workers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range sc.Mix {
				m := &sc.Mix[i]
				jobs := []client.Job{{Inputs: m.inputs}}
				err := conn.RunContext(ctx, m.Kernel, jobs)
				if err != nil && !errorsAsBusy(err) && !errorsAsFault(err) {
					errs[g] = fmt.Errorf("load: warmup burst %s: %w", m.Kernel, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
