package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"

	"roccc/internal/dp"
	"roccc/internal/netlist"
)

// firstStreamErr mirrors SystemPool.RunBatch's contract: the returned
// error is the first per-stream failure in stream order.
func firstStreamErr(kernel string, streams []netlist.Job) error {
	for i := range streams {
		if streams[i].Err != nil {
			return fmt.Errorf("serve: %s stream %d: %w", kernel, i, streams[i].Err)
		}
	}
	return nil
}

// Conn is the TCP client. Every Conn speaks protocol v2 and has one
// request path: DialContext sends the hello, Run encodes a request's
// Open and Stream frames straight into the pending buffer of the Conn's
// one writer goroutine, which sends whatever the Conn's callers have
// queued in one Write, and a reader goroutine demuxes the responses by
// request id into the callers' Jobs. Any number of goroutines may Run
// on one Conn. Dialled with no options a Conn has one request slot, so
// concurrent Runs take turns; WithPipelined sets the slot count, and
// requests in flight together share the connection's server-side
// executor slots. Close ends both goroutines.
type Conn struct {
	c  net.Conn
	br *bufio.Reader // the handshake's, then the reader goroutine's
	w  writer

	// pmu guards the pending demux table, the recycled records and the
	// latched transport error; slots, when non-nil, is the client-side
	// request-slot semaphore (one slot with no options, n with
	// WithPipelined(n) and n > 0).
	slots      chan struct{}
	pmu        sync.Mutex
	pending    map[uint32]*pending
	free       []*pending
	preq       uint32
	rerr       error
	readerDone chan struct{}

	// rd is the reader goroutine's result decoder.
	rd resultDecoder
}

// pending is one in-flight request. jobs and answered are owned by the
// reader goroutine until done is signalled; the Run goroutine reads the
// jobs only after receiving on done. mu orders a RunContext
// cancellation against the reader's in-progress decode: once cancelled
// is set the reader drops the request's remaining frames without
// touching jobs, so the caller may reuse its Job buffers the moment
// RunContext returns. A record whose request completed is recycled for
// a later request; a cancelled one is not (it stays in the demux table
// until its late frames drain).
type pending struct {
	jobs     []netlist.Job
	answered int
	ping     bool
	done     chan error

	mu        sync.Mutex
	cancelled bool
}

// DialOption configures DialContext.
type DialOption func(*dialConfig)

type dialConfig struct {
	slots int
}

// WithPipelined sets the Conn's client-side request slots: slots > 0
// bounds its concurrent in-flight requests (RunContext blocks for a free
// slot, or until its context cancels); slots <= 0 leaves admission
// entirely to the server's per-connection executor budget.
func WithPipelined(slots int) DialOption {
	return func(c *dialConfig) { c.slots = slots }
}

// DialContext connects to a rocccserve address and negotiates protocol
// v2. With no options the Conn has one request slot; WithPipelined sets
// the slot count. Dialing a server that only speaks v1 fails with a
// clear error (a v1 server answers the hello frame with a request-level
// error and closes the connection). ctx bounds the dial and the hello;
// it does not outlive DialContext.
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Conn, error) {
	cfg := dialConfig{slots: 1}
	for _, o := range opts {
		o(&cfg)
	}
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return newConn(ctx, nc, addr, cfg)
}

// newConn runs the client side of a dialed connection: the hello, then
// the writer and reader goroutines. It closes nc on failure.
func newConn(ctx context.Context, nc net.Conn, addr string, cfg dialConfig) (*Conn, error) {
	c := &Conn{c: nc, br: bufio.NewReaderSize(nc, readBufSize),
		pending:    map[uint32]*pending{},
		readerDone: make(chan struct{}),
	}
	if cfg.slots > 0 {
		c.slots = make(chan struct{}, cfg.slots)
	}
	// The handshake round trip honours the context: a cancelled ctx
	// closes the socket under the blocked read.
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	err := c.handshake()
	if !stop() {
		err = fmt.Errorf("serve: dial %s: %w", addr, ctx.Err())
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.w.start(nc, c.written)
	go c.readLoop()
	return c, nil
}

// handshake sends the client hello and classifies the server's answer.
func (c *Conn) handshake() error {
	var e encoder
	e.begin(frameHello, 0)
	e.u16(ProtoV2)
	if _, err := c.c.Write(e.finish()); err != nil {
		return fmt.Errorf("serve: sending hello: %w", err)
	}
	payload, err := readFrame(c.br, nil)
	if err != nil {
		return fmt.Errorf("serve: reading hello response: %w", err)
	}
	d := decoder{b: payload}
	typ := d.u8()
	d.u32() // request id (0, or reqNone on an unattributable v1 error)
	switch typ {
	case frameHello:
		ver := int(d.u16())
		if d.err != nil {
			return fmt.Errorf("serve: malformed hello response: %w", d.err)
		}
		if ver < ProtoV2 {
			return fmt.Errorf("serve: server negotiated protocol v%d; this client needs v2", ver)
		}
		return nil
	case frameError:
		// A v1 server does not know the hello frame type: it answers with
		// a request-level error and closes the connection.
		d.u32() // stream id
		msg := d.str16()
		return fmt.Errorf("serve: server speaks protocol v1 (hello refused: %s); this client needs v2", msg)
	default:
		return fmt.Errorf("serve: unexpected hello response frame %q", typ)
	}
}

// Close closes the connection and waits for the Conn's writer and
// reader goroutines to exit; in-flight server work completes and its
// pooled Systems return to their pools. In-flight Runs fail with a
// transport error.
func (c *Conn) Close() error {
	err := c.c.Close()
	<-c.readerDone
	return err
}

// Healthy reports whether the Conn can still carry requests; connection
// pools use it to drop broken conns instead of reusing them.
func (c *Conn) Healthy() bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.rerr == nil
}

// Ping round-trips a keepalive frame through the server: it proves the
// connection and the server's reader loop are alive without touching
// any kernel.
func (c *Conn) Ping() error {
	req, p, err := c.register(nil, true)
	if err != nil {
		return err
	}
	e := c.w.lock()
	e.next(frameKeepAlive, req)
	e.finish()
	c.w.unlock(0)
	err = <-p.done
	c.recycle(p)
	return err
}

// register installs a pending request under a fresh request id,
// refusing if the connection is already poisoned. The record is a
// recycled one when available.
func (c *Conn) register(jobs []netlist.Job, ping bool) (uint32, *pending, error) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.rerr != nil {
		return 0, nil, c.rerr
	}
	var p *pending
	if n := len(c.free); n > 0 {
		p = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		p = &pending{done: make(chan error, 1)}
	}
	p.jobs, p.ping = jobs, ping
	c.preq++
	c.pending[c.preq] = p
	return c.preq, p, nil
}

// recycle returns a completed request's record for reuse. Only records
// whose terminal status was received may come back: a cancelled request
// is still in the demux table.
func (c *Conn) recycle(p *pending) {
	p.jobs, p.answered, p.ping = nil, 0, false
	c.pmu.Lock()
	c.free = append(c.free, p)
	c.pmu.Unlock()
}

// written is the writer's report on one flush: a failed Write fails the
// Conn.
func (c *Conn) written(_ int, err error) {
	if err != nil {
		c.fail(fmt.Errorf("serve: sending request: %w", err))
	}
}

// fail poisons the Conn from its writer: the error latches and the
// connection closes. The reader goroutine's read then fails and its
// abort retires every in-flight request with the latched error, so only
// the reader ever completes a request — never while it is still
// decoding a frame into that request's Jobs.
func (c *Conn) fail(err error) {
	c.pmu.Lock()
	if c.rerr == nil {
		c.rerr = err
	}
	c.pmu.Unlock()
	c.c.Close()
}

// abort is the reader goroutine's end: the error latches (unless a send
// failure came first), every in-flight request fails with it, and the
// connection closes. Responses can no longer be trusted to demux
// correctly, so nothing survives.
func (c *Conn) abort(err error) {
	c.pmu.Lock()
	if c.rerr == nil {
		c.rerr = err
	}
	err = c.rerr
	for req, p := range c.pending {
		delete(c.pending, req)
		p.done <- err
	}
	c.pmu.Unlock()
	c.c.Close()
}

// complete retires one request with its final status.
func (c *Conn) complete(req uint32, p *pending, err error) {
	c.pmu.Lock()
	delete(c.pending, req)
	c.pmu.Unlock()
	p.done <- err
}

// completeRequestError retires one request with a server-reported
// request-level failure (unknown kernel, compile error, drain); the
// connection itself stays healthy.
func (c *Conn) completeRequestError(req uint32, p *pending, msg string) {
	c.complete(req, p, fmt.Errorf("serve: request failed: %s", msg))
}

// Run sends one request (kernel + all streams) and collects the
// responses, filling each stream's Job in place. Output and feedback
// buffers are reused when already sized; input slices are only read.
// A transport or framing failure leaves the connection's protocol state
// unknown, so it poisons the Conn: later Runs fail fast instead of
// desynchronizing.
func (c *Conn) Run(kernel string, streams []netlist.Job) error {
	return c.RunContext(context.Background(), kernel, streams)
}

// RunContext is Run with a per-request deadline/cancel. A cancelled
// request releases its client-side slot immediately and leaves the
// connection healthy: the reader keeps draining the request's late
// frames but stops writing into the caller's Job buffers, so they are
// safe to reuse the moment RunContext returns. (The server still
// finishes the work — v2 has no cancel frame — so the server-side
// executor slot frees when it completes.)
//
// The request is registered in the demux table, its frames queued for
// the writer, and the call parks until the reader goroutine delivers
// the final status or ctx cancels the wait.
func (c *Conn) RunContext(ctx context.Context, kernel string, streams []netlist.Job) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.slots != nil {
		select {
		case c.slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		defer func() { <-c.slots }()
	}
	for i := range streams {
		streams[i].Err = nil
	}
	req, p, err := c.register(streams, false)
	if err != nil {
		return err
	}
	c.send(req, kernel, streams)
	// With every frame queued the server owes exactly one terminal frame
	// (after a failed Write, the reader's abort answers instead);
	// cancellation waits only here — aborting mid-send would leave the
	// server's owed-stream accounting dangling.
	var derr error
	select {
	case derr = <-p.done:
	case <-ctx.Done():
		if c.cancel(req, p) {
			return ctx.Err()
		}
		// The request reached a terminal state concurrently with the
		// cancel: take its real result.
		derr = <-p.done
	}
	c.recycle(p)
	if derr != nil {
		return derr
	}
	return firstStreamErr(kernel, streams)
}

// send encodes a request's Open frame and one Stream frame per job into
// the writer's pending buffer: under one lock when the writer has room
// for the whole request, and otherwise in pieces of whole frames, each
// taking the lock again once the writer has taken what is pending.
func (c *Conn) send(req uint32, kernel string, jobs []netlist.Job) {
	e := c.w.lock()
	e.next(frameOpen, req)
	e.str8(kernel)
	e.u32(uint32(len(jobs)))
	e.finish()
	for i := range jobs {
		if len(e.buf) >= maxPending {
			c.w.unlock(0)
			e = c.w.lock()
		}
		inputs := jobs[i].Inputs
		e.next(frameStream, req)
		e.u32(uint32(i))
		e.u16(uint16(len(inputs)))
		for name, vals := range inputs {
			e.str8(name)
			e.vals(vals)
		}
		e.finish()
	}
	c.w.unlock(0)
}

// cancel detaches a cancelled request from its Job buffers. It reports
// whether the request was still in flight: the pending entry stays in
// the demux table (so late frames attribute cleanly instead of
// poisoning the connection), but the reader stops decoding into the
// jobs. A false return means a terminal status raced the cancel and is
// already on p.done.
func (c *Conn) cancel(req uint32, p *pending) bool {
	c.pmu.Lock()
	inflight := c.pending[req] == p
	c.pmu.Unlock()
	if !inflight {
		return false
	}
	// Taking p.mu blocks until any in-progress decode for this request
	// finishes; afterwards the reader drops the request's frames.
	p.mu.Lock()
	p.cancelled = true
	p.mu.Unlock()
	return true
}

// readLoop is the Conn's single reader: every response frame is demuxed
// to its pending request, and the first frame that cannot be —
// transport loss, malformed body, unattributable id — poisons the
// connection (abort) rather than risking a cross-wired response. The
// writer stops with it, so a failed Conn holds no goroutine even before
// Close.
func (c *Conn) readLoop() {
	defer close(c.readerDone)
	defer c.w.stop() // the connection is closed by now: the writer's Write fails fast
	var buf []byte
	for {
		payload, err := readFrame(c.br, buf)
		if err != nil {
			c.abort(fmt.Errorf("serve: reading response: %w", err))
			return
		}
		buf = payload[:cap(payload)]
		if cap(buf) > bufHighWater && len(payload) < bufHighWater/4 {
			buf = nil // small traffic again: stop pinning the high-water scratch
		}
		if err := c.demux(payload); err != nil {
			c.abort(err)
			return
		}
	}
}

// demux attributes one response frame to its in-flight request and
// applies it; a non-nil return is fatal for the connection. This is the
// client's per-frame hot path — steady-state result frames touch only
// the demux table and the request's own Job buffers.
//
//roccc:hotpath
func (c *Conn) demux(payload []byte) error {
	d := decoder{b: payload}
	typ := d.u8()
	req := d.u32()
	c.pmu.Lock()
	p := c.pending[req]
	c.pmu.Unlock()
	if p == nil {
		if typ == frameError {
			// Unattributable (or already-aborted request's) error:
			// request-level protocol errors poison the connection,
			// stragglers for retired ids cannot be trusted either.
			d.u32()
			return fmt.Errorf("serve: request failed: %s", d.str16())
		}
		return fmt.Errorf("serve: response for unknown request %d", req)
	}
	switch typ {
	case frameKeepAlive:
		if !p.ping {
			return fmt.Errorf("serve: keepalive echo for request %d", req)
		}
		c.complete(req, p, nil)
	case frameResult:
		idx := int(d.u32())
		if idx < 0 || idx >= len(p.jobs) {
			return fmt.Errorf("serve: result for unknown stream %d of request %d", idx, req)
		}
		p.mu.Lock()
		if !p.cancelled {
			if err := c.rd.decode(&d, &p.jobs[idx]); err != nil {
				p.mu.Unlock()
				return err
			}
		}
		p.mu.Unlock()
		p.answered++
	case frameFault:
		idx := int(d.u32())
		if idx < 0 || idx >= len(p.jobs) {
			return fmt.Errorf("serve: fault for unknown stream %d of request %d", idx, req)
		}
		p.mu.Lock()
		if !p.cancelled {
			if err := decodeFaultInto(&d, &p.jobs[idx]); err != nil {
				p.mu.Unlock()
				return err
			}
		}
		p.mu.Unlock()
		p.answered++
	case frameError:
		idx := d.u32()
		msg := d.str16()
		if d.err != nil {
			return fmt.Errorf("serve: malformed error frame: %w", d.err)
		}
		if idx == streamNone {
			c.completeRequestError(req, p, msg)
			return nil
		}
		if int(idx) >= len(p.jobs) {
			return fmt.Errorf("serve: error for unknown stream %d of request %d", idx, req)
		}
		p.mu.Lock()
		if !p.cancelled {
			p.jobs[idx].Err = streamErrFromMsg(msg)
		}
		p.mu.Unlock()
		p.answered++
	case frameDone:
		if p.answered != len(p.jobs) {
			return fmt.Errorf("serve: done after %d of %d responses", p.answered, len(p.jobs))
		}
		c.complete(req, p, nil)
	default:
		return fmt.Errorf("serve: unexpected response frame %q", typ)
	}
	return nil
}

// resultDecoder fills Jobs from result frames. Output and feedback
// names are looked up by the frame's bytes and interned, and an output
// buffer is reused when its length matches, so a caller that recycles
// its Jobs decodes results without allocating.
type resultDecoder struct {
	names names
	keep  [][]byte // scratch: the names one frame carried
}

// decode fills one stream's Job from a result frame body (after
// type/req/idx). Afterwards the Job's Outputs and Feedbacks hold
// exactly the frame's names — keys left by an earlier result are
// purged — so decoding into a used Job equals decoding into a fresh one.
func (rd *resultDecoder) decode(d *decoder, job *netlist.Job) error {
	job.Cycles = int(d.u64())
	nouts := int(d.u16())
	if job.Outputs == nil && nouts > 0 {
		job.Outputs = make(map[string][]int64, nouts)
	}
	keep := rd.keep[:0]
	for i := 0; i < nouts; i++ {
		name := d.name8()
		n := d.count()
		if d.err != nil {
			break
		}
		vals, ok := job.Outputs[string(name)]
		if !ok || len(vals) != n {
			vals = make([]int64, n)
			job.Outputs[rd.names.intern(name)] = vals
		}
		d.fill(vals)
		keep = append(keep, name)
	}
	purgeStale(job.Outputs, keep)
	nfb := int(d.u16())
	if job.Feedbacks == nil && nfb > 0 {
		job.Feedbacks = make(map[string]int64, nfb)
	}
	keep = keep[:0]
	for i := 0; i < nfb; i++ {
		name := d.name8()
		v := d.i64()
		if d.err != nil {
			break
		}
		job.Feedbacks[rd.names.intern(name)] = v
		keep = append(keep, name)
	}
	purgeStale(job.Feedbacks, keep)
	if cap(keep) <= maxInterned {
		rd.keep = keep[:0]
	}
	if d.err != nil {
		return fmt.Errorf("serve: malformed result frame: %w", d.err)
	}
	return nil
}

// decodeFaultInto reconstructs the exact typed error a serial
// System.Run raises: same operator class, abort cycle and message.
func decodeFaultInto(d *decoder, job *netlist.Job) error {
	cycle := int(d.u32())
	op := d.str8()
	msg := d.str16()
	if d.err != nil {
		return fmt.Errorf("serve: malformed fault frame: %w", d.err)
	}
	job.Err = &dp.FaultError{Op: op, Cycle: cycle, Msg: msg}
	return nil
}

// streamErrFromMsg rebuilds a stream-level error from its wire message,
// recovering the typed BusyError for load-sheds so clients can match it
// with errors.As.
func streamErrFromMsg(msg string) error {
	if be := parseBusy(msg); be != nil {
		return be
	}
	return fmt.Errorf("serve: %s", msg)
}

// purgeStale deletes the keys of m that are not among keep (the names
// one frame carried, as views into it).
func purgeStale[V any](m map[string]V, keep [][]byte) {
	for k := range m {
		found := false
		for _, b := range keep {
			if string(b) == k {
				found = true
				break
			}
		}
		if !found {
			delete(m, k)
		}
	}
}
