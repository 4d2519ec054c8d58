// Package serve is the long-lived simulation service over
// netlist.SystemPool: many kernels resident, request = input streams,
// response = output streams. A server compiles and caches each kernel on
// first use (the compiled system plan lives on hir.Kernel.PlanCache, so
// every pooled System shares it), keeps that kernel's one warm
// SystemPool for the server's life, and speaks a length-prefixed binary
// framing over TCP (proto.go).
// Mid-stream faults — e.g. a divide-by-zero on a valid iteration —
// travel as typed dp.FaultError values carrying the abort cycle, so a
// served fault is indistinguishable from the same fault raised by a
// serial netlist.System.Run.
//
// The serving stack is three explicit layers (PR 8):
//
//   - wire: the framed protocol and the per-connection loop below, which
//     demuxes many concurrent requests per connection by request id
//     (proto.go documents v1 vs v2);
//   - placement: the Dispatcher seam — by default a server executes on
//     its own kernel registry, but a front-end can plug a fleet router
//     that consistent-hashes kernels across worker shards
//     (internal/fleet) without touching the wire layer;
//   - observability: Metrics snapshots every counter this file
//     maintains (metrics.go serves it over HTTP), and Balanced checks
//     that every pool drained.
package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
)

// KernelSpec names one servable kernel: the C source, the function to
// extract, its compile options and the system configuration its pooled
// Systems are built with. Compilation is deferred to the first request.
type KernelSpec struct {
	Name    string
	Source  string
	Func    string
	Options core.Options
	Config  netlist.Config
}

// Specs returns bench kernels (the Table 1 rows of bench.All, the
// corpus of bench.Corpus) as servable specs, each with its own options,
// bus and scalars. A combinational kernel (the fully unrolled bit-level
// rows, the LUTs) carries no loop nest, so a request for it reports a
// typed request error at first use rather than at registration.
func Specs(ks []bench.Kernel) []KernelSpec {
	specs := make([]KernelSpec, len(ks))
	for i, k := range ks {
		specs[i] = KernelSpec{
			Name:    k.Name,
			Source:  k.Source,
			Func:    k.Func,
			Options: k.Options,
			Config:  netlist.Config{BusElems: k.BusElems, Scalars: k.Scalars},
		}
	}
	return specs
}

// Runner executes admitted streams for one kernel, resolved once at
// request open. The returned error is the job's (per-stream failures,
// including typed *dp.FaultError faults and *BusyError load-sheds).
// The job belongs to the caller once RunStream returns: the TCP server
// reuses it, its maps and their buffers for a later stream, so a Runner
// must not keep any of them.
type Runner interface {
	RunStream(job *netlist.Job) error
}

// Dispatcher resolves a kernel name at request-open time to the Runner
// its streams execute on. A plain Server dispatches into its own kernel
// registry; a front-end server fronting worker shards plugs a
// fleet.Router here instead — the wire layer is identical either way.
type Dispatcher interface {
	Dispatch(kernel string) (Runner, error)
}

// BusyError is the typed load-shed fault: admission control refused the
// stream because the target shard's executors were saturated. It
// travels the wire as a stream-level error frame whose message the
// client reconstructs into the same typed value.
type BusyError struct {
	Kernel string
	Shard  int
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("serve: busy: kernel %q shard %d: executors saturated", e.Kernel, e.Shard)
}

// parseBusy reconstructs a typed BusyError from its wire message, nil
// when the message is not a busy shed.
func parseBusy(msg string) *BusyError {
	var kernel string
	var shard int
	if n, _ := fmt.Sscanf(msg, "serve: busy: kernel %q shard %d:", &kernel, &shard); n == 2 {
		return &BusyError{Kernel: kernel, Shard: shard}
	}
	return nil
}

// kernelEntry is one registered kernel: compiled and given its warm
// pool of Systems on first use, and kept so for the server's life. The
// pool is an atomic pointer because streams and metrics peek at it
// concurrently; mu orders the one slow path (compile and pool build).
type kernelEntry struct {
	srv  *Server
	spec KernelSpec

	mu       sync.Mutex
	compiled bool  // the compile succeeded (metrics)
	cerr     error // latched compile/build error: deterministic, never retried
	pool     atomic.Pointer[netlist.SystemPool]

	// cone is probed off the eagerly built System at pool-build time
	// (metrics): whether the plan's feedback cone vectorizes in closed
	// form. Guarded by mu during writes; read after pool is visible.
	cone bool

	// Counters for the metrics plane; hwm is the concurrency high-water
	// mark.
	inflight atomic.Int64
	hwm      atomic.Int64
	opens    atomic.Int64
	streams  atomic.Int64
	faults   atomic.Int64
}

// ensure compiles the kernel and builds its pool, once: a later call
// returns the latched error or finds the pool.
func (e *kernelEntry) ensure() error {
	if e.pool.Load() != nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cerr != nil || e.pool.Load() != nil {
		return e.cerr
	}
	res, err := core.CompileSource(e.spec.Source, e.spec.Func, e.spec.Options)
	if err != nil {
		e.cerr = fmt.Errorf("serve: kernel %q: %w", e.spec.Name, err)
		return e.cerr
	}
	e.compiled = true
	pool, err := netlist.NewSystemPool(res.Kernel, res.Datapath, e.spec.Config, e.srv.workers)
	if err != nil {
		// Deterministic (geometry/config), so latch it like a compile
		// failure: combinational kernels refuse every request the same way.
		e.cerr = fmt.Errorf("serve: kernel %q: %w", e.spec.Name, err)
		return e.cerr
	}
	// Probe the eagerly built System for the metrics plane: whether its
	// feedback cone is closed-form.
	if sys, err := pool.Get(); err == nil {
		e.cone = sys.HasClosedFormCone()
		pool.Put(sys)
	}
	e.pool.Store(pool)
	return nil
}

// RunStream executes one stream on the kernel's pool, counting it for
// the metrics plane. Every served stream ends here: the TCP executors
// and fleet shards reach it through Server.RunStream or a request's
// resolved Runner.
func (e *kernelEntry) RunStream(job *netlist.Job) error {
	n := e.inflight.Add(1)
	for hw := e.hwm.Load(); n > hw && !e.hwm.CompareAndSwap(hw, n); hw = e.hwm.Load() {
	}
	defer e.inflight.Add(-1)
	e.streams.Add(1)
	e.pool.Load().RunJob(job)
	if job.Err != nil {
		var fe *dp.FaultError
		if errors.As(job.Err, &fe) {
			e.faults.Add(1)
		}
	}
	return job.Err
}

// Server is the streaming simulation service. Zero value is not usable;
// build with NewServer, Register kernels, then Serve a listener or call
// RunStream in process. Every stream it serves, either way, goes
// through RunStream's path: dispatch, then the kernel's pool.
type Server struct {
	workers int

	// dispatcher overrides kernel resolution (SetDispatcher); nil means
	// this server's own registry.
	dispatcher Dispatcher

	mu      sync.Mutex
	kernels map[string]*kernelEntry
	conns   map[net.Conn]*srvConn
	ln      net.Listener

	// streams tracks in-flight stream executions across all connections
	// and in-process callers, for graceful drain. drainMu orders stream
	// admission against the closing transition: admissions hold the read
	// side while they check closing and Add, Shutdown takes the write
	// side to flip closing — so no Add can race a Wait parked on a zero
	// counter (documented sync.WaitGroup misuse).
	drainMu  sync.RWMutex
	streams  sync.WaitGroup
	inflight atomic.Int64
	closing  atomic.Bool

	// Served counters (for logs/metrics).
	served atomic.Int64
	faults atomic.Int64
	sheds  atomic.Int64
}

// NewServer builds a server whose connections each run up to workers
// streams at once (<= 0 means GOMAXPROCS) — the per-request-slot
// semaphore all of one connection's requests share. A fleet shard
// without its own slot budget admits that many streams.
func NewServer(workers int) *Server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Server{
		workers: workers,
		kernels: map[string]*kernelEntry{},
		conns:   map[net.Conn]*srvConn{},
	}
}

// Workers returns the per-connection executor width — the capacity
// figure admission control budgets against.
func (s *Server) Workers() int { return s.workers }

// SetDispatcher replaces kernel resolution for every subsequent request
// open: streams execute on whatever Runner d resolves instead of this
// server's registry. Set it before Serve; a front-end server fronting a
// fleet needs no registered kernels at all.
func (s *Server) SetDispatcher(d Dispatcher) { s.dispatcher = d }

// Register adds a kernel spec. Re-registering a name is an error (the
// pool identity would silently change under live clients).
func (s *Server) Register(spec KernelSpec) error {
	if spec.Name == "" || len(spec.Name) > maxName {
		return fmt.Errorf("serve: invalid kernel name %q", spec.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.kernels[spec.Name]; dup {
		return fmt.Errorf("serve: kernel %q already registered", spec.Name)
	}
	s.kernels[spec.Name] = &kernelEntry{srv: s, spec: spec}
	return nil
}

// Ready resolves and compiles a kernel through the registry and
// returns the error a request for it would get at open: an unknown
// name, or the kernel's latched compile or pool-build error. Fleet
// routers call it to refuse such kernels at request open.
func (s *Server) Ready(kernel string) error {
	_, err := s.entry(kernel)
	return err
}

// entry resolves and compiles a kernel by name.
func (s *Server) entry(name string) (*kernelEntry, error) {
	s.mu.Lock()
	e, ok := s.kernels[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown kernel %q", name)
	}
	if err := e.ensure(); err != nil {
		return nil, err
	}
	return e, nil
}

// dispatch resolves a kernel at request open: the plugged Dispatcher if
// any, this server's registry otherwise. Registry opens count toward
// the kernel's open counter.
func (s *Server) dispatch(kernel string) (Runner, error) {
	if d := s.dispatcher; d != nil {
		return d.Dispatch(kernel)
	}
	e, err := s.entry(kernel)
	if err != nil {
		return nil, err
	}
	e.opens.Add(1)
	return e, nil
}

// RunStream executes one stream of one kernel through the dispatch seam
// — the same path a TCP stream frame takes, minus the wire. Fleet
// shards and in-process callers use it; per-stream failures land in
// job.Err.
func (s *Server) RunStream(kernel string, job *netlist.Job) error {
	if !s.beginStream() {
		job.Err = fmt.Errorf("serve: server is draining")
		return job.Err
	}
	defer s.endStream(1)
	r, err := s.dispatch(kernel)
	if err != nil {
		job.Err = err
		return err
	}
	r.RunStream(job)
	s.countStream(job.Err)
	return job.Err
}

// countStream maintains the served/fault/shed totals for one answered
// stream.
func (s *Server) countStream(err error) {
	s.served.Add(1)
	if err == nil {
		return
	}
	var fe *dp.FaultError
	var be *BusyError
	switch {
	case errors.As(err, &fe):
		s.faults.Add(1)
	case errors.As(err, &be):
		s.sheds.Add(1)
	}
}

// Stats snapshots each compiled kernel's pool counters.
func (s *Server) Stats() map[string]netlist.PoolStats {
	out := map[string]netlist.PoolStats{}
	for _, e := range s.sortedEntries() {
		if pool := e.pool.Load(); pool != nil {
			out[e.spec.Name] = pool.Stats()
		}
	}
	return out
}

// Serve accepts connections on ln until the listener closes (Shutdown).
// It returns nil after a graceful Shutdown, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return nil
			}
			return err
		}
		sc := &srvConn{
			srv:   s,
			c:     c,
			reqs:  map[uint32]*reqState{},
			kerns: map[string]*connKernel{},
			sem:   make(chan struct{}, s.workers),
		}
		// Register under mu with a closing re-check in the same critical
		// section: Shutdown flips closing before its close-all pass takes
		// mu, so a conn either lands in s.conns in time to be closed
		// there, or sees closing here and is refused — never neither.
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = sc
		s.mu.Unlock()
		go sc.serve()
	}
}

// Addr returns the listening address (for tests using ":0").
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// beginStream admits one stream execution unless the server is
// draining; endStream retires n of them. See drainMu for the ordering
// contract.
func (s *Server) beginStream() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.closing.Load() {
		return false
	}
	s.streams.Add(1)
	s.inflight.Add(1)
	return true
}

func (s *Server) endStream(n int) {
	s.inflight.Add(-int64(n))
	s.streams.Add(-n)
}

// Shutdown drains the server: new requests are refused, in-flight
// streams finish, then connections close and the kernel pools close. ctx bounds the drain; on expiry remaining connections are
// closed anyway and ctx.Err is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.closing.Store(true)
	s.drainMu.Unlock()
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.streams.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	clear(s.conns)
	s.mu.Unlock()
	for _, e := range s.sortedEntries() {
		if pool := e.pool.Load(); pool != nil {
			pool.Close()
		}
	}
	return err
}

// reqState is one open request on a connection: the kernel's resolved
// Runner and the count of stream responses still owed before 'D'. With
// a pipelined client many reqStates are live on one connection at once.
// Retired records are recycled for later requests.
type reqState struct {
	kern      *connKernel
	runner    Runner
	remaining uint32 // responses owed; guarded by srvConn.mu
}

// connKernel is one kernel a connection has opened: its name, interned
// once it resolved through dispatch, its interned input-array names
// (reader goroutine only) and the connection's idle streamJobs for it.
type connKernel struct {
	name  string
	names names
	free  []*streamJob // guarded by srvConn.mu
}

// streamJob is one stream on its way through the server: the Job its
// Runner fills and the input buffers the decode reuses. streamJobs are
// pooled per connection and kernel, so a steady flow of same-kernel
// requests decodes, runs and answers without allocating.
type streamJob struct {
	sc       *srvConn
	kern     *connKernel
	runner   Runner
	req, idx uint32

	job  netlist.Job
	bufs [][]int64 // input buffers by array position in the frame

	// run is exec bound once, so `go sj.run()` starts the stream's
	// goroutine without allocating a closure.
	run func()
}

// decode fills the Job's Inputs from a stream frame body (after
// type/req/idx). Inputs then holds exactly the frame's arrays: names an
// earlier stream left are gone, and each array reuses the buffer of the
// same position in the previous frame.
func (sj *streamJob) decode(d *decoder, names *names) {
	narr := int(d.u16())
	if sj.job.Inputs == nil {
		sj.job.Inputs = make(map[string][]int64, narr)
	}
	clear(sj.job.Inputs)
	for i := 0; i < narr; i++ {
		name := d.name8()
		n := d.count()
		if d.err != nil {
			return
		}
		if i == len(sj.bufs) {
			sj.bufs = append(sj.bufs, nil)
		}
		vals := sj.bufs[i]
		if cap(vals) < n {
			vals = make([]int64, n)
		}
		vals = vals[:n]
		d.fill(vals)
		sj.bufs[i] = vals
		sj.job.Inputs[names.intern(name)] = vals
	}
}

// pooled reports whether the streamJob is small enough to keep: buffers
// grown by an oversized stream are dropped, as the receive scratch is.
func (sj *streamJob) pooled() bool {
	if len(sj.bufs) > maxInterned {
		return false
	}
	n := 0
	for _, b := range sj.bufs {
		n += 8 * cap(b)
	}
	return n <= bufHighWater
}

// exec runs the stream and queues its answer (the stream's goroutine).
// Its executor slot frees once the answer is queued; the stream stays in
// flight, for Shutdown's drain and for Balanced, until the writer has
// written the answer or the connection has failed.
func (sj *streamJob) exec() {
	sc := sj.sc
	sj.runner.RunStream(&sj.job) // error is job.Err; pooled Systems return either way
	sc.respond(sj, 1)
	<-sc.sem
}

// srvConn is the server side of one client connection: a reader
// goroutine (serve), one goroutine per executing stream, and one writer
// goroutine (w) through which every server frame leaves. Executors
// finish out of order and encode their answers into the writer's
// pending buffer as they finish; the writer sends whatever has queued
// in one Write.
type srvConn struct {
	srv *Server
	c   net.Conn
	w   writer

	mu       sync.Mutex
	reqs     map[uint32]*reqState
	freeReqs []*reqState

	// kerns holds the kernels this connection opened (reader goroutine
	// only).
	kerns map[string]*connKernel

	// sem is the per-request-slot semaphore: it bounds this connection's
	// concurrent stream executions across all its in-flight requests; the
	// reader blocks acquiring it, which stops reading the socket and
	// backpressures the client through TCP itself.
	sem chan struct{}

	// Per-connection counters (metrics plane).
	opens   atomic.Int64
	streams atomic.Int64
	faults  atomic.Int64
}

// serve is the connection's reader loop. It starts the writer, and on
// its way out waits for the executors, has the writer flush what they
// and the reader queued, then closes the connection.
func (sc *srvConn) serve() {
	c, s := sc.c, sc.srv
	sc.w.start(c, sc.written)
	defer func() {
		// Wait for this connection's executors (each holds a sem slot
		// until its answer is queued) so their pooled Systems are back
		// before the conn is forgotten, then flush: the queued answers
		// and a protocol error's frame still go out before the close.
		for i := 0; i < cap(sc.sem); i++ {
			sc.sem <- struct{}{}
		}
		sc.w.stop()
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	br := bufio.NewReaderSize(c, readBufSize)
	var buf []byte
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			// Client went away (EOF / closed conn) or sent garbage. A
			// protocol error (oversized/zero/truncated frame) gets a
			// best-effort error frame before the close.
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				sc.writeError(reqNone, err.Error())
			}
			return
		}
		buf = payload[:cap(payload)]
		if cap(buf) > bufHighWater && len(payload) < bufHighWater/4 {
			buf = nil // small traffic again: stop pinning the high-water scratch
		}
		if !sc.frame(payload) {
			return
		}
	}
}

// frame dispatches one client frame; false closes the connection.
func (sc *srvConn) frame(payload []byte) bool {
	d := decoder{b: payload}
	typ := d.u8()
	req := d.u32()
	switch typ {
	case frameHello:
		ver := d.u16()
		if d.err != nil || d.remaining() || ver == 0 {
			sc.writeError(req, "serve: malformed hello frame")
			return false
		}
		e := sc.w.lock()
		e.next(frameHello, req)
		e.u16(uint16(min(int(ver), ProtoV2)))
		e.finish()
		sc.w.unlock(0)
		return true
	case frameKeepAlive:
		if d.err != nil || d.remaining() {
			sc.writeError(req, "serve: malformed keepalive frame")
			return false
		}
		e := sc.w.lock()
		e.next(frameKeepAlive, req)
		e.finish()
		sc.w.unlock(0)
		return true
	case frameOpen:
		kernel := d.name8()
		count := d.u32()
		if d.err != nil || d.remaining() {
			sc.writeError(req, "serve: malformed open frame")
			return false
		}
		return sc.open(req, kernel, count)
	case frameStream:
		return sc.stream(req, &d)
	default:
		sc.writeError(req, fmt.Sprintf("serve: unexpected frame type %q", typ))
		return false
	}
}

func (sc *srvConn) open(req uint32, kernel []byte, count uint32) bool {
	if sc.srv.closing.Load() {
		sc.writeError(req, "serve: server is draining")
		return true
	}
	sc.mu.Lock()
	_, dup := sc.reqs[req]
	sc.mu.Unlock()
	if dup {
		sc.writeError(req, fmt.Sprintf("serve: request %d already open", req))
		return false
	}
	kern, known := sc.kerns[string(kernel)]
	if !known {
		kern = &connKernel{name: string(kernel)}
	}
	runner, err := sc.srv.dispatch(kern.name)
	if err != nil {
		sc.writeError(req, err.Error())
		return true // request refused; connection stays usable
	}
	if !known && len(sc.kerns) < maxInterned {
		sc.kerns[kern.name] = kern // only names that resolved are interned
	}
	sc.opens.Add(1)
	if count == 0 {
		e := sc.w.lock()
		e.next(frameDone, req)
		e.finish()
		sc.w.unlock(0)
		return true
	}
	sc.mu.Lock()
	var st *reqState
	if n := len(sc.freeReqs); n > 0 {
		st = sc.freeReqs[n-1]
		sc.freeReqs = sc.freeReqs[:n-1]
	} else {
		st = new(reqState)
	}
	*st = reqState{kern: kern, runner: runner, remaining: count}
	sc.reqs[req] = st
	sc.mu.Unlock()
	return true
}

func (sc *srvConn) stream(req uint32, d *decoder) bool {
	idx := d.u32()
	var kern *connKernel
	var runner Runner
	var sj *streamJob
	sc.mu.Lock()
	if st := sc.reqs[req]; st != nil {
		kern, runner = st.kern, st.runner
		if n := len(kern.free); n > 0 {
			sj = kern.free[n-1]
			kern.free = kern.free[:n-1]
		}
	}
	sc.mu.Unlock()
	if kern == nil {
		// Unknown request id: either never opened (protocol misuse) or
		// already aborted by a request-level error — drop the frame.
		return true
	}
	if sj == nil {
		sj = &streamJob{sc: sc}
		sj.run = sj.exec
	}
	sj.decode(d, &kern.names)
	if d.err != nil || d.remaining() {
		sc.writeError(req, "serve: malformed stream frame")
		return false
	}
	sj.kern, sj.runner, sj.req, sj.idx = kern, runner, req, idx
	sj.job.Cycles, sj.job.Err = 0, nil

	if !sc.srv.beginStream() {
		// Draining: answer the stream with an error (keeping the 'D'
		// accounting intact) instead of racing the shutdown Wait.
		sj.job.Err = fmt.Errorf("serve: server is draining")
		sc.respond(sj, 0)
		return true
	}
	sc.sem <- struct{}{} // backpressure: bounded in-flight per connection
	go sj.run()
	return true
}

// respond encodes the stream's result/fault/error frame into the
// writer's pending buffer as one answer to the request, and returns the
// streamJob to its kernel's pool. held is 1 when the stream is in flight
// (beginStream): the writer retires it once the answer is written. The
// request's owed-stream count drops under the writer's lock, and the
// answer that settles the request appends its 'D' before unlocking —
// so 'D' always follows every R/F/E frame of its request.
func (sc *srvConn) respond(sj *streamJob, held int) {
	job := &sj.job
	sc.srv.countStream(job.Err)
	sc.streams.Add(1)
	e := sc.w.lock()
	switch {
	case job.Err == nil:
		e.next(frameResult, sj.req)
		e.u32(sj.idx)
		e.u64(uint64(job.Cycles))
		e.u16(uint16(len(job.Outputs)))
		for name, vals := range job.Outputs {
			e.str8(name)
			e.vals(vals)
		}
		e.u16(uint16(len(job.Feedbacks)))
		for name, v := range job.Feedbacks {
			e.str8(name)
			e.i64(v)
		}
	default:
		var fe *dp.FaultError
		if errors.As(job.Err, &fe) {
			sc.faults.Add(1)
			e.next(frameFault, sj.req)
			e.u32(sj.idx)
			e.u32(uint32(fe.Cycle))
			e.str8(fe.Op)
			e.str16(fe.Msg)
		} else {
			e.next(frameError, sj.req)
			e.u32(sj.idx)
			e.str16(job.Err.Error())
		}
	}
	e.finish()
	if sc.settle(sj.req) {
		e.next(frameDone, sj.req)
		e.finish()
	}
	sc.w.unlock(held)
	sj.runner = nil
	if sj.pooled() {
		sc.mu.Lock()
		sj.kern.free = append(sj.kern.free, sj)
		sc.mu.Unlock()
	}
}

// written is the writer's report on one flush: the streams it answered
// leave flight, and a failed Write closes the connection, which ends
// its reader.
func (sc *srvConn) written(streams int, err error) {
	if streams > 0 {
		sc.srv.endStream(streams)
	}
	if err != nil {
		sc.c.Close()
	}
}

// settle counts one answered stream of req and reports whether it was
// the last one owed, retiring the request.
func (sc *srvConn) settle(req uint32) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	st := sc.reqs[req]
	if st == nil {
		return false
	}
	st.remaining--
	if st.remaining != 0 {
		return false
	}
	delete(sc.reqs, req)
	*st = reqState{}
	sc.freeReqs = append(sc.freeReqs, st)
	return true
}

// writeError answers req with a request-level error, which aborts the
// request: its owed streams are dropped before the frame is sent, so no
// 'D' can follow it. Only the reader goroutine calls it.
func (sc *srvConn) writeError(req uint32, msg string) {
	sc.mu.Lock()
	delete(sc.reqs, req)
	sc.mu.Unlock()
	e := sc.w.lock()
	e.next(frameError, req)
	e.u32(streamNone)
	e.str16(msg)
	e.finish()
	sc.w.unlock(0)
}

// Balanced is the drain check: it waits up to timeout for the streams
// in flight to finish, then checks that every kernel pool got back each
// System it handed out (Gets == Puts + Rejected). It reports the
// streams still in flight at the timeout, or the first unbalanced pool
// in name order.
func (s *Server) Balanced(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for n := s.inflight.Load(); n != 0; n = s.inflight.Load() {
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: %d streams still in flight after %s", n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	for _, e := range s.sortedEntries() {
		if pool := e.pool.Load(); pool != nil {
			if st := pool.Stats(); st.Gets != st.Puts+st.Rejected {
				return fmt.Errorf("serve: pool %s unbalanced: gets=%d puts=%d rejected=%d",
					e.spec.Name, st.Gets, st.Puts, st.Rejected)
			}
		}
	}
	return nil
}

// sortedEntries snapshots the registry in name order.
func (s *Server) sortedEntries() []*kernelEntry {
	s.mu.Lock()
	entries := make([]*kernelEntry, 0, len(s.kernels))
	for _, e := range s.kernels {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].spec.Name < entries[j].spec.Name })
	return entries
}
