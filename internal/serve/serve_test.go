package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
)

const firSource = `
int A[21];
int C[17];
void fir() {
	int i;
	for (i = 0; i < 17; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`

const accumSource = `
int A[32];
int sum;
void accum() {
	int i;
	sum = 0;
	for (i = 0; i < 32; i++) {
		sum = sum + A[i];
	}
}
`

const dividerSource = `
int A[24];
int B[24];
int Q[24];
void divide() {
	int i;
	for (i = 0; i < 24; i++) {
		Q[i] = A[i] / B[i];
	}
}
`

func testSpecs() []KernelSpec {
	return []KernelSpec{
		{Name: "fir", Source: firSource, Func: "fir", Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1}},
		{Name: "accum", Source: accumSource, Func: "accum", Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1}},
		{Name: "divide", Source: dividerSource, Func: "divide", Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1}},
	}
}

// startServer brings up a server with the test kernels on a loopback
// listener and tears it down with the test. The returned address is the
// listener's (not srv.Addr(), which only resolves once Serve runs).
func startServer(t *testing.T, workers int) (*Server, string) {
	t.Helper()
	srv := NewServer(workers)
	for _, spec := range testSpecs() {
		if err := srv.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

// dial opens a Conn to addr with opts.
func dial(addr string, opts ...DialOption) (*Conn, error) {
	return DialContext(context.Background(), addr, opts...)
}

func firStream(seed int64) map[string][]int64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]int64, 21)
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	return map[string][]int64{"A": in}
}

// refConfig is cfg on the reference execution path, the serial loop,
// that every served result must be bit-identical to.
func refConfig(cfg netlist.Config) netlist.Config {
	cfg.Serial = true
	return cfg
}

// serialRun runs one stream of spec through a private serial interp
// System (System.RunJob): the reference every served stream must match
// under netlist.DiffJob. A stream that faults comes back with its Err.
func serialRun(t *testing.T, spec KernelSpec, inputs map[string][]int64) *netlist.Job {
	t.Helper()
	res, err := core.CompileSource(spec.Source, spec.Func, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := netlist.NewSystem(res.Kernel, res.Datapath, refConfig(spec.Config))
	if err != nil {
		t.Fatal(err)
	}
	ref := &netlist.Job{Inputs: inputs}
	ref.Err = sys.RunJob(ref)
	return ref
}

// serialFIR is serialRun on the test FIR.
func serialFIR(t *testing.T, inputs map[string][]int64) *netlist.Job {
	t.Helper()
	return serialRun(t, testSpecs()[0], inputs)
}

// TestServeTCPRoundTrip: a TCP batch must return outputs and cycle
// counts bit-identical to serial System.Run, with responses routed to
// the right streams regardless of completion order.
func TestServeTCPRoundTrip(t *testing.T) {
	srv, addr := startServer(t, 4)
	_ = srv
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 12
	streams := make([]netlist.Job, n)
	for i := range streams {
		streams[i] = netlist.Job{Inputs: firStream(int64(i + 1))}
	}
	for round := 0; round < 3; round++ { // later rounds reuse response buffers
		if err := conn.Run("fir", streams); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range streams {
			if err := netlist.DiffJob(&streams[i], serialFIR(t, streams[i].Inputs)); err != nil {
				t.Fatalf("round %d stream %d: %v", round, i, err)
			}
		}
	}
}

// TestServeFeedbackKernel: an accumulator with no output arrays must
// surface its feedback latch over the wire.
func TestServeFeedbackKernel(t *testing.T) {
	srv, addr := startServer(t, 2)
	_ = srv
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := make([]int64, 32)
	var want int64
	for i := range in {
		in[i] = int64(i*11 - 99)
		want += in[i]
	}
	streams := []netlist.Job{{Inputs: map[string][]int64{"A": in}}}
	if err := conn.Run("accum", streams); err != nil {
		t.Fatal(err)
	}
	if got := streams[0].Feedbacks["sum"]; got != want {
		t.Fatalf("served sum = %d, want %d", got, want)
	}
}

// TestServeUnknownKernel: a request for an unregistered kernel is a
// request-level error naming the kernel, and the connection survives it.
func TestServeUnknownKernel(t *testing.T) {
	srv, addr := startServer(t, 1)
	_ = srv
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	streams := []netlist.Job{{Inputs: firStream(1)}}
	err = conn.Run("nope", streams)
	if err == nil || !strings.Contains(err.Error(), `unknown kernel "nope"`) {
		t.Fatalf("err = %v, want unknown-kernel request error", err)
	}
	// Same connection must still serve real requests.
	if err := conn.Run("fir", streams); err != nil {
		t.Fatalf("connection unusable after unknown-kernel error: %v", err)
	}
}

// TestServeNonStreamableKernel: a kernel that compiles but has no loop
// nest (combinational data path) fails at first use with a request
// error, not a hang or crash.
func TestServeNonStreamableKernel(t *testing.T) {
	srv, addr := startServer(t, 1)
	if err := srv.Register(KernelSpec{
		Name:   "comb",
		Source: "void comb(int8 x, int16* y) { *y = x * 3; }",
		Func:   "comb", Options: core.DefaultOptions(),
		Config: netlist.Config{BusElems: 1},
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = conn.Run("comb", []netlist.Job{{Inputs: map[string][]int64{}}})
	if err == nil || !strings.Contains(err.Error(), "no loop nest") {
		t.Fatalf("err = %v, want a no-loop-nest request error", err)
	}
}

// TestServeMalformedFrame: garbage framing must close the connection
// without taking the server down, and new connections keep working.
func TestServeMalformedFrame(t *testing.T) {
	srv, addr := startServer(t, 1)
	_ = srv

	cases := map[string][]byte{
		// Length prefix far beyond maxFrame.
		"oversized": binary.BigEndian.AppendUint32(nil, 1<<30),
		// Zero-length frame.
		"zero": binary.BigEndian.AppendUint32(nil, 0),
		// Valid length, truncated payload, then close.
		"truncated": append(binary.BigEndian.AppendUint32(nil, 64), 'O', 0, 0),
		// Complete frame with an unknown type byte.
		"unknown-type": append(binary.BigEndian.AppendUint32(nil, 5), 'Z', 0, 0, 0, 1),
		// An Open frame whose body is shorter than its fields claim.
		"short-open": append(binary.BigEndian.AppendUint32(nil, 7), 'O', 0, 0, 0, 1, 200, 'x'),
	}
	for name, raw := range cases {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := c.Write(raw); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		// Half-close: nothing more is coming, so a server waiting on the
		// rest of a truncated frame sees EOF now instead of blocking.
		c.(*net.TCPConn).CloseWrite()
		// The server must close the connection (possibly after a
		// best-effort error frame). Drain until EOF with a deadline.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 4096)
		for {
			if _, err := c.Read(buf); err != nil {
				break
			}
		}
		c.Close()
	}

	// Server still alive and serving.
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	streams := []netlist.Job{{Inputs: firStream(7)}}
	if err := conn.Run("fir", streams); err != nil {
		t.Fatalf("server unusable after malformed frames: %v", err)
	}
}

// TestServeDisconnectMidStream: a client that opens a request, delivers
// only part of it and vanishes must not leak pooled Systems — every Get
// is balanced by a Put/Reject once in-flight work drains, and the
// kernel keeps serving other clients.
func TestServeDisconnectMidStream(t *testing.T) {
	srv, addr := startServer(t, 2)

	// Prime the kernel so stats exist before the rude client.
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	streams := []netlist.Job{{Inputs: firStream(3)}}
	if err := conn.Run("fir", streams); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		var e encoder
		e.begin(frameOpen, 1)
		e.str8("fir")
		e.u32(4) // promise four streams...
		if _, err := c.Write(e.finish()); err != nil {
			t.Fatal(err)
		}
		e.begin(frameStream, 1)
		e.u32(0)
		e.u16(1)
		e.str8("A")
		e.vals(firStream(int64(i))["A"])
		if _, err := c.Write(e.finish()); err != nil {
			t.Fatal(err)
		}
		c.Close() // ...deliver one, hang up mid-request
	}

	if err := srv.Balanced(5 * time.Second); err != nil {
		t.Fatalf("after disconnects: %v", err)
	}
	if st := srv.Stats()["fir"]; st.Idle == 0 {
		t.Fatalf("pool has no idle Systems after drain: %+v", st)
	}

	// And the kernel still serves.
	conn2, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := conn2.Run("fir", streams); err != nil {
		t.Fatalf("server unusable after disconnects: %v", err)
	}
}

// TestServeFaultAbortCycle: a divide-by-zero on a valid iteration must
// arrive as a typed dp.FaultError whose abort cycle and message match a
// serial System.Run of the same stream exactly.
func TestServeFaultAbortCycle(t *testing.T) {
	_, addr := startServer(t, 2)

	a := make([]int64, 24)
	b := make([]int64, 24)
	for i := range a {
		a[i] = int64(i + 1)
		b[i] = 3
	}
	b[11] = 0 // valid iteration 11 divides by zero
	inputs := map[string][]int64{"A": a, "B": b}

	// Serial reference fault.
	divide := testSpecs()[2]
	want := serialRun(t, divide, inputs)
	if !errors.As(want.Err, new(*dp.FaultError)) {
		t.Fatalf("serial run did not raise a typed fault: %v", want.Err)
	}

	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A healthy stream alongside the faulting one: the batch must not
	// abort wholesale.
	ok := map[string][]int64{"A": a, "B": append([]int64(nil), b...)}
	ok["B"][11] = 5
	streams := []netlist.Job{{Inputs: inputs}, {Inputs: ok}}
	runErr := conn.Run("divide", streams)
	if runErr == nil {
		t.Fatal("faulting batch returned nil")
	}
	if !errors.As(streams[0].Err, new(*dp.FaultError)) {
		t.Fatalf("stream 0 error is %v, want a typed dp.FaultError", streams[0].Err)
	}
	if err := netlist.DiffJob(&streams[0], want); err != nil {
		t.Fatalf("stream 0: served %v", err)
	}
	if !errors.As(runErr, new(*dp.FaultError)) || !strings.Contains(runErr.Error(), "stream 0") {
		t.Fatalf("Run error %v does not wrap the stream-0 fault", runErr)
	}
	if err := netlist.DiffJob(&streams[1], serialRun(t, divide, ok)); err != nil {
		t.Fatalf("healthy stream alongside the fault: served %v", err)
	}
}

// TestServeRejectsLongInput: a stream whose input array is longer than
// the kernel's comes back with an error naming the array and both
// lengths, and the connection goes on serving the next request.
func TestServeRejectsLongInput(t *testing.T) {
	_, addr := startServer(t, 2)
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	long := firStream(1)
	long["A"] = append(long["A"], 7)
	jobs := []netlist.Job{{Inputs: long}}
	if err := conn.Run("fir", jobs); err == nil {
		t.Fatal("over-long input: Run returned nil")
	}
	if want := `input array "A" holds 21 elements, got 22`; jobs[0].Err == nil || !strings.Contains(jobs[0].Err.Error(), want) {
		t.Fatalf("over-long input: stream error %v, want one saying %q", jobs[0].Err, want)
	}
	next := []netlist.Job{{Inputs: firStream(2)}}
	if err := conn.Run("fir", next); err != nil {
		t.Fatalf("request after the rejected stream: %v", err)
	}
	if err := netlist.DiffJob(&next[0], serialFIR(t, firStream(2))); err != nil {
		t.Fatalf("request after the rejected stream: served %v", err)
	}
}

// TestServeLocalMatchesTCP: in-process Server.RunStream and the TCP
// client must produce identical results (same pool, same semantics, no
// wire).
func TestServeLocalMatchesTCP(t *testing.T) {
	srv, addr := startServer(t, 2)
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	mk := func() []netlist.Job {
		jobs := make([]netlist.Job, 6)
		for i := range jobs {
			jobs[i] = netlist.Job{Inputs: firStream(int64(100 + i))}
		}
		return jobs
	}
	viaTCP, viaLocal := mk(), mk()
	if err := conn.Run("fir", viaTCP); err != nil {
		t.Fatal(err)
	}
	for i := range viaLocal {
		if err := srv.RunStream("fir", &viaLocal[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range viaTCP {
		if err := netlist.DiffJob(&viaTCP[i], &viaLocal[i]); err != nil {
			t.Fatalf("stream %d: via TCP against via RunStream: %v", i, err)
		}
	}

	// RunStream must also report unknown kernels.
	if err := srv.RunStream("nope", &mk()[0]); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Fatalf("RunStream unknown-kernel err = %v", err)
	}
}

// TestServeGracefulShutdown: Shutdown refuses new requests, lets
// in-flight ones finish, and Serve returns nil; a client Conn whose
// connection it closed ends its goroutines on its own.
func TestServeGracefulShutdown(t *testing.T) {
	srv := NewServer(2)
	for _, spec := range testSpecs() {
		if err := srv.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	conn, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	streams := []netlist.Job{{Inputs: firStream(5)}}
	if err := conn.Run("fir", streams); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful Shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}

	// Shutdown closed the connection, so the Conn's reader ends, and
	// its writer with it, without a Close.
	select {
	case <-conn.readerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("the Conn's reader outlived its closed connection")
	}
	select {
	case <-conn.w.done:
	default:
		t.Fatal("the Conn's writer outlived its reader")
	}

	// Post-shutdown requests fail: connection refused or drain error.
	if c2, err := dial(ln.Addr().String()); err == nil {
		if err := c2.Run("fir", streams); err == nil {
			t.Fatal("request succeeded after Shutdown")
		}
		c2.Close()
	}
	if err := srv.RunStream("fir", &streams[0]); err == nil {
		t.Fatal("RunStream succeeded after Shutdown")
	}
}

// slowConn sleeps 100 ms before every Write.
type slowConn struct{ net.Conn }

func (c slowConn) Write(b []byte) (int, error) {
	time.Sleep(100 * time.Millisecond)
	return c.Conn.Write(b)
}

// TestServeShutdownDeliversQueuedAnswers: a request in flight when
// Shutdown starts still receives its result and its 'D', although every
// server Write takes 100 ms. The drain waits until the answer is
// written, not just computed or queued, before it closes the
// connection.
func TestServeShutdownDeliversQueuedAnswers(t *testing.T) {
	backend := NewServer(2)
	for _, spec := range testSpecs() {
		if err := backend.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	hold := &holdDispatcher{srv: backend, started: make(chan struct{}), release: make(chan struct{})}
	front := NewServer(2)
	front.SetDispatcher(hold)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go front.Serve(wrapListener{ln, func(c net.Conn) net.Conn { return slowConn{c} }})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		backend.Shutdown(ctx)
	})
	c, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	jobs := []netlist.Job{{Inputs: firStream(9)}}
	ran := make(chan error, 1)
	go func() { ran <- c.Run("fir", jobs) }()
	<-hold.started // the stream is in flight
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- front.Shutdown(ctx)
	}()
	for !front.closing.Load() {
		time.Sleep(time.Millisecond)
	}
	close(hold.release)
	if err := <-ran; err != nil {
		t.Fatalf("request in flight at Shutdown: %v", err)
	}
	if err := netlist.DiffJob(&jobs[0], serialFIR(t, firStream(9))); err != nil {
		t.Fatalf("request in flight at Shutdown: served %v", err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestServeNeverReadingClient: a raw client sends the hello, then fir
// requests without ever reading an answer. The answers fill the socket
// buffers and then the writer's pending bound, where the executors wait
// with theirs unsent, and the reader, out of executor slots, stops
// reading the socket, so the client's own Writes stall. Shutdown with a short deadline returns the
// context's error and closes the connection, which releases every
// waiting executor, and the pools balance.
func TestServeNeverReadingClient(t *testing.T) {
	const workers = 2
	srv, addr := startServer(t, workers)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var sent atomic.Int64
	wrote := make(chan error, 1)
	go func() {
		var e encoder
		e.begin(frameHello, 0)
		e.u16(ProtoV2)
		if _, err := nc.Write(e.finish()); err != nil {
			wrote <- err
			return
		}
		in := firStream(1)["A"]
		for req := uint32(1); ; req++ {
			e.begin(frameOpen, req)
			e.str8("fir")
			e.u32(1)
			e.finish()
			e.next(frameStream, req)
			e.u32(0)
			e.u16(1)
			e.str8("A")
			e.vals(in)
			if _, err := nc.Write(e.finish()); err != nil {
				wrote <- err
				return
			}
			sent.Add(1)
		}
	}()

	// Stalled: no request sent for a second, every executor slot taken
	// and at least that many streams in flight.
	deadline := time.Now().Add(60 * time.Second)
	for last, since := int64(-1), time.Now(); ; time.Sleep(20 * time.Millisecond) {
		if n := sent.Load(); n != last {
			last, since = n, time.Now()
		} else if sc := onlyConn(t, srv); time.Since(since) > time.Second &&
			len(sc.sem) == cap(sc.sem) && srv.Metrics().InFlight >= workers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the never-reading client's requests did not stall the connection (%d sent)", sent.Load())
		}
	}
	w := &onlyConn(t, srv).w
	w.mu.Lock()
	queued := len(w.pending.buf)
	w.mu.Unlock()
	if queued < maxPending {
		t.Fatalf("stalled with %d bytes queued for the writer, want the executors waiting at the %d-byte bound", queued, maxPending)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded while the answers cannot be written", err)
	}
	select {
	case <-wrote: // the server closed the connection under the blocked Write
	case <-time.After(10 * time.Second):
		t.Fatal("the client's Write still blocks after Shutdown")
	}
	if err := srv.Balanced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestServeBackendSelection: the server runs each registered kernel on
// the path its KernelSpec.Config selects — the default schedule walk or
// the Serial reference loop — and both serve outputs, cycle counts and
// feedback values bit-identical to a private serial System. A Serial
// System handed to a default kernel's pool is rejected.
func TestServeBackendSelection(t *testing.T) {
	srv := NewServer(2)
	ain := make([]int64, 32)
	for i := range ain {
		ain[i] = int64(i*13 - 200)
	}
	var specs []KernelSpec
	inputs := map[string]map[string][]int64{}
	for _, path := range []struct {
		suffix string
		serial bool
	}{{"", false}, {"-serial", true}} {
		cfg := netlist.Config{BusElems: 1, Serial: path.serial}
		for _, spec := range []KernelSpec{
			{Name: "fir" + path.suffix, Source: firSource, Func: "fir", Options: core.DefaultOptions(), Config: cfg},
			{Name: "accum" + path.suffix, Source: accumSource, Func: "accum", Options: core.DefaultOptions(), Config: cfg},
		} {
			if err := srv.Register(spec); err != nil {
				t.Fatal(err)
			}
			specs = append(specs, spec)
		}
		inputs["fir"+path.suffix] = firStream(97)
		inputs["accum"+path.suffix] = map[string][]int64{"A": ain}
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	for _, spec := range specs {
		job := netlist.Job{Inputs: inputs[spec.Name]}
		if err := srv.RunStream(spec.Name, &job); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := netlist.DiffJob(&job, serialRun(t, spec, job.Inputs)); err != nil {
			t.Fatalf("%s: served %v", spec.Name, err)
		}
	}

	e, err := srv.entry("fir")
	if err != nil {
		t.Fatal(err)
	}
	pool := e.pool.Load()
	if pool == nil {
		t.Fatal("fir is not resident after serving")
	}
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := netlist.NewSystem(res.Kernel, res.Datapath, refConfig(netlist.Config{BusElems: 1}))
	if err != nil {
		t.Fatal(err)
	}
	before := pool.Stats()
	pool.Put(foreign)
	if after := pool.Stats(); after.Rejected != before.Rejected+1 || after.Puts != before.Puts {
		t.Fatalf("a serial System was admitted into fir's default pool: %+v -> %+v", before, after)
	}
}
