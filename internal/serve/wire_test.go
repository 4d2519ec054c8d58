package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"roccc/internal/netlist"
)

// writeLog is a net.Conn wrapper's record of every Write: the frame
// types each Write carried, in order.
type writeLog struct {
	mu     sync.Mutex
	writes [][]byte
}

func (l *writeLog) record(b []byte) {
	types := frameTypes(b)
	l.mu.Lock()
	l.writes = append(l.writes, types)
	l.mu.Unlock()
}

// frameTypes returns the type of each whole frame in b, in order.
func frameTypes(b []byte) []byte {
	var types []byte
	for len(b) >= 5 {
		n := int(binary.BigEndian.Uint32(b))
		types = append(types, b[4])
		b = b[min(len(b), 4+n):]
	}
	return types
}

// take returns the Writes recorded so far and starts a new record.
func (l *writeLog) take() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.writes
	l.writes = nil
	return w
}

type loggedConn struct {
	net.Conn
	log *writeLog
}

func (c loggedConn) Write(b []byte) (int, error) {
	c.log.record(b)
	return c.Conn.Write(b)
}

// wrapListener wraps every connection it accepts.
type wrapListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l wrapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// TestWriteCounts pins the batched wire path, on a Conn with unbounded
// request slots and on one with a single slot: the dial writes the
// hello, which the server answers in one Write; a one-stream request
// costs exactly one client Write (Open and Stream together) and one
// server Write (the result and 'D' together); a 3-stream request's
// answers leave in at most 3 server Writes, its 'D' after all three.
func TestWriteCounts(t *testing.T) {
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
	var srvLog writeLog
	go srv.Serve(wrapListener{ln, func(c net.Conn) net.Conn { return loggedConn{Conn: c, log: &srvLog} }})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	for _, slots := range []int{0, 1} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			var cliLog writeLog
			c, err := newConn(context.Background(), loggedConn{Conn: nc, log: &cliLog}, ln.Addr().String(), dialConfig{slots: slots})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if w := cliLog.take(); len(w) != 1 || string(w[0]) != "V" {
				t.Errorf("dial: client Writes carried %q, want one Write of the hello", w)
			}
			if w := srvLog.take(); len(w) != 1 || string(w[0]) != "V" {
				t.Errorf("dial: server Writes carried %q, want one Write of the hello", w)
			}
			if err := c.Run("fir", []netlist.Job{{Inputs: firStream(1)}}); err != nil {
				t.Fatal(err) // warm-up: compiles the kernel, sizes the buffers
			}
			cliLog.take()
			srvLog.take()

			if err := c.Run("fir", []netlist.Job{{Inputs: firStream(2)}}); err != nil {
				t.Fatal(err)
			}
			if w := cliLog.take(); len(w) != 1 || string(w[0]) != "OS" {
				t.Errorf("one-stream request: client Writes carried %q, want one Write of Open+Stream", w)
			}
			if w := srvLog.take(); len(w) != 1 || string(w[0]) != "RD" {
				t.Errorf("one-stream request: server Writes carried %q, want one Write of Result+Done", w)
			}

			if err := c.Run("fir", []netlist.Job{{Inputs: firStream(3)}, {Inputs: firStream(4)}, {Inputs: firStream(5)}}); err != nil {
				t.Fatal(err)
			}
			if w := cliLog.take(); len(w) != 1 || string(w[0]) != "OSSS" {
				t.Errorf("3-stream request: client Writes carried %q, want one Write of Open+3 Streams", w)
			}
			if w := srvLog.take(); len(w) > 3 || string(slices.Concat(w...)) != "RRRD" {
				t.Errorf("3-stream request: server Writes carried %q, want R, R, R, then D in at most 3 Writes", w)
			}
		})
	}
}

// gate holds a connection's first Write after arm: that Write closes
// held, then waits until release closes.
type gate struct {
	mu            sync.Mutex
	armed         bool
	held, release chan struct{}
}

func newGate() *gate {
	return &gate{held: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

type gatedConn struct {
	net.Conn
	g *gate
}

func (c gatedConn) Write(b []byte) (int, error) {
	c.g.mu.Lock()
	armed := c.g.armed
	c.g.armed = false
	c.g.mu.Unlock()
	if armed {
		close(c.g.held)
		<-c.g.release
	}
	return c.Conn.Write(b)
}

// waitQueued waits until w's pending buffer holds frames of the types
// in want, in order.
func waitQueued(t *testing.T, w *writer, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		w.mu.Lock()
		got := string(frameTypes(w.pending.buf))
		w.mu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer's pending frames %q, want %q", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// onlyConn returns the server side of the server's one connection.
func onlyConn(t *testing.T, srv *Server) *srvConn {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.conns) != 1 {
		t.Fatalf("server has %d connections, want 1", len(srv.conns))
	}
	for _, sc := range srv.conns {
		return sc
	}
	return nil
}

// TestWriteCoalescing pins that what queues while a connection's writer
// is busy leaves in its next Write, on both ends. A gated net.Conn holds
// the writer's Write of one answered request; a 3-stream request's three
// answers and its 'D' (server), or three more concurrent Runs on a
// pipelined Conn (client), queue meanwhile, and all of them must leave
// in the one Write after it.
func TestWriteCoalescing(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		srv := NewServer(4)
		for _, spec := range testSpecs() {
			if err := srv.Register(spec); err != nil {
				t.Fatal(err)
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		g := newGate()
		var srvLog writeLog
		go srv.Serve(wrapListener{ln, func(c net.Conn) net.Conn {
			return gatedConn{Conn: loggedConn{Conn: c, log: &srvLog}, g: g}
		}})
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		c, err := dial(ln.Addr().String(), WithPipelined(0))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Run("fir", []netlist.Job{{Inputs: firStream(1)}}); err != nil {
			t.Fatal(err)
		}
		srvLog.take()

		g.arm()
		ran := make(chan error, 2)
		go func() { ran <- c.Run("fir", []netlist.Job{{Inputs: firStream(2)}}) }()
		<-g.held
		three := []netlist.Job{{Inputs: firStream(3)}, {Inputs: firStream(4)}, {Inputs: firStream(5)}}
		go func() { ran <- c.Run("fir", three) }()
		waitQueued(t, &onlyConn(t, srv).w, "RRRD")
		close(g.release)
		for range 2 {
			if err := <-ran; err != nil {
				t.Fatal(err)
			}
		}
		if w := srvLog.take(); len(w) != 2 || string(w[0]) != "RD" || string(w[1]) != "RRRD" {
			t.Errorf("server Writes carried %q, want RD (held), then RRRD in one Write", w)
		}
		for i := range three {
			if err := netlist.DiffJob(&three[i], serialFIR(t, three[i].Inputs)); err != nil {
				t.Errorf("stream %d: %v", i, err)
			}
		}
	})
	t.Run("client", func(t *testing.T) {
		_, addr := startServer(t, 4)
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		g := newGate()
		var cliLog writeLog
		c, err := newConn(context.Background(), gatedConn{Conn: loggedConn{Conn: nc, log: &cliLog}, g: g}, addr, dialConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Run("fir", []netlist.Job{{Inputs: firStream(1)}}); err != nil {
			t.Fatal(err)
		}
		cliLog.take()

		g.arm()
		jobs := make([][]netlist.Job, 4)
		ran := make(chan error, len(jobs))
		for i := range jobs {
			jobs[i] = []netlist.Job{{Inputs: firStream(int64(i + 2))}}
			go func() { ran <- c.Run("fir", jobs[i]) }()
			if i == 0 {
				<-g.held
			}
		}
		waitQueued(t, &c.w, "OSOSOS")
		close(g.release)
		for range jobs {
			if err := <-ran; err != nil {
				t.Fatal(err)
			}
		}
		if w := cliLog.take(); len(w) != 2 || string(w[0]) != "OS" || string(w[1]) != "OSOSOS" {
			t.Errorf("client Writes carried %q, want OS (held), then OSOSOS in one Write", w)
		}
		for i := range jobs {
			if err := netlist.DiffJob(&jobs[i][0], serialFIR(t, jobs[i][0].Inputs)); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}
	})
}

// TestServePooledInputsDoNotLeak: a kernel's pooled Systems are shared
// by every connection, so a stream that carries a short input array —
// or none — must compute exactly what a fresh System computes, not on
// data an earlier request from another connection left in the BRAM.
func TestServePooledInputsDoNotLeak(t *testing.T) {
	srv, addr := startServer(t, 1)
	dirty, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dirty.Close()
	clean, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	full := make([]int64, 21)
	for i := range full {
		full[i] = 1000
	}
	for _, inputs := range []map[string][]int64{{"A": {1}}, nil} {
		if err := dirty.Run("fir", []netlist.Job{{Inputs: map[string][]int64{"A": full}}}); err != nil {
			t.Fatal(err)
		}
		jobs := []netlist.Job{{Inputs: inputs}}
		if err := clean.Run("fir", jobs); err != nil {
			t.Fatal(err)
		}
		if err := netlist.DiffJob(&jobs[0], serialFIR(t, inputs)); err != nil {
			t.Errorf("A=%v: served against a fresh serial System: %v", inputs["A"], err)
		}
	}
	if st := srv.Stats()["fir"]; st.Built != 1 {
		t.Fatalf("pool built %d Systems; the test needs both connections on one", st.Built)
	}
}

// streamFrame is the v2 Stream frame payload for inputs, in name order.
func streamFrame(idx uint32, inputs map[string][]int64) []byte {
	var e encoder
	e.begin(frameStream, 7)
	e.u32(idx)
	e.u16(uint16(len(inputs)))
	for _, name := range slices.Sorted(maps.Keys(inputs)) {
		e.str8(name)
		e.vals(inputs[name])
	}
	return e.finish()[4:]
}

// resultFrame is the v2 Result frame payload, outputs and feedbacks in
// name order.
func resultFrame(cycles uint64, outs map[string][]int64, fbs map[string]int64) []byte {
	var e encoder
	e.begin(frameResult, 7)
	e.u32(0)
	e.u64(cycles)
	e.u16(uint16(len(outs)))
	for _, name := range slices.Sorted(maps.Keys(outs)) {
		e.str8(name)
		e.vals(outs[name])
	}
	e.u16(uint16(len(fbs)))
	for _, name := range slices.Sorted(maps.Keys(fbs)) {
		e.str8(name)
		e.i64(fbs[name])
	}
	return e.finish()[4:]
}

// v1CompatStream is TestProtoV1Compat's pinned Stream frame payload.
func v1CompatStream() []byte {
	in := make([]int64, 32)
	for i := range in {
		in[i] = int64(i*7 - 100)
	}
	return streamFrame(0, map[string][]int64{"A": in})
}

// decodeStream decodes a Stream frame payload the way the server's
// reader does, into sj.
func decodeStream(sj *streamJob, nm *names, payload []byte) error {
	d := decoder{b: payload}
	d.u8()
	d.u32()
	d.u32()
	sj.decode(&d, nm)
	if d.err != nil {
		return d.err
	}
	if d.remaining() {
		return fmt.Errorf("%d bytes left", len(d.b)-d.off)
	}
	return nil
}

// FuzzStreamDecode: the server decodes every Stream frame into a pooled
// Job. Decoding frame b into a Job that already holds frame a's decode
// must equal decoding b into a fresh Job — the same array names, values
// and lengths, or the same malformed error.
func FuzzStreamDecode(f *testing.F) {
	compat := v1CompatStream()
	two := streamFrame(1, map[string][]int64{"A": {1, -2, 3}, "B": {4, 5}})
	f.Add(compat, two)
	f.Add(two, compat)
	f.Add(two, streamFrame(0, map[string][]int64{"B": {9}}))
	f.Add(compat, streamFrame(2, nil))
	f.Add(two, two[:len(two)-3])
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var reused streamJob
		var nm names
		decodeStream(&reused, &nm, a)
		gotErr := decodeStream(&reused, &nm, b)
		var fresh streamJob
		wantErr := decodeStream(&fresh, &names{}, b)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("reused decode error %v, fresh decode error %v", gotErr, wantErr)
		}
		if wantErr == nil && !maps.EqualFunc(reused.job.Inputs, fresh.job.Inputs, slices.Equal[[]int64]) {
			t.Fatalf("reused decode %v, fresh decode %v", reused.job.Inputs, fresh.job.Inputs)
		}
	})
}

// decodeResult decodes a Result frame payload the way a Conn's reader
// does, into job.
func decodeResult(rd *resultDecoder, job *netlist.Job, payload []byte) error {
	d := decoder{b: payload}
	d.u8()
	d.u32()
	d.u32()
	return rd.decode(&d, job)
}

// FuzzResultDecode: a Conn decodes results into the caller's Jobs,
// which callers recycle. Decoding frame b into a Job that already holds
// frame a's decode must equal decoding b into a fresh Job — the same
// outputs, feedbacks and cycle count, or the same malformed error.
func FuzzResultDecode(f *testing.F) {
	// TestProtoV1Compat's 33-byte accum result: no outputs, one feedback.
	compat := resultFrame(161, nil, map[string]int64{"sum": 3136})
	fir := resultFrame(40, map[string][]int64{"C": {1, 2, 3, 4}}, nil)
	two := resultFrame(99, map[string][]int64{"C": {7}, "Q": {8, 9}}, map[string]int64{"acc": -1, "sum": 5})
	f.Add(compat, fir)
	f.Add(fir, compat)
	f.Add(two, fir)
	f.Add(fir, two)
	f.Add(two, two[:len(two)-5])
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var rd resultDecoder
		var reused netlist.Job
		decodeResult(&rd, &reused, a)
		gotErr := decodeResult(&rd, &reused, b)
		var fresh netlist.Job
		wantErr := decodeResult(&resultDecoder{}, &fresh, b)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("reused decode error %v, fresh decode error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if err := netlist.DiffJob(&reused, &fresh); err != nil {
			t.Fatalf("reused decode against fresh decode: %v", err)
		}
	})
}
