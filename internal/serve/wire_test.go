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
	var types []byte
	for len(b) >= 5 {
		n := int(binary.BigEndian.Uint32(b))
		types = append(types, b[4])
		b = b[min(len(b), 4+n):]
	}
	l.mu.Lock()
	l.writes = append(l.writes, types)
	l.mu.Unlock()
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

type loggedListener struct {
	net.Listener
	log *writeLog
}

func (l loggedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return loggedConn{Conn: c, log: l.log}, nil
}

// TestWriteCounts pins the batched wire path: a one-stream request
// costs exactly one client Write (Open and Stream together) and one
// server Write (the result and 'D' together), on a pipelined and on a
// serial Conn; a 3-stream request costs one server Write per stream,
// and its 'D' rides in the same Write as the last response.
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
	go srv.Serve(loggedListener{Listener: ln, log: &srvLog})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	for _, pipelined := range []bool{true, false} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			var cliLog writeLog
			cfg := dialConfig{version: ProtoV2, pipelined: pipelined}
			c, err := newConn(context.Background(), loggedConn{Conn: nc, log: &cliLog}, ln.Addr().String(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
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
			w := srvLog.take()
			if len(w) != 3 || string(w[0]) != "R" || string(w[1]) != "R" || string(w[2]) != "RD" {
				t.Errorf("3-stream request: server Writes carried %q, want R, R, then R+D in one Write", w)
			}
		})
	}
}

// TestServePooledInputsDoNotLeak: a kernel's pooled Systems are shared
// by every connection, so a stream that carries a short input array —
// or none — must compute exactly what a fresh System computes, not on
// data an earlier request from another connection left in the BRAM.
func TestServePooledInputsDoNotLeak(t *testing.T) {
	srv, addr := startServer(t, 1)
	dirty, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dirty.Close()
	clean, err := Dial(addr)
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
