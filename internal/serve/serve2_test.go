package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
)

// TestProtoV1Compat pins the v1 byte stream: the request is assembled
// by hand with encoding/binary — NOT the package encoder — and the
// response parsed the same way, so any change to the wire layout breaks
// this test even if encoder and decoder change in lockstep. A v1 client
// never sends a hello, so this also proves the v2 server serves
// hello-less connections unchanged.
func TestProtoV1Compat(t *testing.T) {
	_, addr := startServer(t, 2)

	in := make([]int64, 32)
	var wantSum int64
	for i := range in {
		in[i] = int64(i*7 - 100)
		wantSum += in[i]
	}
	// Serial reference for the cycle count.
	ref := serialRun(t, testSpecs()[1], map[string][]int64{"A": in})
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	wantCycles := uint64(ref.Cycles)

	// The pinned v1 request: Open("accum", 1 stream) + Stream(0, A=in).
	const req = 7
	open := []byte{frameOpen}
	open = binary.BigEndian.AppendUint32(open, req)
	open = append(open, byte(len("accum")))
	open = append(open, "accum"...)
	open = binary.BigEndian.AppendUint32(open, 1)

	stream := []byte{frameStream}
	stream = binary.BigEndian.AppendUint32(stream, req)
	stream = binary.BigEndian.AppendUint32(stream, 0) // stream idx
	stream = binary.BigEndian.AppendUint16(stream, 1) // one input array
	stream = append(stream, 1, 'A')
	stream = binary.BigEndian.AppendUint32(stream, uint32(len(in)))
	for _, v := range in {
		stream = binary.BigEndian.AppendUint64(stream, uint64(v))
	}

	var raw []byte
	for _, body := range [][]byte{open, stream} {
		raw = binary.BigEndian.AppendUint32(raw, uint32(len(body)))
		raw = append(raw, body...)
	}

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Write(raw); err != nil {
		t.Fatal(err)
	}

	readRaw := func() []byte {
		t.Helper()
		var hdr [4]byte
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			t.Fatal(err)
		}
		p := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(c, p); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Result frame: 'R', req, idx=0, u64 cycles, u16 0 outputs,
	// u16 1 feedback, str8 "sum", i64 value — exactly 33 bytes.
	rp := readRaw()
	if len(rp) != 33 || rp[0] != frameResult {
		t.Fatalf("result frame = % x (len %d)", rp, len(rp))
	}
	if got := binary.BigEndian.Uint32(rp[1:5]); got != req {
		t.Fatalf("result request id = %d, want %d", got, req)
	}
	if got := binary.BigEndian.Uint32(rp[5:9]); got != 0 {
		t.Fatalf("result stream idx = %d, want 0", got)
	}
	if got := binary.BigEndian.Uint64(rp[9:17]); got != wantCycles {
		t.Fatalf("served %d cycles, serial %d", got, wantCycles)
	}
	if nouts := binary.BigEndian.Uint16(rp[17:19]); nouts != 0 {
		t.Fatalf("%d output arrays, want 0", nouts)
	}
	if nfb := binary.BigEndian.Uint16(rp[19:21]); nfb != 1 {
		t.Fatalf("%d feedbacks, want 1", nfb)
	}
	if rp[21] != 3 || string(rp[22:25]) != "sum" {
		t.Fatalf("feedback name bytes = % x", rp[21:25])
	}
	if got := int64(binary.BigEndian.Uint64(rp[25:33])); got != wantSum {
		t.Fatalf("served sum = %d, serial %d", got, wantSum)
	}

	// Done frame: 'D', req — exactly 5 bytes.
	dpf := readRaw()
	if len(dpf) != 5 || dpf[0] != frameDone || binary.BigEndian.Uint32(dpf[1:5]) != req {
		t.Fatalf("done frame = % x", dpf)
	}
}

// TestDialPipelinedV1Server: every Conn speaks v2, so against a server
// that does not, a dial fails with an error telling the caller what
// happened — never hangs, never falls back silently to v1 framing. That
// holds for a dial with no options (one request slot) as for a
// pipelined one.
func TestDialPipelinedV1Server(t *testing.T) {
	// A v1 server answers the unknown 'V' frame with a request-level
	// error and closes; a misconfigured v2 server could also answer the
	// hello with a downgraded version. Both must refuse cleanly.
	fake := func(t *testing.T, respond func(c net.Conn, req uint32)) string {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				payload, err := readFrame(c, nil)
				d := decoder{b: payload}
				if err == nil && d.u8() == frameHello {
					respond(c, d.u32())
				}
				c.Close()
			}
		}()
		return ln.Addr().String()
	}
	dials := []struct {
		name string
		opts []DialOption
	}{{"no options", nil}, {"pipelined", []DialOption{WithPipelined(0)}}}

	t.Run("v1-error-close", func(t *testing.T) {
		addr := fake(t, func(c net.Conn, req uint32) {
			var e encoder
			e.begin(frameError, req)
			e.u32(streamNone)
			e.str16(`serve: unexpected frame type 'V'`)
			c.Write(e.finish())
		})
		for _, dl := range dials {
			c, err := dial(addr, dl.opts...)
			if err == nil {
				c.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "protocol v1") || !strings.Contains(err.Error(), "unexpected frame type 'V'") {
				t.Fatalf("%s: err = %v, want a protocol-v1 refusal quoting the server", dl.name, err)
			}
		}
	})
	t.Run("downgraded-hello", func(t *testing.T) {
		addr := fake(t, func(c net.Conn, req uint32) {
			var e encoder
			e.begin(frameHello, req)
			e.u16(ProtoV1)
			c.Write(e.finish())
		})
		for _, dl := range dials {
			c, err := dial(addr, dl.opts...)
			if err == nil {
				c.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "negotiated protocol v1") {
				t.Fatalf("%s: err = %v, want a negotiated-v1 refusal", dl.name, err)
			}
		}
	})
}

// TestServePipelinedConcurrent: many goroutines share ONE pipelined
// connection — mixed kernels, a guaranteed fault, keepalives — and every
// response must land on the request that asked for it, bit-identical to
// the serial ground truth. A request-level failure (unknown kernel) must
// fail only its own Run, leaving the connection healthy.
func TestServePipelinedConcurrent(t *testing.T) {
	_, addr := startServer(t, 4)
	conn, err := dial(addr, WithPipelined(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Serial ground truth, computed once.
	refs := map[int64]*netlist.Job{}
	for seed := int64(1); seed <= 6; seed++ {
		refs[seed] = serialFIR(t, firStream(seed))
	}
	accumIn := make([]int64, 32)
	for i := range accumIn {
		accumIn[i] = int64(i*13 - 170)
	}
	accumRef := serialRun(t, testSpecs()[1], map[string][]int64{"A": accumIn})
	divA := make([]int64, 24)
	divB := make([]int64, 24)
	for i := range divA {
		divA[i] = int64(i + 2)
		divB[i] = 4
	}
	divB[9] = 0
	divRef := serialRun(t, testSpecs()[2], map[string][]int64{"A": divA, "B": divB})
	if !errors.As(divRef.Err, new(*dp.FaultError)) {
		t.Fatalf("serial divide did not fault: %v", divRef.Err)
	}

	const goroutines = 8
	const iters = 6
	errCh := make(chan error, goroutines)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			jobs := make([]netlist.Job, 3)
			seeds := make([]int64, 3)
			for it := 0; it < iters; it++ {
				for i := range jobs {
					seeds[i] = int64((g+it+i)%6) + 1
					jobs[i] = netlist.Job{Inputs: firStream(seeds[i]),
						Outputs: jobs[i].Outputs, Feedbacks: jobs[i].Feedbacks}
				}
				if err := conn.Run("fir", jobs); err != nil {
					fail(err)
					return
				}
				for i := range jobs {
					if err := netlist.DiffJob(&jobs[i], refs[seeds[i]]); err != nil {
						fail(fmt.Errorf("fir cross-wired under pipelining: %w", err))
						return
					}
				}
				switch g % 3 {
				case 0:
					a := []netlist.Job{{Inputs: map[string][]int64{"A": accumIn}}}
					if err := conn.Run("accum", a); err != nil {
						fail(err)
						return
					}
					if err := netlist.DiffJob(&a[0], accumRef); err != nil {
						fail(fmt.Errorf("accum cross-wired under pipelining: %w", err))
						return
					}
				case 1:
					d := []netlist.Job{{Inputs: map[string][]int64{"A": divA, "B": divB}}}
					if err := conn.Run("divide", d); err == nil {
						fail(errors.New("guaranteed fault returned nil"))
						return
					}
					if err := netlist.DiffJob(&d[0], divRef); err != nil {
						fail(fmt.Errorf("served fault does not match serial fault: %w", err))
						return
					}
				case 2:
					if it%2 == 0 {
						if err := conn.Ping(); err != nil {
							fail(err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Request-level failure only fails its own Run.
	if err := conn.Run("nope", []netlist.Job{{Inputs: firStream(1)}}); err == nil ||
		!strings.Contains(err.Error(), `unknown kernel "nope"`) {
		t.Fatalf("unknown-kernel err = %v", err)
	}
	if !conn.Healthy() {
		t.Fatal("connection poisoned by a request-level error")
	}
	final := []netlist.Job{{Inputs: firStream(2)}}
	if err := conn.Run("fir", final); err != nil {
		t.Fatalf("connection unusable after request error: %v", err)
	}
	if err := netlist.DiffJob(&final[0], refs[2]); err != nil {
		t.Fatalf("post-error request mismatched serial reference: %v", err)
	}
}

// TestServePing: the keepalive round-trips on a pipelined conn and on
// one dialled with no options.
func TestServePing(t *testing.T) {
	_, addr := startServer(t, 1)
	for _, opts := range [][]DialOption{{WithPipelined(0)}, nil} {
		c, err := dial(addr, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 3; i++ {
			if err := c.Ping(); err != nil {
				t.Fatalf("%d options, ping %d: %v", len(opts), i, err)
			}
		}
	}
}

// TestServeMetricsEndpoint is the observability acceptance test: the
// HTTP endpoint's JSON must decode back into the Metrics shape and
// report, for every kernel on either dispatch path, whether the
// feedback cone is closed-form — verified against an independently
// built System with the same config.
func TestServeMetricsEndpoint(t *testing.T) {
	srv := NewServer(2)
	type probe struct {
		source, fn string
		cfg        netlist.Config
	}
	probes := map[string]probe{}
	for _, path := range []struct {
		suffix string
		serial bool
	}{{"", false}, {"-serial", true}} {
		cfg := netlist.Config{BusElems: 1, Serial: path.serial}
		for _, k := range []struct{ name, source, fn string }{
			{"fir" + path.suffix, firSource, "fir"},
			{"accum" + path.suffix, accumSource, "accum"},
		} {
			if err := srv.Register(KernelSpec{Name: k.name, Source: k.source, Func: k.fn,
				Options: core.DefaultOptions(), Config: cfg}); err != nil {
				t.Fatal(err)
			}
			probes[k.name] = probe{k.source, k.fn, cfg}
		}
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	ain := make([]int64, 32)
	for name := range probes {
		in := firStream(3)
		if strings.HasPrefix(name, "accum") {
			in = map[string][]int64{"A": ain}
		}
		if err := srv.RunStream(name, &netlist.Job{Inputs: in}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	hs := httptest.NewServer(FleetMetricsHandler(func() any { return srv.Metrics() }))
	defer hs.Close()
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}

	if m.Proto != ProtoV2 || m.Workers != 2 || m.Draining {
		t.Fatalf("metrics header = %+v", m)
	}
	if m.Served != int64(len(probes)) {
		t.Fatalf("served = %d, want %d", m.Served, len(probes))
	}
	if len(m.Kernels) != len(probes) {
		t.Fatalf("%d kernels in metrics, want %d", len(m.Kernels), len(probes))
	}
	if !sort.SliceIsSorted(m.Kernels, func(i, j int) bool {
		return m.Kernels[i].Kernel < m.Kernels[j].Kernel
	}) {
		t.Fatal("kernel infos not sorted by name")
	}
	for _, info := range m.Kernels {
		p := probes[info.Kernel]
		res, err := core.CompileSource(p.source, p.fn, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sys, err := netlist.NewSystem(res.Kernel, res.Datapath, p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Compiled || !info.Resident {
			t.Errorf("%s: compiled=%v resident=%v after serving", info.Kernel, info.Compiled, info.Resident)
		}
		if want := sys.HasClosedFormCone(); info.ClosedFormCone != want {
			t.Errorf("%s: closed_form_cone %v, independent System says %v", info.Kernel, info.ClosedFormCone, want)
		}
		if info.Opens != 1 || info.Streams != 1 {
			t.Errorf("%s: opens=%d streams=%d, want 1/1", info.Kernel, info.Opens, info.Streams)
		}
		if info.Pool == nil || info.Pool.Gets == 0 || info.Pool.Gets != info.Pool.Puts+info.Pool.Rejected {
			t.Errorf("%s: pool stats missing or unbalanced: %+v", info.Kernel, info.Pool)
		}
	}
	if len(m.Conns) != 0 {
		t.Fatalf("%d conns reported with no TCP clients", len(m.Conns))
	}
}
