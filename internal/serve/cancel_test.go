package serve

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"roccc/internal/netlist"
)

// accumBatch builds n accum streams with distinct inputs.
func accumBatch(n int) []netlist.Job {
	jobs := make([]netlist.Job, n)
	for i := range jobs {
		in := make([]int64, 32)
		for j := range in {
			in[j] = int64(i + j)
		}
		jobs[i].Inputs = map[string][]int64{"A": in}
	}
	return jobs
}

// holdDispatcher resolves every kernel on a real server's registry,
// except that the first stream any resolved Runner runs signals started
// and then blocks until release closes — a request that holds its
// connection slot for exactly as long as the test wants.
type holdDispatcher struct {
	srv              *Server
	once             sync.Once
	started, release chan struct{}
}

func (d *holdDispatcher) Dispatch(kernel string) (Runner, error) {
	r, err := d.srv.dispatch(kernel)
	if err != nil {
		return nil, err
	}
	return heldRunner{Runner: r, d: d}, nil
}

// heldRunner is a Runner resolved through a holdDispatcher.
type heldRunner struct {
	Runner
	d *holdDispatcher
}

func (h heldRunner) RunStream(job *netlist.Job) error {
	h.d.once.Do(func() {
		close(h.d.started)
		<-h.d.release
	})
	return h.Runner.RunStream(job)
}

// TestRunContextSlotCancel cancels a request while it is still waiting
// for a connection slot: a single-slot pipelined connection is occupied
// by a request the server holds until the test releases it, so the
// second RunContext blocks on slot acquisition and must return the
// context error without corrupting the connection or stealing the slot.
func TestRunContextSlotCancel(t *testing.T) {
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
	go front.Serve(ln)
	released := false
	t.Cleanup(func() {
		if !released {
			close(hold.release)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		front.Shutdown(ctx)
		backend.Shutdown(ctx)
	})
	c, err := DialContext(context.Background(), ln.Addr().String(), WithPipelined(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	held := make(chan error, 1)
	go func() { held <- c.RunContext(context.Background(), "accum", accumBatch(1)) }()
	<-hold.started // the held request owns the only slot

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = c.RunContext(ctx, "accum", accumBatch(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slot-blocked RunContext = %v, want DeadlineExceeded", err)
	}

	close(hold.release)
	released = true
	if err := <-held; err != nil {
		t.Fatalf("request on the held slot failed: %v", err)
	}
	if !c.Healthy() {
		t.Fatal("connection poisoned after a slot-wait cancellation")
	}
	if err := c.Run("accum", accumBatch(2)); err != nil {
		t.Fatalf("follow-up request after cancellation: %v", err)
	}
	if err := backend.Balanced(30 * time.Second); err != nil {
		t.Error(err)
	}
}

// TestRunContextDeadlineMidFlight cancels a request that is already on
// the wire: a batch far too large for its deadline, on a Conn with four
// request slots and on one dialled with no options (one slot), which
// takes the same cancel path. The cancelled request must release its
// slot, the demux loop must stay healthy as the server's late frames
// for the dead request drain, and a follow-up request on the same
// connection must succeed with the pools balanced afterwards — the
// Gets == Puts + Rejected invariant.
func TestRunContextDeadlineMidFlight(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  []DialOption
		slots int
	}{{"pipelined", []DialOption{WithPipelined(4)}, 4}, {"no-options", nil, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, 2)
			c, err := dial(addr, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if cap(c.slots) != tc.slots {
				t.Fatalf("Conn has %d request slots, want %d", cap(c.slots), tc.slots)
			}
			if err := c.Run("accum", accumBatch(1)); err != nil {
				t.Fatal(err)
			}

			big := accumBatch(20000) // built first: the deadline must hit mid-request
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			err = c.RunContext(ctx, "accum", big)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("mid-flight RunContext = %v, want DeadlineExceeded", err)
			}
			if !c.Healthy() {
				t.Fatal("connection poisoned by a mid-flight cancellation")
			}
			if len(c.slots) != 0 {
				t.Fatal("the cancelled request kept its request slot")
			}

			// The demux loop must survive the dead request's late frames:
			// the follow-up runs on the same connection, interleaved with
			// them.
			follow := accumBatch(3)
			if err := c.RunContext(context.Background(), "accum", follow); err != nil {
				t.Fatalf("follow-up request on the same connection: %v", err)
			}
			for i, job := range follow {
				if job.Err != nil || job.Cycles == 0 {
					t.Fatalf("follow-up stream %d: err=%v cycles=%d", i, job.Err, job.Cycles)
				}
			}
			if !c.Healthy() {
				t.Fatal("connection unhealthy after the follow-up")
			}
			if err := srv.Balanced(30 * time.Second); err != nil {
				t.Error(err)
			}
		})
	}
}
