package load

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"roccc/internal/fleet"
	"roccc/internal/serve"
)

// LocalFleet is a self-hosted serving stack for the harness: the
// in-process fleet (fleet.Local: a front server, a router and worker
// shards) served on a loopback TCP listener with a /metrics endpoint —
// the topology `rocccserve -shards N -metrics :p` runs, stood up
// in-process so `rocccload -local` and the tests need no external
// server. Balanced, promoted from fleet.Local, is the no-leak check
// after a storm that included rude disconnects.
type LocalFleet struct {
	*fleet.Local
	Addr       string
	MetricsURL string

	msrv *http.Server
}

// StartLocalFleet stands up shards in-process worker servers behind a
// router (slots bounds each shard's concurrent streams — size it low to
// make shedding reachable at modest rates), registers every spec on
// every shard, and serves TCP + /metrics on loopback.
func StartLocalFleet(shards, slots int, specs []serve.KernelSpec) (*LocalFleet, error) {
	if shards < 2 {
		return nil, fmt.Errorf("load: a local fleet needs at least 2 shards (got %d) — shedding is the router's job", shards)
	}
	if slots <= 0 {
		return nil, fmt.Errorf("load: shard slot budget must be positive (got %d)", slots)
	}
	// The front's per-connection executor must be wider than the whole
	// fleet's slot budget, or it backpressures on the byte stream before
	// the router ever sheds — and the harness is here to measure the
	// router's admission control, not the front's read loop.
	fl, err := fleet.NewLocal(specs, shards, slots, shards*slots+64)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	lf := &LocalFleet{Local: fl}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lf.Addr = ln.Addr().String()
	go fl.Front.Serve(ln)

	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lf.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", serve.FleetMetricsHandler(func() any { return fl.Snapshot() }))
	lf.msrv = &http.Server{Handler: mux}
	go lf.msrv.Serve(mln)
	lf.MetricsURL = fmt.Sprintf("http://%s/metrics", mln.Addr())
	return lf, nil
}

// Close drains and tears the stack down.
func (lf *LocalFleet) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	lf.Shutdown(ctx)
	if lf.msrv != nil {
		lf.msrv.Close()
	}
}
