// Command rocccserve is the long-lived simulation service: the Table 1
// kernels stay resident behind warm netlist.SystemPools, and clients
// stream input windows in / output windows out over a length-prefixed
// binary TCP protocol (see internal/serve/proto.go for the framing and
// the README for a quickstart). The protocol is v2: one connection
// carries many pipelined requests, and v1 (serial) clients keep
// working unchanged.
//
// Usage:
//
//	rocccserve [-addr :9944] [-workers N] [-max-idle N] [-shards N]
//	           [-metrics :9945] [-max-resident N]
//
// Kernels compile on first request and stay cached (the compiled system
// plan lives on the kernel itself, so every pooled System shares it).
// With -shards > 1 the process runs a fleet: kernels are
// consistent-hashed across N in-process worker servers behind a
// front-end router with admission control (saturated shards shed with a
// typed Busy fault) and registry hygiene (-max-resident caps warm
// pools per shard, LRU-evicted; pool idle caps autotune from observed
// load). -metrics serves a JSON snapshot of every counter at /metrics.
// SIGINT/SIGTERM drain gracefully: in-flight streams finish, new
// requests are refused, then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"roccc/client"
	"roccc/internal/fleet"
	"roccc/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":9944", "TCP listen address")
		workers     = flag.Int("workers", 0, "pool shard width per kernel (0 = GOMAXPROCS)")
		maxIdle     = flag.Int("max-idle", 0, "cap on idle pooled Systems per kernel (0 = unbounded)")
		grace       = flag.Duration("grace", 10*time.Second, "drain budget on shutdown")
		shards      = flag.Int("shards", 1, "in-process worker shards behind the front-end router (1 = single server, no router)")
		metricsAddr = flag.String("metrics", "", "HTTP listen address for the /metrics endpoint (empty = disabled)")
		maxResident = flag.Int("max-resident", 0, "cap on kernels with warm pools per shard, LRU-evicted (0 = unbounded; needs -shards)")
		hygiene     = flag.Duration("hygiene", 15*time.Second, "registry-hygiene sweep interval (eviction + idle-cap autotune; needs -shards)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rocccserve: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 0 || *maxIdle < 0 || *grace <= 0 || *shards < 1 || *maxResident < 0 || *hygiene <= 0 {
		fmt.Fprintln(os.Stderr, "rocccserve: -workers, -max-idle and -max-resident must be >= 0 (0 = default), -shards >= 1, -grace and -hygiene positive")
		flag.Usage()
		os.Exit(2)
	}
	if *maxResident > 0 && *shards == 1 {
		fmt.Fprintln(os.Stderr, "rocccserve: -max-resident needs a fleet (-shards > 1); a single server never evicts")
		flag.Usage()
		os.Exit(2)
	}

	specs := serve.Table1Specs()
	names := make([]string, 0, len(specs))
	for i := range specs {
		names = append(names, specs[i].Name)
	}
	sort.Strings(names)

	// Topology: a single server registers everything itself; a fleet
	// registers every kernel on every worker shard (the router picks the
	// serving shard by consistent hash, so only that shard ever compiles
	// it) and the front-end server dispatches through the router.
	front := serve.NewServer(*workers)
	front.SetMaxIdle(*maxIdle)
	var router *fleet.Router
	var workersSrvs []*serve.Server
	if *shards > 1 {
		fshards := make([]fleet.Shard, *shards)
		for i := range fshards {
			w := serve.NewServer(*workers)
			w.SetMaxIdle(*maxIdle)
			for _, spec := range specs {
				if err := w.Register(spec); err != nil {
					fatal(err)
				}
			}
			workersSrvs = append(workersSrvs, w)
			fshards[i] = fleet.Shard{Local: w}
		}
		var err error
		router, err = fleet.NewRouter(fshards)
		if err != nil {
			fatal(err)
		}
		front.SetDispatcher(router)
	} else {
		for _, spec := range specs {
			if err := front.Register(spec); err != nil {
				fatal(err)
			}
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rocccserve: listening on %s (proto v%d)\n", ln.Addr(), serve.ProtoV2)
	fmt.Printf("rocccserve: %d kernels resident across %d shard(s) (lazy-compiled): %v\n",
		len(names), *shards, names)

	// Observability plane: one JSON snapshot of every counter — the
	// front server's wire/connection counters plus, in fleet mode, every
	// shard's kernels, pools and shed counts.
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", serve.FleetMetricsHandler(func() any {
			if router != nil {
				fm := router.Metrics()
				return client.FleetSnapshot{Front: front.Metrics(), Fleet: &fm}
			}
			return front.Metrics()
		}))
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "rocccserve: metrics endpoint: %v\n", err)
			}
		}()
		defer msrv.Close()
		fmt.Printf("rocccserve: metrics on http://%s/metrics\n", *metricsAddr)
	}

	// Registry hygiene: periodic LRU eviction of cold kernels past the
	// residency cap, and pool idle caps re-derived from each kernel's
	// observed concurrency high-water mark.
	hygieneStop := make(chan struct{})
	if router != nil {
		go func() {
			t := time.NewTicker(*hygiene)
			defer t.Stop()
			for {
				select {
				case <-hygieneStop:
					return
				case <-t.C:
					router.Autotune()
					if *maxResident > 0 {
						if n := router.EvictIdle(*maxResident); n > 0 {
							fmt.Printf("rocccserve: hygiene: evicted %d cold pool(s)\n", n)
						}
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- front.Serve(ln) }()

	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case s := <-sig:
		fmt.Printf("rocccserve: %v — draining (up to %s)\n", s, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := front.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "rocccserve: drain incomplete: %v\n", err)
		}
		<-done
	}
	close(hygieneStop)
	if router != nil {
		router.Close()
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		for _, w := range workersSrvs {
			if err := w.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "rocccserve: shard drain incomplete: %v\n", err)
			}
		}
		cancel()
	}

	report := func(srv *serve.Server, label string) {
		streams, faults := srv.Served()
		if streams == 0 && label != "front" {
			return
		}
		fmt.Printf("rocccserve: %s served %d streams (%d faults)\n", label, streams, faults)
		stats := srv.Stats()
		poolNames := make([]string, 0, len(stats))
		for name := range stats {
			poolNames = append(poolNames, name)
		}
		sort.Strings(poolNames)
		for _, name := range poolNames {
			st := stats[name]
			fmt.Printf("rocccserve: %s pool %-14s built=%d gets=%d puts=%d rejected=%d idle=%d jobs=%d\n",
				label, name, st.Built, st.Gets, st.Puts, st.Rejected, st.Idle, st.Jobs)
		}
	}
	report(front, "front")
	for i, w := range workersSrvs {
		report(w, fmt.Sprintf("shard %d", i))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rocccserve:", err)
	os.Exit(1)
}
