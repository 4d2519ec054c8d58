// Command rocccserve is the long-lived simulation service: the kernels
// the differential sweeps check (the Fig. 3 and 4096-iteration FIRs,
// Table 1, the fault divider and the ci/corpus kernels, read from the
// working directory) stay resident behind warm netlist.SystemPools, and
// clients stream input windows in / output windows out over a
// length-prefixed binary TCP protocol (see internal/serve/proto.go for
// the framing and the README for a quickstart). The protocol is v2:
// one connection carries many pipelined requests, and v1 (serial)
// clients keep working unchanged.
//
// Usage:
//
//	rocccserve [-addr :9944] [-workers N] [-grace 10s] [-shards N]
//	           [-metrics :9945]
//
// Kernels compile on first request, and each keeps one warm pool for
// the server's life (the compiled system plan lives on the kernel
// itself, so every pooled System shares it). With -shards > 1 the
// process runs a fleet (fleet.NewLocal): kernels are consistent-hashed
// across N in-process worker servers behind a front-end router with
// admission control (a saturated shard sheds with a typed Busy fault;
// its slot budget, -workers, also bounds each of its pools). -metrics
// serves a JSON snapshot of every counter at /metrics. SIGINT/SIGTERM
// drain gracefully: in-flight streams finish, new requests are
// refused, then the listener closes.
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

	"roccc/internal/exp"
	"roccc/internal/fleet"
	"roccc/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":9944", "TCP listen address")
		workers     = flag.Int("workers", 0, "concurrent streams per connection, and each shard's slot budget (0 = GOMAXPROCS)")
		grace       = flag.Duration("grace", 10*time.Second, "drain budget on shutdown")
		shards      = flag.Int("shards", 1, "in-process worker shards behind the front-end router (1 = single server, no router)")
		metricsAddr = flag.String("metrics", "", "HTTP listen address for the /metrics endpoint (empty = disabled)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rocccserve: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 0 || *grace <= 0 || *shards < 1 {
		fmt.Fprintln(os.Stderr, "rocccserve: -workers must be >= 0 (0 = default), -shards >= 1 and -grace positive")
		flag.Usage()
		os.Exit(2)
	}

	// The sweep matrix holds every kernel of rocccload's scenario when
	// both run from one directory; without ci/corpus it is the built-ins.
	specs, err := exp.SweepSpecs(exp.CorpusDir)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(specs))
	for i := range specs {
		names = append(names, specs[i].Name)
	}
	sort.Strings(names)

	// Topology: a single server registers everything itself; a fleet
	// registers every kernel on every worker shard (the router picks the
	// serving shard by consistent hash, so only that shard ever compiles
	// it) and the front-end server dispatches through the router.
	var front *serve.Server
	var fl *fleet.Local
	if *shards > 1 {
		if fl, err = fleet.NewLocal(specs, *shards, *workers, *workers); err != nil {
			fatal(err)
		}
		front = fl.Front
	} else {
		front = serve.NewServer(*workers)
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
			if fl != nil {
				return fl.Snapshot()
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
		drain := front.Shutdown
		if fl != nil {
			drain = fl.Shutdown // the front, then every shard
		}
		if err := drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "rocccserve: drain incomplete: %v\n", err)
		}
		<-done
	}

	report := func(label string, m serve.Metrics) {
		if m.Served == 0 && label != "front" {
			return
		}
		fmt.Printf("rocccserve: %s served %d streams (%d faults)\n", label, m.Served, m.Faults)
		for _, k := range m.Kernels { // sorted by name
			if st := k.Pool; st != nil {
				fmt.Printf("rocccserve: %s pool %-14s built=%d gets=%d puts=%d rejected=%d idle=%d jobs=%d\n",
					label, k.Kernel, st.Built, st.Gets, st.Puts, st.Rejected, st.Idle, st.Jobs)
			}
		}
	}
	report("front", front.Metrics())
	if fl != nil {
		for _, sh := range fl.Router.Metrics().Shards {
			report(fmt.Sprintf("shard %d", sh.Index), *sh.Server)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rocccserve:", err)
	os.Exit(1)
}
