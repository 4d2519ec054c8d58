package main

import (
	"fmt"
	"sort"
	"time"
)

// spanNames are the layer boundaries the traced runs record, outside in:
// the compile flow and its back-end replay, a simulated batch and its
// single-stream replay, and a served request with the front server's
// calls into the router.
var spanNames = []string{
	"roccc.pipeline", "cc.parse", "cc.analyze", "hir.build", "core.compile",
	"vhdl.emit", "synth.report", "netlist.build",
	"core.replay", "vm.lower", "cfg.build", "ssa.convert", "dp.build", "dp.pipeline",
	"pool.runbatch", "netlist.stream", "netlist.load", "netlist.run", "netlist.harvest", "dp.compute",
	"client.run", "fleet.dispatch", "fleet.runstream",
}

// kernelNames is the fixed 20-kernel set in load order, and
// streamingNames its streaming subset; the per-kernel rows use them.
var (
	kernelNames = []string{
		"bit_correlator", "mul_acc", "udiv", "square_root", "cos", "arbitrary_lut", "fir", "dct", "wavelet",
		"fig3_fir", "fig4_accum", "fig5_if_else", "fir_4096", "divide",
		"accum_feedback", "divider_chain", "mux_saturate", "scalar_mix", "stencil_cross", "window_taps",
	}
	streamingNames = []string{
		"fir", "dct", "wavelet", "fig3_fir", "fig4_accum", "fir_4096", "divide",
		"accum_feedback", "mux_saturate", "stencil_cross", "window_taps",
	}
)

// layerMetrics lists every per-layer metric a traced run prints, in
// BENCHMARK.json order.
func layerMetrics() []metricDef {
	var ms []metricDef
	for _, n := range spanNames {
		ms = append(ms, metricDef{n + "_us", "us"}, metricDef{n + ".self_us", "us"})
	}
	ms = append(ms,
		metricDef{"hir.middle_us", "us"},
		metricDef{"netlist.memloop_us", "us"},
		metricDef{"serve.outside_us", "us"},
	)
	for _, shape := range []string{"short", "long"} {
		for _, r := range ladderRungs {
			ms = append(ms, metricDef{fmt.Sprintf("ladder.%s.%s_us", shape, r), "us"})
		}
	}
	ms = append(ms,
		metricDef{"mem.allocs_per_op", "count"},
		metricDef{"mem.alloc_kb_per_op", "KB"},
		metricDef{"gc.cycles", "count"},
		metricDef{"gc.pause_ms", "ms"},
		metricDef{"vhdl.unstable_kernels", "count"},
		metricDef{"dp.ops", "count"},
		metricDef{"dp.latches", "count"},
		metricDef{"dp.latency", "cycles"},
		metricDef{"netlist.batched_frac", "ratio"},
		metricDef{"fleet.sheds", "count"},
		metricDef{"fleet.busiest_shard_share", "ratio"},
		metricDef{"pool.reuse_frac", "ratio"},
		metricDef{"host.stall_ms_per_s", "ms/s"},
		metricDef{"trace.overhead_pct.throughput", "%"},
		metricDef{"trace.overhead_pct.p50_ms", "%"},
		metricDef{"trace.overhead_pct.p99_ms", "%"},
	)
	for _, k := range kernelNames {
		ms = append(ms, metricDef{"compile." + k + "_us", "us"})
	}
	for _, k := range streamingNames {
		ms = append(ms, metricDef{"sim." + k + ".mcycles_per_s", "Mcycles/s"})
	}
	return ms
}

// layerValues assembles the per-layer metrics of a traced invocation:
// span self times from the traced window t, counters and per-kernel
// rows from the untraced window m, the other workloads' spans and rows
// from probe, exact counts, and the tracing overhead on each
// loop-measured end-to-end metric.
func layerValues(c *config, m, t, probe *measurement, e2e map[string]float64) map[string]float64 {
	stats := map[string]layerStat{}
	for _, o := range []*measurement{t, probe} {
		for k, s := range o.trace.stats {
			stats[k] = s // each layer belongs to one workload
		}
	}
	v := spanLayers(stats, spanNames)
	sum := func(names ...string) float64 {
		s := 0.0
		for _, n := range names {
			s += v[n+"_us"]
		}
		return s
	}
	v["hir.middle_us"], v["netlist.memloop_us"] = 0, 0
	if v["core.compile_us"] > 0 {
		v["hir.middle_us"] = v["core.compile_us"] - sum("vm.lower", "cfg.build", "ssa.convert", "dp.build", "dp.pipeline")
	}
	if v["netlist.run_us"] > 0 {
		v["netlist.memloop_us"] = v["netlist.run_us"] - v["dp.compute_us"]
	}
	v["serve.outside_us"] = v["client.run.self_us"]
	// Counters come from this workload's untraced window; those another
	// workload keeps (VHDL stability, fleet and pool) from its probe.
	for _, name := range []string{"mem.allocs_per_op", "mem.alloc_kb_per_op", "gc.cycles", "gc.pause_ms",
		"vhdl.unstable_kernels", "fleet.sheds", "fleet.busiest_shard_share", "pool.reuse_frac"} {
		x, ok := m.layer[name]
		if !ok {
			x = probe.layer[name]
		}
		v[name] = x
	}
	v["dp.ops"] = float64(c.exact.Ops)
	v["dp.latches"] = float64(c.exact.Latches)
	v["dp.latency"] = float64(c.exact.Latency)
	v["netlist.batched_frac"] = c.exact.BatchedFrac
	te := loopMetrics(t)
	for _, name := range []string{"throughput", "p50_ms", "p99_ms"} {
		v["trace.overhead_pct."+name] = 100 * (te[name] - e2e[name]) / e2e[name]
	}
	for _, r := range append(m.rows, probe.rows...) {
		v[r.name] = r.value
	}
	return v
}

// probeTime is how long a traced run measures each other workload,
// untraced for its per-kernel rows and traced for its spans.
const probeTime = 2 * time.Second

// probeOthers runs every workload but own briefly, so that a traced run
// measures every layer: its own workload's over the full windows, the
// others' over probeTime each. The result carries their spans, rows and
// operation counts.
func probeOthers(own string, c *config) (*measurement, error) {
	sum := &measurement{layer: map[string]float64{}, trace: &traceLog{stats: map[string]layerStat{}}}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name == own {
			continue
		}
		w, err := workloads[name](c)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", name, err)
		}
		tr := newTracer()
		m, t, err := probeOne(w, tr)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", name, err)
		}
		for _, o := range []*measurement{m, t} {
			sum.attempted += o.attempted
			sum.failed += o.failed
			if sum.firstErr == nil && o.firstErr != nil {
				sum.firstErr = fmt.Errorf("%s probe: %w", name, o.firstErr)
			}
		}
		sum.rows = append(sum.rows, m.rows...)
		for k, x := range m.layer {
			sum.layer[k] = x
		}
		for k, s := range tr.log.stats {
			sum.trace.stats[k] = s
		}
	}
	return sum, nil
}

func probeOne(w workload, tr *tracer) (m, t *measurement, err error) {
	defer w.teardown()
	if err := w.setup(); err != nil {
		return nil, nil, err
	}
	if m, err = w.measure(probeTime, nil); err != nil {
		return nil, nil, err
	}
	if t, err = w.measure(probeTime, tr); err != nil {
		return nil, nil, err
	}
	return m, t, nil
}
