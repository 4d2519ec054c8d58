package fleet

import (
	"sort"

	"roccc/internal/serve"
)

// ShardMetrics is the metrics-plane snapshot of one shard.
type ShardMetrics struct {
	Index     int    `json:"index"`
	Addr      string `json:"addr,omitempty"`
	InProcess bool   `json:"in_process"`
	Slots     int    `json:"slots"`
	InFlight  int64  `json:"in_flight"`
	HighWater int64  `json:"high_water"`
	Streams   int64  `json:"streams"`
	Sheds     int64  `json:"sheds"`
	IdleConns int    `json:"idle_conns"`

	// Server is the in-process shard's full serve snapshot (per-kernel
	// pool stats, cone info, connection counters); nil for TCP
	// shards, whose own metrics endpoint reports it.
	Server *serve.Metrics `json:"server,omitempty"`
}

// KernelRoute is the metrics-plane view of one routed kernel: where the
// ring placed it and the load the router observed.
type KernelRoute struct {
	Kernel    string `json:"kernel"`
	Shard     int    `json:"shard"`
	Uses      int64  `json:"uses"`
	InFlight  int64  `json:"in_flight"`
	HighWater int64  `json:"high_water"`
	LastUse   int64  `json:"last_use"`
}

// Metrics is the fleet snapshot the front-end's HTTP endpoint
// serializes alongside (or instead of) a single server's.
type Metrics struct {
	Shards  []ShardMetrics `json:"shards"`
	Kernels []KernelRoute  `json:"kernels"`
}

// Metrics snapshots every shard and routed kernel.
func (r *Router) Metrics() Metrics {
	m := Metrics{Shards: make([]ShardMetrics, len(r.shards))}
	for i, sh := range r.shards {
		sh.cmu.Lock()
		idleConns := len(sh.conns)
		sh.cmu.Unlock()
		sm := ShardMetrics{
			Index:     sh.index,
			Addr:      sh.addr,
			InProcess: sh.local != nil,
			Slots:     int(sh.slots),
			InFlight:  sh.inflight.Load(),
			HighWater: sh.hwm.Load(),
			Streams:   sh.streams.Load(),
			Sheds:     sh.sheds.Load(),
			IdleConns: idleConns,
		}
		if sh.local != nil {
			srv := sh.local.Metrics()
			sm.Server = &srv
		}
		m.Shards[i] = sm
	}
	r.lmu.RLock()
	for name, kl := range r.load {
		m.Kernels = append(m.Kernels, KernelRoute{
			Kernel:    name,
			Shard:     kl.route.sh.index,
			Uses:      kl.uses.Load(),
			InFlight:  kl.inflight.Load(),
			HighWater: kl.hwm.Load(),
			LastUse:   kl.lastUse.Load(),
		})
	}
	r.lmu.RUnlock()
	sort.Slice(m.Kernels, func(i, j int) bool { return m.Kernels[i].Kernel < m.Kernels[j].Kernel })
	return m
}
